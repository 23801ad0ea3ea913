"""Scenario (de)serialization: TOML documents in, frozen specs out.

One field-driven codec serves every section: the model's dataclass
fields and type hints say which keys a table takes and what each value
must be.  Loading rejects unknown keys and mistyped values with their
full key path — a typo like ``job_per_hour`` fails instead of silently
running the default — and re-raises whatever a section's own validation
raises as a :class:`~repro.errors.ScenarioError` naming the section.
Dumping writes every value that differs from its field's default, in
field order, so ``dumps(loads(text))`` is a fixed point after a single
round trip.

The document layout is the model's, with two conveniences: the
:class:`Scenario`'s own scalars live under ``[scenario]``, and its
:class:`~repro.fleet.traffic.TrafficConfig` is split over ``[traffic]``
(arrival shape) and ``[mix]`` (what the jobs are).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import tomllib
import typing
from typing import Any, Dict, Optional, Sequence

from ..errors import ReproError, ScenarioError
from ..fleet.traffic import TrafficConfig
from . import tomlio
from .model import Scenario

#: :class:`TrafficConfig` fields that live under ``[mix]``; the rest
#: live under ``[traffic]``.
MIX_KEYS = (
    "lc_profiles",
    "batch_profiles",
    "lc_threads",
    "batch_threads",
    "lc_service_mean",
    "batch_service_mean",
    "service_floor",
)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _hints(cls: type) -> Dict[str, Any]:
    """``cls``'s resolved field types (model classes are module-level)."""
    return typing.get_type_hints(cls)


def _table(value: Any, path: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise ScenarioError(
            f"[{path}] must be a table, got {type(value).__name__}"
        )
    return value


def _value(hint: Any, value: Any, path: str) -> Any:
    """``value`` checked against the type ``hint`` (tuples from arrays)."""
    args = typing.get_args(hint)
    origin = typing.get_origin(hint)
    if origin is typing.Union:  # Optional[X]: TOML has no null, so X.
        return _value(args[0], value, path)
    if dataclasses.is_dataclass(hint):
        return _decode(hint, value, path)
    if origin is tuple:
        if not isinstance(value, list):
            raise ScenarioError(
                f"{path} must be an array, got {type(value).__name__}"
            )
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ScenarioError(
                f"{path} must hold {len(args)} values, got {len(value)}"
            )
        return tuple(
            _value(arg, item, f"{path}[{i}]")
            for i, (arg, item) in enumerate(zip(args, value))
        )
    kinds = (int, float) if hint is float else (hint,)
    if isinstance(value, bool) != (hint is bool) or not isinstance(
        value, kinds
    ):
        raise ScenarioError(
            f"{path} must be {hint.__name__}, got {type(value).__name__}"
        )
    return value


def _fields(
    cls: type, table: Any, path: str, keys: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """Typed constructor arguments for ``cls`` from one TOML table.

    ``keys`` restricts the accepted keys (default: every field).
    """
    table = _table(table, path)
    hints = _hints(cls)
    allowed = [f.name for f in dataclasses.fields(cls)] if keys is None else keys
    unknown = sorted(set(table) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"unknown key(s) in [{path}]: {', '.join(unknown)}"
        )
    return {
        key: _value(hints[key], value, f"{path}.{key}")
        for key, value in table.items()
    }


def _build(cls: type, kwargs: Dict[str, Any], path: str) -> Any:
    try:
        return cls(**kwargs)
    except ReproError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _decode(cls: type, table: Any, path: str) -> Any:
    return _build(cls, _fields(cls, table, path), path)


def scenario_from_document(document: Dict[str, Any]) -> Scenario:
    """Build a validated :class:`Scenario` from a parsed TOML document."""
    root = _table(document, "")
    if "scenario" not in root:
        raise ScenarioError("scenario file needs a [scenario] table")
    hints = _hints(Scenario)
    sections = [n for n, hint in hints.items() if dataclasses.is_dataclass(hint)]
    unknown = sorted(set(root) - {"scenario", "mix", *sections})
    if unknown:
        raise ScenarioError(f"unknown key(s): {', '.join(unknown)}")
    heads = [name for name in hints if name not in sections]
    kwargs = _fields(Scenario, root["scenario"], "scenario", heads)
    kwargs.update(
        (name, _decode(hints[name], root[name], name))
        for name in sections
        if name in root and name != "traffic"
    )
    shape = [f.name for f in dataclasses.fields(TrafficConfig)
             if f.name not in MIX_KEYS]
    traffic = _fields(TrafficConfig, root.get("traffic", {}), "traffic", shape)
    traffic.update(_fields(TrafficConfig, root.get("mix", {}), "mix", MIX_KEYS))
    kwargs["traffic"] = _build(TrafficConfig, traffic, "traffic/mix")
    return _build(Scenario, kwargs, "scenario")


def _finite_float(text: str) -> float:
    """``tomllib`` float hook: scenarios never carry ``nan`` or ``inf``."""
    value = float(text)
    if not math.isfinite(value):
        raise tomllib.TOMLDecodeError(
            f"non-finite number {text!r} is not supported"
        )
    return value


def loads(text: str) -> Scenario:
    """Parse scenario TOML text into a validated :class:`Scenario`."""
    try:
        document = tomllib.loads(text, parse_float=_finite_float)
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(f"invalid scenario TOML: {exc}") from exc
    return scenario_from_document(document)


def load(path: str) -> Scenario:
    """Parse the scenario file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = tomllib.loads(
                handle.read(), parse_float=_finite_float
            )
    except OSError as exc:
        raise ScenarioError(
            f"invalid scenario file: cannot read {path}: {exc}"
        ) from exc
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(f"invalid scenario file: {path}: {exc}") from exc
    try:
        return scenario_from_document(document)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


# ----------------------------------------------------------------------
# Dumping
# ----------------------------------------------------------------------
def _default(f: dataclasses.Field) -> Any:
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return f.default


def _encode(value: Any) -> Any:
    """A model value as plain TOML data; dataclasses keep only the
    fields that differ from their defaults."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if getattr(value, f.name) != _default(f)
        }
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def scenario_to_document(scenario: Scenario) -> Dict[str, Any]:
    """Render a :class:`Scenario` as a canonical nested-dict document."""
    body = _encode(scenario)
    traffic = body.pop("traffic", {})
    document: Dict[str, Any] = {
        "scenario": {
            k: v for k, v in body.items() if not isinstance(v, dict)
        },
        "traffic": {
            k: v for k, v in traffic.items() if k not in MIX_KEYS
        },
        "mix": {k: v for k, v in traffic.items() if k in MIX_KEYS},
    }
    document.update((k, v) for k, v in body.items() if isinstance(v, dict))
    return {
        name: table
        for name, table in document.items()
        if table or name == "scenario"
    }


def dumps(scenario: Scenario) -> str:
    """Render a :class:`Scenario` as canonical scenario TOML."""
    return tomlio.dumps(scenario_to_document(scenario))


def dump(scenario: Scenario, path: str) -> None:
    """Write a :class:`Scenario` to ``path`` as canonical TOML."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(scenario))
