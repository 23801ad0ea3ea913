"""The TOML writer behind scenario dumping.

Scenario files are read with the stdlib :mod:`tomllib` (see
:mod:`repro.scenarios.codec`); the stdlib has no writer, so this module
renders the nested dicts/lists/scalars a scenario document is made of:
``[table]`` and ``[[array-of-tables]]`` headers, bare or quoted keys,
basic strings, booleans, integers, finite floats and arrays.  Everything
:func:`dumps` emits parses back through :mod:`tomllib` to the same
document.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..errors import ScenarioError

_ESCAPES = {
    "b": "\b", "t": "\t", "n": "\n", "f": "\f", "r": "\r",
    '"': '"', "\\": "\\",
}
_UNESCAPES = {v: "\\" + k for k, v in _ESCAPES.items() if k not in ("b", "f")}


def _is_bare_key(text: str) -> bool:
    return bool(text) and all(
        (c.isascii() and c.isalnum()) or c in ("_", "-") for c in text
    )


def _format_key(key: str) -> str:
    if _is_bare_key(key):
        return key
    return _format_string(key)


def _format_string(value: str) -> str:
    out = ['"']
    for c in value:
        if c in _UNESCAPES:
            out.append(_UNESCAPES[c])
        elif c in _ESCAPES.values():
            # Control characters with named escapes (\b, \f).
            for name, char in _ESCAPES.items():
                if char == c:
                    out.append("\\" + name)
                    break
        elif ord(c) < 0x20:
            raise ScenarioError(
                f"unrepresentable control character {c!r} in string"
            )
        else:
            out.append(c)
    out.append('"')
    return "".join(out)


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ScenarioError("non-finite floats are not representable")
        text = repr(value)
        # repr(float) of an integral float is e.g. '4.0' — already valid.
        return text
    if isinstance(value, str):
        return _format_string(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    raise ScenarioError(f"unrepresentable value of type {type(value).__name__}")


def _is_table_array(value: Any) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) > 0
        and all(isinstance(v, dict) for v in value)
    )


def _dump_table(table: Dict[str, Any], prefix: str, out: List[str]) -> None:
    scalars = [
        (k, v)
        for k, v in table.items()
        if not isinstance(v, dict) and not _is_table_array(v)
    ]
    subtables = [(k, v) for k, v in table.items() if isinstance(v, dict)]
    arrays = [(k, v) for k, v in table.items() if _is_table_array(v)]
    for key, value in scalars:
        out.append(f"{_format_key(key)} = {_format_value(value)}")
    for key, value in subtables:
        path = f"{prefix}.{_format_key(key)}" if prefix else _format_key(key)
        out.append("")
        out.append(f"[{path}]")
        _dump_table(value, path, out)
    for key, value in arrays:
        path = f"{prefix}.{_format_key(key)}" if prefix else _format_key(key)
        for item in value:
            out.append("")
            out.append(f"[[{path}]]")
            _dump_table(item, path, out)


def dumps(document: Dict[str, Any]) -> str:
    """Render nested dicts/lists/scalars as a TOML-subset document.

    Key order follows the document's insertion order, so a dict built in
    canonical order dumps stably — ``tomllib.loads(dumps(d))`` reproduces
    ``d`` and ``dumps(tomllib.loads(text))`` is a fixed point after one
    round trip.
    """
    if not isinstance(document, dict):
        raise ScenarioError("top-level TOML value must be a table")
    out: List[str] = []
    _dump_table(document, "", out)
    while out and out[0] == "":
        out.pop(0)
    return "\n".join(out) + "\n" if out else ""
