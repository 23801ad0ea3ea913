"""Keyed operating-point cache backing the batch sweep runner.

Every settled measurement in this codebase is a pure function of
``(server config, workload profile, placement, guardband mode, f_target,
runtime-model parameters, die seed)``.  The figure builders and benchmarks
replay large grids over exactly those coordinates — and many grids overlap
(Fig. 3 is a slice of Fig. 5; Fig. 7 re-settles Fig. 5's static points;
both Fig. 5 passes share all their static halves).  This module caches the
settled :class:`~repro.sim.results.SteadyState` per coordinate so each
point is solved once per process — or once per machine, with the optional
JSON disk layer under ``.repro_cache/``.

Components
----------
:func:`fingerprint`
    Stable short hash of any JSON-able structure (configs, task
    descriptors).  Process- and platform-independent: canonical JSON with
    sorted keys through SHA-256.
:func:`encode_steady_state` / :func:`decode_steady_state`
    Loss-free JSON codec for the nested result dataclasses (floats
    round-trip exactly through ``repr``-based JSON serialization, so a
    disk hit is bit-identical to the original measurement).
:class:`OperatingPointCache`
    In-memory LRU with hit/miss counters plus the optional disk layer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import OrderedDict
from typing import Any, Dict, Optional

from ..chip.power import PowerBreakdown
from ..guardband import GuardbandMode
from ..guardband.controller import OperatingPoint
from ..obs import observability
from ..pdn.delivery import DropBreakdown
from ..workloads.profile import WorkloadProfile
from .results import RunResult, SteadyState
from .server import ServerOperatingPoint
from .socket import SocketSolution

#: Default directory of the disk layer, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Default in-memory entry cap.  One entry is a few kilobytes; the full
#: figure suite settles ~2000 distinct points, so the default holds it all.
DEFAULT_MAX_ENTRIES = 4096


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def canonical_json(value: Any) -> str:
    """Canonical (sorted-key, compact) JSON of a plain structure."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def fingerprint(value: Any) -> str:
    """Stable 16-hex-digit digest of any JSON-able structure.

    Dataclasses (e.g. :class:`~repro.config.ServerConfig`) are flattened
    with their type name mixed in, so two configs that happen to share
    field values but differ in type still key apart.
    """
    return hashlib.sha256(
        canonical_json(_plain(value)).encode("utf-8")
    ).hexdigest()[:16]


#: Leaf types :func:`_plain` returns as they are (exact types only).
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _plain(value: Any) -> Any:
    """Recursively reduce a value to JSON-able plain structures."""
    if type(value) in _SCALARS:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {
            field.name: _plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {"__type__": type(value).__name__, **body}
    if isinstance(value, GuardbandMode):
        return value.value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


# ----------------------------------------------------------------------
# JSON codec for the result dataclasses
# ----------------------------------------------------------------------
#: Dataclasses the codec round-trips.  Keyed by class name in the JSON.
_CODEC_TYPES = {
    cls.__name__: cls
    for cls in (
        RunResult,
        SteadyState,
        ServerOperatingPoint,
        OperatingPoint,
        SocketSolution,
        DropBreakdown,
        PowerBreakdown,
        WorkloadProfile,
    )
}

#: Fields that are tuples in the dataclasses but lists in JSON.
_TUPLE_SENTINEL = "__tuple__"


def _encode(value: Any) -> Any:
    if isinstance(value, GuardbandMode):
        return {"__mode__": value.value}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _CODEC_TYPES:
            raise TypeError(f"no JSON codec for dataclass {name}")
        return {
            "__dc__": name,
            "fields": {
                field.name: _encode(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, tuple):
        return {_TUPLE_SENTINEL: [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    raise TypeError(f"no JSON codec for {type(value).__name__}")


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "__mode__" in value:
            return GuardbandMode(value["__mode__"])
        if _TUPLE_SENTINEL in value:
            return tuple(_decode(v) for v in value[_TUPLE_SENTINEL])
        if "__dc__" in value:
            cls = _CODEC_TYPES[value["__dc__"]]
            fields = {k: _decode(v) for k, v in value["fields"].items()}
            return cls(**fields)
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def encode_steady_state(state: SteadyState) -> Dict[str, Any]:
    """JSON-able dict of one settled measurement."""
    return _encode(state)


def decode_steady_state(payload: Dict[str, Any]) -> SteadyState:
    """Rebuild a :class:`SteadyState` from :func:`encode_steady_state`."""
    state = _decode(payload)
    if not isinstance(state, SteadyState):
        raise TypeError(
            f"payload decodes to {type(state).__name__}, expected SteadyState"
        )
    return state


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_errors: int = 0
    #: Disk entries that failed validation (torn/garbage) and were
    #: quarantined — a subset of ``disk_errors``.
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def summary(self) -> str:
        """One-line human-readable summary."""
        line = (
            f"{self.hits}/{self.lookups} hits ({self.hit_rate:.0%}), "
            f"{self.stores} stores, {self.disk_hits} from disk, "
            f"{self.evictions} evictions"
        )
        if self.disk_errors:
            line += f", {self.disk_errors} disk errors"
        if self.corrupt:
            line += f" ({self.corrupt} quarantined)"
        return line


class OperatingPointCache:
    """LRU cache of settled operating points, with optional JSON disk layer.

    Parameters
    ----------
    max_entries:
        In-memory entry cap; least recently used entries are evicted.
    disk_dir:
        When given, every store is also persisted as one JSON file
        ``<key>.json`` under this directory, and in-memory misses fall
        through to disk.  Corrupt or unreadable files count as misses
        (and ``disk_errors``), never as failures.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        disk_dir: Optional[str] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._entries: "OrderedDict[str, SteadyState]" = OrderedDict()
        self._disk_dir = disk_dir
        self.stats = CacheStats()

    @property
    def disk_dir(self) -> Optional[str]:
        """Directory of the disk layer (``None`` = memory only)."""
        return self._disk_dir

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[SteadyState]:
        """The cached state for ``key``, or ``None`` on a miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self._record_lookup("hit")
            return self._entries[key]
        state = self._disk_get(key)
        if state is not None:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._record_lookup("disk_hit")
            self._remember(key, state)
            return state
        self.stats.misses += 1
        self._record_lookup("miss")
        return None

    def put(self, key: str, state: SteadyState) -> None:
        """Store one settled state under ``key`` (memory, then disk)."""
        self._remember(key, state)
        self.stats.stores += 1
        observability().count(
            "opcache_stores_total",
            help_text="Operating points stored into the cache.",
        )
        self._disk_put(key, state)

    @staticmethod
    def _record_disk_error(op: str) -> None:
        observability().count(
            "opcache_disk_errors_total",
            help_text="Disk-layer faults absorbed as misses.",
            op=op,
        )

    @staticmethod
    def _record_lookup(result: str) -> None:
        observability().count(
            "opcache_lookups_total",
            help_text="Operating-point cache lookups by outcome.",
            result=result,
        )

    def clear(self) -> None:
        """Drop the in-memory layer (disk files are left in place)."""
        self._entries.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _remember(self, key: str, state: SteadyState) -> None:
        self._entries[key] = state
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            observability().count(
                "opcache_evictions_total",
                help_text="LRU evictions from the in-memory layer.",
            )

    def _disk_path(self, key: str) -> str:
        return os.path.join(self._disk_dir, f"{key}.json")

    def _disk_get(self, key: str) -> Optional[SteadyState]:
        if self._disk_dir is None:
            return None
        path = self._disk_path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            return decode_steady_state(payload["state"])
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.disk_errors += 1
            self._record_disk_error("read")
            return None

    def _disk_put(self, key: str, state: SteadyState) -> None:
        if self._disk_dir is None:
            return
        # The temp name carries the pid so shard/sweep workers sharing one
        # cache directory never clobber each other's in-flight writes.
        tmp = self._disk_path(key) + f".{os.getpid()}.tmp"
        try:
            os.makedirs(self._disk_dir, exist_ok=True)
            payload = {"key": key, "state": encode_steady_state(state)}
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, self._disk_path(key))
            finally:
                # A dump that died mid-write (encoder TypeError, ENOSPC,
                # kill between write and replace) must not strand the temp
                # file forever; the rename already removed it on success.
                if os.path.exists(tmp):
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
        except (OSError, TypeError, ValueError):
            self.stats.disk_errors += 1
            self._record_disk_error("write")
