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
:func:`encode` / :func:`decode`
    Loss-free JSON codec for the nested result dataclasses (floats
    round-trip exactly through ``repr``-based JSON serialization, so a
    disk hit is bit-identical to the original measurement).
:class:`BoundedMemo`
    The package's one LRU, also behind the fleet's process-wide memos.
:class:`SettleStore`
    The memory LRU plus the optional checksummed, quarantining disk layer.
    :class:`OperatingPointCache` (here) and
    :class:`~repro.fleet.settle_cache.FleetSettleCache` are its two
    instances, differing only in value type, metric prefix and file name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import OrderedDict
from typing import Any, Hashable, Optional

from ..chip.power import PowerBreakdown
from ..guardband import GuardbandMode
from ..guardband.controller import OperatingPoint
from ..obs import observability
from ..pdn.delivery import DropBreakdown
from ..workloads.profile import WorkloadProfile
from .results import RunResult, SteadyState
from .server import ServerOperatingPoint
from .socket import SocketSolution

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


def encode(value: Any) -> Any:
    """JSON-able structure of a result dataclass (inverse of :func:`decode`)."""
    if isinstance(value, GuardbandMode):
        return {"__mode__": value.value}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _CODEC_TYPES:
            raise TypeError(f"no JSON codec for dataclass {name}")
        return {
            "__dc__": name,
            "fields": {
                field.name: encode(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, tuple):
        return {_TUPLE_SENTINEL: [encode(v) for v in value]}
    if isinstance(value, list):
        return [encode(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    raise TypeError(f"no JSON codec for {type(value).__name__}")


def decode(value: Any) -> Any:
    """Rebuild what :func:`encode` produced."""
    if isinstance(value, dict):
        if "__mode__" in value:
            return GuardbandMode(value["__mode__"])
        if _TUPLE_SENTINEL in value:
            return tuple(decode(v) for v in value[_TUPLE_SENTINEL])
        if "__dc__" in value:
            cls = _CODEC_TYPES[value["__dc__"]]
            fields = {k: decode(v) for k, v in value["fields"].items()}
            return cls(**fields)
        return {k: decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode(v) for v in value]
    return value


# ----------------------------------------------------------------------
# The store
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
    #: Disk entries that failed validation (torn/garbage/checksum) and
    #: were quarantined — a subset of ``disk_errors``.
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


class BoundedMemo:
    """A dict-shaped LRU: the package's only one.

    Supports exactly the idioms the memos use — ``get``, ``in``, item
    get/set, ``clear``, ``len`` — and evicts the least recently used
    entry past ``max_entries``.  Correctness never depends on an entry
    being present (memos only skip recomputation of pure functions), so
    eviction is always safe.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable, default: Any = None) -> Any:
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return entries[key]
        return default

    def __getitem__(self, key: Hashable) -> Any:
        self._entries.move_to_end(key)
        return self._entries[key]

    def store(self, key: Hashable, value: Any) -> int:
        """Insert ``value`` as most recent; returns the entries evicted."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        evicted = 0
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
            evicted += 1
        return evicted

    __setitem__ = store

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


#: Suffix quarantined disk entries are renamed to, so a persistently bad
#: file never costs a decode attempt twice.
QUARANTINE_SUFFIX = ".corrupt"

#: Help text of each ``<prefix>_<what>_total`` metric family of a store.
_METRIC_HELP = {
    "lookups": "Cache lookups by outcome (hit, disk_hit, miss).",
    "stores": "Values stored into the cache.",
    "evictions": "LRU evictions from the cache's memory layer.",
    "disk_errors": "Cache disk faults absorbed as misses.",
    "corrupt": (
        "Cache disk entries that failed validation (torn, garbage or "
        "checksum mismatch) and were quarantined."
    ),
}


def _checksum(encoded: Any) -> str:
    """SHA-256 over the canonical JSON of an encoded value."""
    return hashlib.sha256(canonical_json(encoded).encode("utf-8")).hexdigest()


class SettleStore(BoundedMemo):
    """A :class:`BoundedMemo` with counters and a checksummed disk layer.

    Each disk entry is one JSON file ``{"checksum", "result"}``: the
    :func:`encode`-d value and the SHA-256 of its canonical JSON.  Floats
    round-trip exactly, so a disk hit is bit-identical to the original
    settle.  A file that is unparseable, lacks either field, fails its
    checksum or decodes to the wrong type is quarantined (renamed
    ``*.corrupt``) and counted as a miss: damage is recomputed, never
    served.  Writes are atomic (pid-suffixed temp + ``os.replace``), so
    processes sharing one directory never clobber in-flight writes, and a
    write failure is absorbed like a read failure.

    The inherited memo is the memory layer (``clear`` drops it and leaves
    the disk files); ``get``/``put`` add the counters and the disk layer.
    Subclasses set :attr:`value_type`, :attr:`metric_prefix` and
    :meth:`_file_name`, and bind ``get``/``put`` in their own class body,
    where the benchmark tracer resolves them per class.
    """

    #: Type every value read back from disk must have.
    value_type: type = object

    #: Metric families are ``<metric_prefix>_<what>_total``.
    metric_prefix: str = ""

    #: ``False`` turns every lookup into a miss and every store into a no-op.
    enabled: bool = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._metric_names = {
            what: f"{cls.metric_prefix}_{what}_total" for what in _METRIC_HELP
        }

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        disk_dir: Optional[str] = None,
    ) -> None:
        super().__init__(max_entries)
        self._disk_dir = disk_dir
        self.stats = CacheStats()
        # Deterministic chaos hook: while armed, every Nth disk write is
        # torn mid-payload (see arm_corruption / CacheCorruptionFault).
        self._corrupt_every: Optional[int] = None
        self._writes_since_armed = 0

    @property
    def disk_dir(self) -> Optional[str]:
        """Directory of the disk layer (``None`` = memory only)."""
        return self._disk_dir

    def _get(self, key: Hashable) -> Any:
        """The cached value for ``key``, or ``None`` on a miss."""
        if not self.enabled:
            return None
        # The memo lookup inlined: this is the fleet's hottest path.
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            self.stats.hits += 1
            self._record_lookup("hit")
            return entries[key]
        value = self._disk_get(key)
        if value is None:
            self.stats.misses += 1
            self._record_lookup("miss")
            return None
        self.stats.hits += 1
        self.stats.disk_hits += 1
        self._record_lookup("disk_hit")
        self._remember(key, value)
        return value

    def _put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key`` (memory, then disk)."""
        if not self.enabled:
            return
        self._remember(key, value)
        self.stats.stores += 1
        self._count("stores")
        self._disk_put(key, value)

    def arm_corruption(self, every_n: Optional[int]) -> Optional[int]:
        """Arm (``every_n >= 1``) or disarm (``None``) write tearing.

        While armed, every ``every_n``-th disk write is truncated
        mid-payload after the atomic replace — a deterministic stand-in
        for torn writes (power loss, full disk).  Returns the previous
        setting so callers can restore it; the write counter restarts on
        every call, keeping the tear sequence a pure function of the
        write order since arming.
        """
        if every_n is not None and every_n < 1:
            raise ValueError(f"every_n must be >= 1, got {every_n}")
        previous = self._corrupt_every
        self._corrupt_every = every_n
        self._writes_since_armed = 0
        return previous

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _file_name(key: Hashable) -> str:
        raise NotImplementedError

    def _record_lookup(self, result: str) -> None:
        observability().count(
            self._metric_names["lookups"],
            help_text=_METRIC_HELP["lookups"],
            result=result,
        )

    def _count(self, what: str, amount: float = 1.0, **labels: Any) -> None:
        observability().count(
            self._metric_names[what],
            amount,
            help_text=_METRIC_HELP[what],
            **labels,
        )

    def _remember(self, key: Hashable, value: Any) -> None:
        evicted = self.store(key, value)
        if evicted:
            self.stats.evictions += evicted
            self._count("evictions", evicted)

    def _disk_get(self, key: Hashable) -> Any:
        if self._disk_dir is None:
            return None
        path = os.path.join(self._disk_dir, self._file_name(key))
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            encoded = payload["result"]
            if _checksum(encoded) != payload["checksum"]:
                raise ValueError("checksum mismatch")
            value = decode(encoded)
            if not isinstance(value, self.value_type):
                raise TypeError(
                    f"entry decodes to {type(value).__name__}, expected "
                    f"{self.value_type.__name__}"
                )
            return value
        except OSError:
            self.stats.disk_errors += 1
            self._count("disk_errors", op="read")
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
        return None

    def _quarantine(self, path: str) -> None:
        """Count one corrupt disk entry and move it out of the namespace.

        Renaming (not deleting) keeps the evidence for post-mortems while
        guaranteeing the next lookup recomputes instead of re-decoding a
        known-bad file.
        """
        self.stats.disk_errors += 1
        self.stats.corrupt += 1
        self._count("disk_errors", op="read")
        self._count("corrupt")
        try:
            os.replace(path, path + QUARANTINE_SUFFIX)
        except OSError:
            pass

    def _disk_put(self, key: Hashable, value: Any) -> None:
        if self._disk_dir is None:
            return
        path = os.path.join(self._disk_dir, self._file_name(key))
        tmp = path + f".{os.getpid()}.tmp"
        try:
            os.makedirs(self._disk_dir, exist_ok=True)
            encoded = encode(value)
            payload = {"checksum": _checksum(encoded), "result": encoded}
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, path)
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
            self._count("disk_errors", op="write")
            return
        if self._corrupt_every:
            self._writes_since_armed += 1
            if self._writes_since_armed % self._corrupt_every == 0:
                self._tear(path)

    def _tear(self, path: str) -> None:
        """Truncate a just-written entry mid-payload (the armed fault)."""
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.truncate(max(1, size // 2))
        except OSError:
            return
        observability().count(
            "faults_injected_total",
            help_text="Fault injections applied, by fault kind.",
            kind="cache_fault",
        )


class OperatingPointCache(SettleStore):
    """The sweep runner's cache of settled :class:`SteadyState` points.

    Keys are the runner's point fingerprints; a key's disk entry is
    ``<key>.json`` under ``disk_dir``.
    """

    value_type = SteadyState
    metric_prefix = "opcache"
    get = SettleStore._get
    put = SettleStore._put

    @staticmethod
    def _file_name(key: str) -> str:
        return f"{key}.json"
