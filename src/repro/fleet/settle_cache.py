"""Bounded, disk-shareable settle cache for the fleet engine.

The fleet engine settles every distinct ``(config fingerprint, seed,
placement, mode, f_target)`` coordinate through the sweep runner.  Those
settles are pure functions of their key, so the engine has always memoized
them process-wide — but the memo was an unbounded plain dict (a
multi-scenario pytest session or a long service run leaked memory without
bound), and it was *per-process*: every shard worker of a sharded fleet
day re-settled the identical homogeneous placements cold.

This module replaces that dict with an :class:`OperatingPointCache`-style
two-layer cache:

* an in-memory LRU bounded at ``max_entries`` (keyed by the hashable
  settle tuple itself — no fingerprinting on the hot hit path), and
* an optional JSON disk layer, shared across shard workers exactly like
  the sweep runner's ``.repro_cache/`` directory: each entry is one
  ``<fingerprint>.json`` file written atomically (pid-suffixed temp +
  ``os.replace``), corrupt or unreadable files count as misses, and the
  decoded :class:`~repro.sim.results.RunResult` round-trips floats
  exactly, so a disk hit is bit-identical to the original settle.  The
  event-log SHA-256 of a fleet day is therefore invariant with the cache
  hot, cold, or disabled — enforced by test.

The process-global instance is reached through :func:`fleet_settle_cache`
and reconfigured with :func:`configure_fleet_settle_cache`; shard workers
inherit the parent's disk directory through the spec-batch payload.  The
``REPRO_FLEET_SETTLE_DIR`` / ``REPRO_FLEET_SETTLE_ENTRIES`` environment
variables seed the defaults, so long-lived services can point every
process at one warm directory without code changes.

:class:`BoundedMemo` is the same LRU without the disk layer or the
codec — a drop-in replacement for the other process-wide fleet memos
(job rates, per-socket frequency minima, placement plans) whose values
are not JSON-serializable but whose growth must still be bounded.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from typing import Any, Hashable, Optional

from ..config import positive_int_from_env
from ..obs import observability
from ..sim.cache import (
    CacheStats,
    _decode,
    _encode,
    canonical_json,
    fingerprint,
)
from ..sim.results import RunResult

#: Default in-memory entry cap.  A settled :class:`RunResult` is a few
#: kilobytes; a 10k-server heterogeneous day reaches a few thousand
#: distinct (placement, mode, f_target) coordinates, so the default
#: holds a region-scale working set while bounding a pathological one.
DEFAULT_MAX_ENTRIES = 8192

#: Environment knobs (service deployments; tests use the configure call).
ENV_DIR = "REPRO_FLEET_SETTLE_DIR"
ENV_ENTRIES = "REPRO_FLEET_SETTLE_ENTRIES"

#: Suffix quarantined (checksum-failing) disk entries are renamed to,
#: so a persistently bad file never costs a decode attempt twice.
QUARANTINE_SUFFIX = ".corrupt"


def _payload_checksum(encoded: Any) -> str:
    """SHA-256 over the canonical JSON of an encoded settle payload."""
    return hashlib.sha256(
        canonical_json(encoded).encode("utf-8")
    ).hexdigest()


class BoundedMemo:
    """A dict-shaped LRU: the unbounded-module-dict antidote.

    Supports exactly the idioms the fleet memos use — ``get``, ``in``,
    item get/set, ``clear``, ``len`` — and silently evicts the least
    recently used entry past ``max_entries``.  Correctness never depends
    on an entry being present (memos only skip recomputation of pure
    functions), so eviction is always safe.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable, default: Any = None) -> Any:
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key]
        return default

    def __getitem__(self, key: Hashable) -> Any:
        self._entries.move_to_end(key)
        return self._entries[key]

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class FleetSettleCache:
    """Two-layer (memory LRU + shared JSON disk) cache of fleet settles.

    Keys are the engine's hashable settle tuples; the disk filename is
    the :func:`~repro.sim.cache.fingerprint` of the tuple, computed only
    when the disk layer is actually consulted (memory hits never pay for
    canonicalizing a placement).  ``enabled=False`` turns every lookup
    into a miss and every store into a no-op — the knob the
    digest-invariance tests flip.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        disk_dir: Optional[str] = None,
        enabled: bool = True,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.enabled = enabled
        self._entries: "OrderedDict[Hashable, RunResult]" = OrderedDict()
        self._disk_dir = disk_dir
        self.stats = CacheStats()
        # Deterministic chaos hook: while armed, every Nth disk write is
        # torn mid-payload (see arm_corruption / CacheCorruptionFault).
        self._corrupt_every: Optional[int] = None
        self._writes_since_armed = 0

    @property
    def disk_dir(self) -> Optional[str]:
        """Directory of the shared disk layer (``None`` = memory only)."""
        return self._disk_dir

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[RunResult]:
        """The cached settle for ``key``, or ``None`` on a miss."""
        if not self.enabled:
            return None
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self._record_lookup("hit")
            return self._entries[key]
        result = self._disk_get(key)
        if result is not None:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._record_lookup("disk_hit")
            self._remember(key, result)
            return result
        self.stats.misses += 1
        self._record_lookup("miss")
        return None

    def put(self, key: Hashable, result: RunResult) -> None:
        """Store one settle under ``key`` (memory, then shared disk)."""
        if not self.enabled:
            return
        self._remember(key, result)
        self.stats.stores += 1
        observability().count(
            "fleet_settle_cache_stores_total",
            help_text="Fleet settles stored into the shared cache.",
        )
        self._disk_put(key, result)

    def clear_memory(self) -> None:
        """Drop the in-memory layer (shared disk files are left in place)."""
        self._entries.clear()

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
    def _record_lookup(result: str) -> None:
        observability().count(
            "fleet_settle_cache_lookups_total",
            help_text="Shared settle-cache lookups by outcome.",
            result=result,
        )

    @staticmethod
    def _record_disk_error(op: str) -> None:
        observability().count(
            "fleet_settle_cache_disk_errors_total",
            help_text="Settle-cache disk faults absorbed as misses.",
            op=op,
        )

    def _remember(self, key: Hashable, result: RunResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            observability().count(
                "fleet_settle_cache_evictions_total",
                help_text="LRU evictions from the settle cache's memory layer.",
            )

    def _disk_path(self, key: Hashable) -> str:
        return os.path.join(self._disk_dir, f"settle-{fingerprint(key)}.json")

    def _disk_get(self, key: Hashable) -> Optional[RunResult]:
        if self._disk_dir is None:
            return None
        path = self._disk_path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError:
            self.stats.disk_errors += 1
            self._record_disk_error("read")
            return None
        except ValueError:
            # Truncated / torn / garbage JSON: the file itself is bad.
            self._quarantine(path)
            return None
        try:
            encoded = payload["result"]
            if _payload_checksum(encoded) != payload["checksum"]:
                raise ValueError("checksum mismatch")
            result = _decode(encoded)
            if not isinstance(result, RunResult):
                raise TypeError(
                    f"payload decodes to {type(result).__name__}, "
                    "expected RunResult"
                )
            return result
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
        self._record_disk_error("read")
        observability().count(
            "fleet_settle_cache_corrupt_total",
            help_text=(
                "Settle-cache disk entries that failed validation "
                "(torn, truncated or garbage) and were quarantined."
            ),
        )
        try:
            os.replace(path, path + QUARANTINE_SUFFIX)
        except OSError:
            pass

    def _disk_put(self, key: Hashable, result: RunResult) -> None:
        if self._disk_dir is None:
            return
        path = self._disk_path(key)
        # Pid-suffixed temp so shard workers sharing the directory never
        # clobber each other's in-flight writes.
        tmp = path + f".{os.getpid()}.tmp"
        try:
            os.makedirs(self._disk_dir, exist_ok=True)
            encoded = _encode(result)
            payload = {
                "checksum": _payload_checksum(encoded),
                "result": encoded,
            }
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
        except (OSError, TypeError, ValueError):
            self.stats.disk_errors += 1
            self._record_disk_error("write")
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


# ----------------------------------------------------------------------
# The process-global instance
# ----------------------------------------------------------------------
_cache: Optional[FleetSettleCache] = None


def fleet_settle_cache() -> FleetSettleCache:
    """The process-global settle cache (created on first use).

    Defaults come from ``REPRO_FLEET_SETTLE_DIR`` /
    ``REPRO_FLEET_SETTLE_ENTRIES`` when set (an entry count that is not
    an integer >= 1 is a :class:`~repro.errors.ConfigError`), else
    memory-only with :data:`DEFAULT_MAX_ENTRIES`.
    """
    global _cache
    if _cache is None:
        _cache = FleetSettleCache(
            max_entries=positive_int_from_env(ENV_ENTRIES, DEFAULT_MAX_ENTRIES),
            disk_dir=os.environ.get(ENV_DIR) or None,
        )
    return _cache


def configure_fleet_settle_cache(
    max_entries: Optional[int] = None,
    disk_dir: Optional[str] = None,
    enabled: bool = True,
) -> FleetSettleCache:
    """Replace the process-global settle cache (fresh stats, empty memory).

    Shard workers call this (through the spec-batch payload) to point
    their cache at the parent's shared directory; tests use it to pin a
    tiny ``max_entries`` or to disable caching outright.
    """
    global _cache
    _cache = FleetSettleCache(
        max_entries=(
            DEFAULT_MAX_ENTRIES if max_entries is None else max_entries
        ),
        disk_dir=disk_dir,
        enabled=enabled,
    )
    return _cache


def ensure_settle_cache_dir(disk_dir: Optional[str]) -> FleetSettleCache:
    """Make the global cache share ``disk_dir`` (idempotent).

    The in-process shard path calls this with the directory the parent
    already uses — a no-op that keeps the warm memory layer; a pool
    worker starts cold and gets rebuilt against the shared directory.
    """
    cache = fleet_settle_cache()
    if cache.disk_dir != disk_dir:
        cache = configure_fleet_settle_cache(
            max_entries=cache.max_entries,
            disk_dir=disk_dir,
            enabled=cache.enabled,
        )
    return cache
