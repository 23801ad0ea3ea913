"""Bounded, disk-shareable settle cache for the fleet engine.

The fleet engine settles every distinct ``(config fingerprint, seed,
placement, mode, f_target)`` coordinate through the sweep runner.  Those
settles are pure functions of their key, so the engine memoizes them
process-wide in a :class:`FleetSettleCache`, the sweep runner's
:class:`~repro.sim.cache.SettleStore` holding whole
:class:`~repro.sim.results.RunResult` values.  Its memory layer is keyed
by the hashable settle tuple itself (no fingerprinting on the hot hit
path); its optional disk layer, shared across shard workers, stores each
entry as ``settle-<fingerprint>.json``.  The event-log SHA-256 of a fleet
day is invariant with the cache hot, cold, disabled or corrupted —
enforced by test.

The process-global instance is reached through :func:`fleet_settle_cache`
and reconfigured with :func:`configure_fleet_settle_cache`; shard workers
inherit the parent's disk directory through the spec-batch payload.  The
``REPRO_FLEET_SETTLE_DIR`` / ``REPRO_FLEET_SETTLE_ENTRIES`` environment
variables seed the defaults, so long-lived services can point every
process at one warm directory without code changes.
"""

from __future__ import annotations

import contextlib
import os
from typing import Hashable, Iterator, Optional

from ..config import positive_int_from_env
from ..sim.cache import SettleStore, fingerprint
from ..sim.results import RunResult

#: Default in-memory entry cap.  A settled :class:`RunResult` is a few
#: kilobytes; a 10k-server heterogeneous day reaches a few thousand
#: distinct (placement, mode, f_target) coordinates, so the default
#: holds a region-scale working set while bounding a pathological one.
DEFAULT_MAX_ENTRIES = 8192

#: Environment knobs (service deployments; tests use the configure call).
ENV_DIR = "REPRO_FLEET_SETTLE_DIR"
ENV_ENTRIES = "REPRO_FLEET_SETTLE_ENTRIES"


class FleetSettleCache(SettleStore):
    """The fleet engine's cache of settled :class:`RunResult` values.

    ``enabled=False`` turns every lookup into a miss and every store into
    a no-op — the knob the digest-invariance tests flip.
    """

    value_type = RunResult
    metric_prefix = "fleet_settle_cache"
    get = SettleStore._get
    put = SettleStore._put

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        disk_dir: Optional[str] = None,
        enabled: bool = True,
    ) -> None:
        super().__init__(max_entries, disk_dir)
        self.enabled = enabled

    @staticmethod
    def _file_name(key: Hashable) -> str:
        # Fingerprinted only when the disk layer is consulted: memory hits
        # never pay for canonicalizing a placement.
        return f"settle-{fingerprint(key)}.json"


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


@contextlib.contextmanager
def fleet_settle_cache_dir(disk_dir: Optional[str]) -> Iterator[FleetSettleCache]:
    """Run a block with the global cache persisting to ``disk_dir``.

    ``None`` keeps the current cache.  Otherwise a fresh cache (same entry
    cap and ``enabled`` flag) on ``disk_dir`` serves the block, and the
    previous cache is restored afterwards, so an in-process caller (a CLI
    command under test) leaves the process as it found it.
    """
    global _cache
    previous = fleet_settle_cache()
    if disk_dir is None:
        yield previous
        return
    try:
        yield configure_fleet_settle_cache(
            previous.max_entries, disk_dir, previous.enabled
        )
    finally:
        _cache = previous
