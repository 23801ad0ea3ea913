"""The shared fleet settle cache: bounds, disk sharing, digest identity."""

import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import measure
from repro.fleet import FleetConfig, TrafficConfig
from repro.fleet.engine import FleetSimulation, clear_fleet_memos
from repro.fleet.settle_cache import (
    FleetSettleCache,
    configure_fleet_settle_cache,
    ensure_settle_cache_dir,
    fleet_settle_cache,
)
from repro.sim.cache import BoundedMemo
from repro.sim.results import RunResult

#: Small but non-trivial fleet day for the identity tests.
TRAFFIC = TrafficConfig(
    duration_seconds=3600.0, jobs_per_hour=60.0, lc_fraction=0.15
)


@pytest.fixture(autouse=True)
def _restore_global_cache():
    """Every test leaves the process-global cache in its default state."""
    yield
    configure_fleet_settle_cache()
    clear_fleet_memos()


@pytest.fixture(scope="module")
def settled() -> RunResult:
    """One real settled measurement to cache (module-scoped: settle once)."""
    return measure("lu_cb", mode="undervolt", n_threads=4)


class TestBoundedMemo:
    def test_bound_holds_under_churn(self):
        memo = BoundedMemo(8)
        for i in range(1000):
            memo[("key", i)] = i
            assert len(memo) <= 8
        # The survivors are exactly the most recent eight.
        assert all(("key", i) in memo for i in range(992, 1000))

    def test_lru_eviction_order(self):
        memo = BoundedMemo(2)
        memo["a"] = 1
        memo["b"] = 2
        assert memo.get("a") == 1  # touch: "b" is now least recent
        memo["c"] = 3
        assert "a" in memo
        assert "b" not in memo

    def test_dict_idioms(self):
        memo = BoundedMemo(4)
        memo["k"] = "v"
        assert memo["k"] == "v"
        assert memo.get("missing") is None
        assert memo.get("missing", "d") == "d"
        memo.clear()
        assert len(memo) == 0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            BoundedMemo(0)


class TestFleetSettleCache:
    def test_memory_hit_returns_same_object(self, settled):
        cache = FleetSettleCache(max_entries=4)
        cache.put(("k",), settled)
        assert cache.get(("k",)) is settled
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0

    def test_miss_counts(self):
        cache = FleetSettleCache(max_entries=4)
        assert cache.get(("nope",)) is None
        assert cache.stats.misses == 1

    def test_lru_bound_holds_under_churn(self, settled):
        cache = FleetSettleCache(max_entries=4)
        for i in range(64):
            cache.put(("k", i), settled)
            assert len(cache) <= 4
        assert cache.stats.evictions == 60

    def test_disk_round_trip_is_bit_identical(self, settled, tmp_path):
        writer = FleetSettleCache(max_entries=4, disk_dir=str(tmp_path))
        key = ("cfg", 7, "placement-stand-in", "undervolt", None)
        writer.put(key, settled)
        reader = FleetSettleCache(max_entries=4, disk_dir=str(tmp_path))
        loaded = reader.get(key)
        assert loaded is not None
        assert loaded is not settled
        assert loaded == settled  # frozen dataclasses: exact field equality
        assert (
            loaded.adaptive.point.server_power
            == settled.adaptive.point.server_power
        )
        assert reader.stats.disk_hits == 1
        # Second read is a memory hit — the decode happened once.
        assert reader.get(key) is loaded

    def test_corrupt_disk_file_counts_as_miss(self, settled, tmp_path):
        writer = FleetSettleCache(max_entries=4, disk_dir=str(tmp_path))
        key = ("corrupt",)
        writer.put(key, settled)
        (path,) = list(tmp_path.iterdir())
        path.write_text("{ not json")
        reader = FleetSettleCache(max_entries=4, disk_dir=str(tmp_path))
        assert reader.get(key) is None
        assert reader.stats.disk_errors == 1
        assert reader.stats.misses == 1

    def test_wrong_payload_type_counts_as_miss(self, settled, tmp_path):
        writer = FleetSettleCache(max_entries=4, disk_dir=str(tmp_path))
        key = ("wrong-type",)
        writer.put(key, settled)
        (path,) = list(tmp_path.iterdir())
        path.write_text(json.dumps({"result": 42}))
        reader = FleetSettleCache(max_entries=4, disk_dir=str(tmp_path))
        assert reader.get(key) is None
        assert reader.stats.disk_errors == 1

    def test_disabled_cache_never_stores_or_hits(self, settled, tmp_path):
        cache = FleetSettleCache(
            max_entries=4, disk_dir=str(tmp_path), enabled=False
        )
        cache.put(("k",), settled)
        assert len(cache) == 0
        assert cache.get(("k",)) is None
        assert cache.stats.lookups == 0
        assert list(tmp_path.iterdir()) == []

    def test_no_tmp_orphans_on_disk(self, settled, tmp_path):
        cache = FleetSettleCache(max_entries=4, disk_dir=str(tmp_path))
        for i in range(8):
            cache.put(("k", i), settled)
        names = [p.name for p in tmp_path.iterdir()]
        assert names
        assert all(name.endswith(".json") for name in names)


class TestGlobalConfiguration:
    def test_configure_replaces_the_global(self, tmp_path):
        cache = configure_fleet_settle_cache(
            max_entries=2, disk_dir=str(tmp_path)
        )
        assert fleet_settle_cache() is cache
        assert fleet_settle_cache().disk_dir == str(tmp_path)

    def test_ensure_dir_is_idempotent(self, tmp_path):
        configure_fleet_settle_cache(disk_dir=str(tmp_path))
        before = fleet_settle_cache()
        assert ensure_settle_cache_dir(str(tmp_path)) is before
        after = ensure_settle_cache_dir(None)
        assert after is not before
        assert after.disk_dir is None

    def test_clear_fleet_memos_drops_the_memory_layer(self, tmp_path):
        from repro.fleet.engine import _idle_power_memo, _job_rate_memo
        from repro.fleet.scheduler import (
            _freq_memo,
            _plan_memo,
            _predictor_memo,
        )

        cache = configure_fleet_settle_cache(disk_dir=str(tmp_path))
        settled = measure("lu_cb", mode="undervolt", n_threads=2)
        cache.put(("k",), settled)
        _idle_power_memo[("a",)] = 1
        _job_rate_memo[("b",)] = 2
        _freq_memo[("c",)] = 3
        _plan_memo[("d",)] = 4
        _predictor_memo["e"] = 5
        clear_fleet_memos()
        assert len(cache) == 0
        for memo in (
            _idle_power_memo,
            _job_rate_memo,
            _freq_memo,
            _plan_memo,
            _predictor_memo,
        ):
            assert len(memo) == 0
        # Disk files survive a memo clear — that is the shared layer.
        assert list(os.listdir(tmp_path))


class TestDigestInvariance:
    """The event-log SHA-256 must not depend on cache state."""

    CONFIG = dict(n_servers=2, traffic=TRAFFIC, seed=7)

    def _run_digest(self) -> str:
        return FleetSimulation(FleetConfig(**self.CONFIG)).run().event_log_hash

    def test_hash_identical_cold_hot_and_disabled(self):
        configure_fleet_settle_cache()
        clear_fleet_memos()
        cold = self._run_digest()
        hot = self._run_digest()  # warm memory layer
        assert fleet_settle_cache().stats.hits > 0
        configure_fleet_settle_cache(enabled=False)
        clear_fleet_memos()
        disabled = self._run_digest()
        assert cold == hot == disabled

    def test_hash_identical_through_the_disk_layer(self, tmp_path):
        configure_fleet_settle_cache(disk_dir=str(tmp_path))
        clear_fleet_memos()
        cold = self._run_digest()
        assert list(os.listdir(tmp_path))  # settles were persisted
        # Fresh cache, cold memory, warm disk: every settle replays.
        configure_fleet_settle_cache(disk_dir=str(tmp_path))
        clear_fleet_memos()
        warm = self._run_digest()
        assert warm == cold
        assert fleet_settle_cache().stats.disk_hits > 0

    def test_shard_workers_fill_a_shared_dir_a_warm_rerun_replays(
        self, tmp_path, require_pools
    ):
        """Pool workers write the shared disk layer; a warm rerun reads it.

        The cold 2-shard run settles only inside worker processes, so
        every file in the directory was written by a worker.  The warm
        1-shard rerun then starts with an empty memory layer and must
        answer every settle from those files without changing the log.
        """
        from repro.fleet.shard import run_sharded

        config = FleetConfig(
            n_servers=4,
            traffic=TrafficConfig(duration_seconds=3600.0, jobs_per_hour=120.0),
            seed=7,
        )

        def digest(n_shards: int) -> str:
            return run_sharded(
                config, n_shards=n_shards, cell_servers=2, keep_events=False
            ).event_log_hash

        configure_fleet_settle_cache()
        clear_fleet_memos()
        memory_only = digest(1)
        configure_fleet_settle_cache(disk_dir=str(tmp_path))
        clear_fleet_memos()
        cold = digest(2)
        assert fleet_settle_cache().stats.stores == 0  # parent settled nothing
        written = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
        assert written
        configure_fleet_settle_cache(disk_dir=str(tmp_path))
        clear_fleet_memos()
        warm = digest(1)
        stats = fleet_settle_cache().stats
        assert memory_only == cold == warm
        assert stats.disk_hits > 0
        assert stats.misses == 0


def _hammer_shared_key(disk_dir: str, settled, n_writes: int) -> int:
    """Pool worker: rewrite one key into a shared dir as fast as possible.

    Module-level so the pool can pickle it; returns the worker's disk
    error count (any write fault would already be a failure).
    """
    cache = FleetSettleCache(max_entries=4, disk_dir=disk_dir)
    for _ in range(n_writes):
        cache.put(("raced",), settled)
    return cache.stats.disk_errors


@pytest.mark.usefixtures("require_pools")
class TestConcurrentWriters:
    """Shard workers share the disk layer; racing writers must be safe.

    The atomic-write protocol (pid-suffixed temp + ``os.replace``) is the
    only thing standing between two workers rewriting the same key and a
    reader decoding a half-written file.  Two processes hammer one key
    concurrently; the read-back must validate with zero corruption
    counters and leave no temp orphans behind.
    """

    def test_two_processes_racing_one_key_never_corrupt(
        self, settled, tmp_path
    ):
        from repro.obs import Observability, install, observability

        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_hammer_shared_key, str(tmp_path), settled, 50)
                for _ in range(2)
            ]
            assert [f.result(timeout=120) for f in futures] == [0, 0]
        previous = install(Observability(enabled=True))
        try:
            reader = FleetSettleCache(max_entries=4, disk_dir=str(tmp_path))
            loaded = reader.get(("raced",))
            rendered = observability().metrics.render_text()
        finally:
            install(previous)
        assert loaded == settled  # a complete, checksum-valid entry won
        assert reader.stats.corrupt == 0
        assert reader.stats.disk_errors == 0
        # Counters are created on first increment: absence means zero.
        assert "fleet_settle_cache_corrupt_total" not in rendered
        names = [p.name for p in tmp_path.iterdir()]
        assert names == ["settle-{}.json".format(names[0][7:-5])]
        assert not any(n.endswith(".tmp") for n in names)


class TestArmedCorruption:
    """The ``cache_fault`` chaos hook: deterministic torn writes.

    While armed, every Nth disk write is truncated mid-payload.  The
    cache must detect the damage on read (checksum or JSON failure),
    quarantine the file, count it, and recompute — never serve it.
    """

    def test_arm_returns_previous_and_validates(self, tmp_path):
        cache = FleetSettleCache(max_entries=4, disk_dir=str(tmp_path))
        assert cache.arm_corruption(3) is None
        assert cache.arm_corruption(None) == 3
        with pytest.raises(ValueError):
            cache.arm_corruption(0)

    def test_torn_write_is_quarantined_and_counted(self, settled, tmp_path):
        from repro.obs import Observability, install, observability

        writer = FleetSettleCache(max_entries=4, disk_dir=str(tmp_path))
        writer.arm_corruption(1)
        writer.put(("torn",), settled)
        # The writer's own memory layer still hits — tearing only
        # damages the disk copy.
        assert writer.get(("torn",)) is settled
        reader = FleetSettleCache(max_entries=4, disk_dir=str(tmp_path))
        previous = install(Observability(enabled=True))
        try:
            assert reader.get(("torn",)) is None
            rendered = observability().metrics.render_text()
        finally:
            install(previous)
        assert reader.stats.corrupt == 1
        assert reader.stats.misses == 1
        assert "fleet_settle_cache_corrupt_total" in rendered
        names = [p.name for p in tmp_path.iterdir()]
        assert any(n.endswith(".corrupt") for n in names)
        assert not any(n.endswith(".json") for n in names)
        # A clean rewrite (reader is unarmed) heals the entry in place.
        reader.put(("torn",), settled)
        fresh = FleetSettleCache(max_entries=4, disk_dir=str(tmp_path))
        assert fresh.get(("torn",)) == settled
        assert fresh.stats.corrupt == 0

    def test_every_n_cadence_tears_exactly_the_nth_writes(
        self, settled, tmp_path
    ):
        writer = FleetSettleCache(max_entries=8, disk_dir=str(tmp_path))
        writer.arm_corruption(2)
        for i in range(4):
            writer.put(("k", i), settled)
        reader = FleetSettleCache(max_entries=8, disk_dir=str(tmp_path))
        served = [reader.get(("k", i)) for i in range(4)]
        # Writes 2 and 4 (1-indexed) were torn: exactly two survive.
        assert [r is not None for r in served] == [True, False, True, False]
        assert reader.stats.corrupt == 2


class TestCacheFaultDigestInvariance:
    """An armed ``cache_fault`` never moves a fleet run's digest."""

    CONFIG = dict(n_servers=2, traffic=TRAFFIC, seed=7)

    def _run_digest(self, fault_plan=None) -> str:
        sim = FleetSimulation(
            FleetConfig(**self.CONFIG), fault_plan=fault_plan
        )
        return sim.run().event_log_hash

    @pytest.mark.chaos
    def test_armed_tear_never_moves_the_digest(self, tmp_path):
        from repro.faults import CacheCorruptionFault, FaultPlan

        plan = FaultPlan(specs=(CacheCorruptionFault(every_n=1),))
        configure_fleet_settle_cache()
        clear_fleet_memos()
        clean = self._run_digest()
        # Every disk write torn: the run computes everything it needs
        # (memory layer is undamaged) and leaves a fully torn disk.
        configure_fleet_settle_cache(disk_dir=str(tmp_path))
        clear_fleet_memos()
        assert self._run_digest(fault_plan=plan) == clean
        # The engine restored the disarmed state after the run.
        assert fleet_settle_cache().arm_corruption(None) is None
        # Rerun cold over the damaged disk: every read quarantines,
        # recomputes, and the digest still never moves.
        configure_fleet_settle_cache(disk_dir=str(tmp_path))
        clear_fleet_memos()
        assert self._run_digest(fault_plan=plan) == clean
        assert fleet_settle_cache().stats.corrupt > 0
        assert any(
            name.endswith(".corrupt") for name in os.listdir(tmp_path)
        )
