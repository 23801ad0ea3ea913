"""The mode pair: one fresh server settles STATIC, then UNDERVOLT from it.

The sweep runner's worker (``_execute_task``) settles a task's missing
static + undervolt pair on one fresh server: static first, then the
undervolt firmware loop starting from that static settle, its mode-entry
state, instead of solving it again on a second fresh server.
``_settle_mode`` (one fresh server per mode) stays the path for
overclock, for a lone missing mode and for any batch under an installed
fault injector, and it is the reference here: every fused state must
equal it exactly, whatever order the modes were requested in.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chip.aging import AgingModel, aged_server_config
from repro.config import ServerConfig
from repro.core.consolidation import ConsolidationScheduler
from repro.core.loadline_borrowing import LoadlineBorrowingScheduler
from repro.errors import CalibrationError, ConvergenceError
from repro.faults import (
    CalibrationFault,
    FaultPlan,
    LoadlineExcursionFault,
    VrmDroopFault,
)
from repro.faults.injector import injected
from repro.guardband import GuardbandMode
from repro.guardband.capping import cap_walk_frequencies
from repro.sim import batch
from repro.sim.batch import SweepRunner, SweepTask, _execute_task, _settle_mode
from repro.sim.cache import OperatingPointCache
from repro.sim.run import build_server
from repro.workloads import get_profile, profile_names

STATIC = GuardbandMode.STATIC
UNDERVOLT = GuardbandMode.UNDERVOLT
OVERCLOCK = GuardbandMode.OVERCLOCK
ORDERS = ((STATIC, UNDERVOLT), (UNDERVOLT, STATIC))
SCHEDULERS = (ConsolidationScheduler, LoadlineBorrowingScheduler)


def _per_mode(config, seed, task, modes):
    """The per-mode path (``_execute_task``'s body before the pair)."""
    return {mode.value: _settle_mode(config, seed, task, mode) for mode in modes}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ConvergenceError, CalibrationError) as exc:
        return (type(exc).__name__, str(exc))


def _fused(config, seed, task, modes):
    return _execute_task((config, seed, task, modes, {}), 0)[0]


def _config(backend="power7", age_years=None):
    config = ServerConfig(pdn_backend=backend)
    if age_years is not None:
        config = aged_server_config(config, AgingModel(), age_years)
    return config


@st.composite
def pair_cases(draw):
    config = _config(
        draw(st.sampled_from(["power7", "flexwatts"])),
        draw(st.none() | st.floats(min_value=0.5, max_value=10.0)),
    )
    seed = draw(st.sampled_from([7, 11]) | st.integers(0, 10_000))
    f_target = draw(st.none() | st.sampled_from(cap_walk_frequencies(config)))
    profile = get_profile(draw(st.sampled_from(profile_names())))
    kind = draw(st.sampled_from(["consolidated", "placement", "scheduled"]))
    if kind == "consolidated":
        task = SweepTask.consolidated(
            profile,
            draw(st.integers(1, 8)),
            UNDERVOLT,
            threads_per_core=draw(st.integers(1, 2)),
            f_target=f_target,
        )
    elif kind == "placement":
        share = draw(
            st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(sum)
        )
        # A socket with no threads and no cores kept on is fully gated
        # and parks.
        keep_on = draw(
            st.none() | st.tuples(*(st.integers(n, 8) for n in share))
        )
        task = SweepTask.placement(
            profile, share, UNDERVOLT, keep_on=keep_on, f_target=f_target
        )
    else:
        scheduler = draw(st.sampled_from(SCHEDULERS))(config)
        placement = scheduler.schedule(profile, draw(st.integers(1, 8)), 8)
        task = SweepTask.scheduled(placement, profile, UNDERVOLT, f_target=f_target)
    return config, seed, task


def _assert_pair_matches(config, seed, task):
    for modes in ORDERS:
        reference = _outcome(_per_mode, config, seed, task, modes)
        fused = _outcome(_fused, config, seed, task, modes)
        assert fused == reference, (task.label(), modes)
        if isinstance(reference, dict):
            assert list(fused) == [mode.value for mode in modes]


class TestPairEqualsPerModeSettles:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=pair_cases())
    def test_every_state_is_bit_identical(self, case):
        _assert_pair_matches(*case)

    @pytest.mark.parametrize(
        "share, keep_on",
        [((4, 0), (4, 0)), ((0, 3), (0, 3)), ((8, 0), (8, 0))],
        ids=["socket1_parked", "socket0_parked", "full_socket0"],
    )
    @pytest.mark.parametrize("backend", ["power7", "flexwatts"])
    def test_a_parked_socket(self, share, keep_on, backend):
        task = SweepTask.placement(
            get_profile("lu_cb"), share, UNDERVOLT, keep_on=keep_on
        )
        config = _config(backend)
        _assert_pair_matches(config, 7, task)
        states = _fused(config, 7, task, ORDERS[0])
        parked = keep_on.index(0)
        point = states[UNDERVOLT.value].point.sockets[parked]
        assert point.undervolt == 0.0
        assert point.solution == states[STATIC.value].point.sockets[parked].solution

    @pytest.mark.parametrize("scheduler", SCHEDULERS, ids=lambda s: s.__name__)
    @pytest.mark.parametrize("seed", [7, 11, 19])
    def test_fig13_schedulers_aged_and_capped(self, scheduler, seed):
        config = _config("flexwatts", 6.0)
        profile = get_profile("raytrace")
        menu = cap_walk_frequencies(config)
        for n in (1, 5, 8):
            placement = scheduler(config).schedule(profile, n, 8)
            for f_target in (None, menu[len(menu) // 2], menu[-1]):
                task = SweepTask.scheduled(
                    placement, profile, UNDERVOLT, f_target=f_target
                )
                _assert_pair_matches(config, seed, task)


@pytest.fixture
def calls(monkeypatch):
    """Counts of fresh servers built and of each settle path taken."""
    counts = {"build_server": 0, "_settle_mode": 0, "_settle_mode_pair": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(batch, name, wrapper)

    counting("build_server", build_server)
    counting("_settle_mode", batch._settle_mode)
    counting("_settle_mode_pair", batch._settle_mode_pair)
    return counts


def _task(mode=UNDERVOLT):
    return SweepTask.consolidated(get_profile("raytrace"), 4, mode)


class TestWhichPathSettles:
    @pytest.mark.parametrize("modes", ORDERS, ids=["static_first", "undervolt_first"])
    def test_a_fused_task_builds_one_server(self, calls, modes):
        _fused(ServerConfig(), 7, _task(), modes)
        assert calls == {"build_server": 1, "_settle_mode": 0, "_settle_mode_pair": 1}

    def test_overclock_settles_per_mode(self, calls):
        config, task = ServerConfig(), _task(OVERCLOCK)
        states = _fused(config, 7, task, (STATIC, OVERCLOCK))
        assert calls == {"build_server": 2, "_settle_mode": 2, "_settle_mode_pair": 0}
        assert states == _per_mode(config, 7, task, (STATIC, OVERCLOCK))

    @pytest.mark.parametrize("cached", [STATIC, UNDERVOLT])
    def test_a_lone_missing_mode_settles_alone(self, calls, cached):
        config, task = ServerConfig(), _task()
        runner = SweepRunner(cache=OperatingPointCache())
        keys = runner._point_keys(batch.config_fingerprint(config), task, 7)
        runner.cache.put(keys[cached.value], _settle_mode(config, 7, task, cached))
        calls.update(dict.fromkeys(calls, 0))
        (result,) = runner.run([task], config).results
        assert calls == {"build_server": 1, "_settle_mode": 1, "_settle_mode_pair": 0}
        reference = _per_mode(config, 7, task, (STATIC, UNDERVOLT))
        assert result.static == reference[STATIC.value]
        assert result.adaptive == reference[UNDERVOLT.value]

    def test_a_runner_batch_fuses_every_task(self, calls):
        config = ServerConfig()
        tasks = [_task(), SweepTask.consolidated(get_profile("fft"), 2, UNDERVOLT)]
        results = SweepRunner(cache=OperatingPointCache()).run(tasks, config).results
        assert calls == {"build_server": 2, "_settle_mode": 0, "_settle_mode_pair": 2}
        for task, result in zip(tasks, results):
            reference = _per_mode(config, 7, task, (STATIC, UNDERVOLT))
            assert result.static == reference[STATIC.value]
            assert result.adaptive == reference[UNDERVOLT.value]


class TestEntryIsGuarded:
    def test_only_undervolt_takes_an_entry(self):
        server = build_server()
        server.place(0, get_profile("raytrace"), 4)
        static = server.operate(STATIC)
        for mode in (STATIC, OVERCLOCK):
            with pytest.raises(ValueError, match="undervolt only"):
                server.operate(mode, entry=static)

    def test_the_entry_must_be_a_static_point(self):
        server = build_server()
        server.place(0, get_profile("raytrace"), 4)
        server.operate(STATIC)
        undervolt = server.operate(UNDERVOLT)
        with pytest.raises(ValueError, match="static point"):
            server.operate(UNDERVOLT, entry=undervolt)


@pytest.mark.chaos
class TestUnderAnInjector:
    """Fault injection carries fallback and calibration state across
    operates, so a batch under an injector keeps one server per mode."""

    def test_a_guarded_operate_refuses_an_entry(self):
        server = build_server()
        server.place(0, get_profile("raytrace"), 4)
        static = server.operate(STATIC)
        plan = FaultPlan(specs=(VrmDroopFault(socket_id=1, depth_volts=0.015),))
        with injected(plan), pytest.raises(ValueError, match="fault-free only"):
            server.operate(UNDERVOLT, entry=static)

    @pytest.mark.parametrize(
        "spec",
        [
            CalibrationFault(socket_id=0),
            LoadlineExcursionFault(socket_id=0, factor=1.7),
            VrmDroopFault(socket_id=1, depth_volts=0.015),
        ],
        ids=["calibration_failure", "loadline_excursion", "vrm_droop"],
    )
    def test_the_batch_settles_per_mode_like_the_parent(self, calls, spec):
        config = ServerConfig()
        tasks = [
            _task(),
            SweepTask.placement(get_profile("lu_cb"), (3, 3), UNDERVOLT),
        ]
        plan = FaultPlan(specs=(spec,))
        with injected(plan) as injector:
            reference = [
                _per_mode(config, 7, task, (STATIC, UNDERVOLT)) for task in tasks
            ]
            reference_counts = dict(injector.counts)
        calls.update(dict.fromkeys(calls, 0))
        with injected(plan) as injector:
            report = SweepRunner(cache=OperatingPointCache()).run(tasks, config)
            counts = dict(injector.counts)
        assert calls == {
            "build_server": 2 * len(tasks),
            "_settle_mode": 2 * len(tasks),
            "_settle_mode_pair": 0,
        }
        assert counts == reference_counts
        assert counts
        for result, ref in zip(report.results, reference):
            assert result.static == ref[STATIC.value]
            assert result.adaptive == ref[UNDERVOLT.value]


class TestWarmRerun:
    def test_both_mode_keys_replay_from_memory_and_disk(self, tmp_path):
        config = ServerConfig()
        profile = get_profile("raytrace")
        tasks = [
            SweepTask.scheduled(
                scheduler(config).schedule(profile, n, 8), profile, UNDERVOLT
            )
            for scheduler in SCHEDULERS
            for n in (2, 6)
        ]
        cold = SweepRunner(cache=OperatingPointCache(disk_dir=str(tmp_path)))
        first = cold.run(tasks, config)
        assert first.cache_stats.misses == 2 * len(tasks)
        assert first.cache_stats.stores == 2 * len(tasks)
        assert len(list(tmp_path.glob("*.json"))) == 2 * len(tasks)

        again = cold.run(tasks, config)
        assert again.n_from_cache == len(tasks)
        assert again.cache_stats.hits == 2 * len(tasks)
        assert again.cache_stats.misses == 2 * len(tasks)

        with mock.patch.object(batch, "_execute_task", side_effect=AssertionError):
            warm = SweepRunner(cache=OperatingPointCache(disk_dir=str(tmp_path)))
            replay = warm.run(tasks, config)
        stats = replay.cache_stats
        assert (stats.hits, stats.misses) == (2 * len(tasks), 0)
        assert (stats.disk_hits, stats.disk_errors) == (2 * len(tasks), 0)
        assert replay.results == first.results
