"""Batch solves: a server keeps its socket solves, and one batch's servers
share them.

``Power720Server.solves`` lives as long as its server, and every fault-free
``operate`` hands it to the sockets, so a socket state the server solved in
an earlier operate is taken, not iterated.  ``SweepRunner._run_batch``
makes one dict per batch and every server the batch builds adopts it, so a
socket state another task of the batch solved is taken too (``None`` under
a fault injector).  The key stays ``ProcessorSocket._inputs``: config,
backend and die seed are out of it because every server sharing a memo
comes from the batch's one config and die seed.  A pool worker unpickles
an empty copy per task and gets no cross-task reuse.

This module checks that reuse changes nothing:

* the precondition: a batch settles ``==`` with and without reuse (reuse
  defeated by a key that never repeats), over mixed task lists, every
  mode, cap-menu targets, both PDN backends, aged chips and two seeds;
* a pool batch equals the in-process batch;
* two batches with different configs through one runner each equal a run
  in a fresh process, so no memo outlives its batch;
* the Fig. 16 predictor fit and a second operate on one live server
  equal their no-reuse runs;
* the counter sees more reuse than the per-operate (twin socket) scope;
* under a fault injector a batch reuses nothing.
"""

import dataclasses
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from multiprocessing import get_context

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.figures_scheduling import fig13_borrowing_all_workloads
from repro.api import measure
from repro.chip.aging import AgingModel, aged_server_config
from repro.config import ServerConfig
from repro.core.consolidation import ConsolidationScheduler
from repro.core.loadline_borrowing import LoadlineBorrowingScheduler
from repro.core.predictor import fit_mips_predictor
from repro.errors import SweepError
from repro.faults import (
    CpmNoiseFault,
    FaultPlan,
    LoadlineExcursionFault,
    VrmDroopFault,
)
from repro.faults.injector import injected
from repro.guardband import GuardbandMode
from repro.guardband.capping import cap_walk_frequencies
from repro.obs import Observability, install
from repro.pdn.backends import backend_names
from repro.sim.batch import SweepRunner, SweepTask
from repro.sim.cache import OperatingPointCache
from repro.sim.run import build_server
from repro.sim.server import Power720Server
from repro.sim.socket import ProcessorSocket
from repro.workloads import get_profile, profile_names

STATIC = GuardbandMode.STATIC
UNDERVOLT = GuardbandMode.UNDERVOLT
OVERCLOCK = GuardbandMode.OVERCLOCK
MODES = tuple(GuardbandMode)
CONFIG = ServerConfig()
RAYTRACE = get_profile("raytrace")
SCHEDULERS = (ConsolidationScheduler, LoadlineBorrowingScheduler)
SEEDS = (7, 19)


@contextmanager
def no_reuse():
    """Every solve key is a new object, so no solve is ever reused."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProcessorSocket, "_inputs", lambda self, *args: object())
        yield


@contextmanager
def counted_iterations():
    """Count ``ProcessorSocket._iterate`` calls."""
    calls = Counter()
    original = ProcessorSocket._iterate

    def counted(self, *args, **kwargs):
        calls[self.socket_id] += 1
        return original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProcessorSocket, "_iterate", counted)
        yield calls


@contextmanager
def per_operate_memo():
    """The twin-socket scope: each operate starts from an empty memo."""
    original = Power720Server.operate

    def operate(self, *args, **kwargs):
        self.solves = {}
        return original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Power720Server, "operate", operate)
        yield


@contextmanager
def observed():
    obs = Observability(enabled=True)
    previous = install(obs)
    try:
        yield obs
    finally:
        install(previous)


def _solve_counts(obs):
    family = obs.metrics.get("socket_solves_total")
    if family is None:
        return {}
    return {labels[0]: child.value for labels, child in family.children()}


def _config(backend="power7", age_years=None):
    config = ServerConfig(pdn_backend=backend)
    if age_years is not None:
        config = aged_server_config(config, AgingModel(), age_years)
    return config


def _batch(tasks, config, seed=7, max_workers=1):
    """One batch on a fresh runner and cache: its results, or the
    failure manifest when a task raises."""
    runner = SweepRunner(max_workers=max_workers, cache=OperatingPointCache())
    try:
        return runner.run(tasks, config, seed_root=seed).results
    except SweepError as exc:
        return exc.failures


def _fig13_tasks(config, names=("raytrace", "fft"), counts=(1, 3, 5, 8)):
    """Fig. 13's grid at a few workloads and core counts."""
    return [
        SweepTask.scheduled(
            scheduler(config).schedule(get_profile(name), n, 8),
            get_profile(name),
            UNDERVOLT,
        )
        for name in names
        for n in counts
        for scheduler in SCHEDULERS
    ]


# ----------------------------------------------------------------------
# The precondition: a batch settles == with and without reuse
# ----------------------------------------------------------------------
@st.composite
def tasks(draw, config):
    profile = get_profile(draw(st.sampled_from(profile_names())))
    mode = draw(st.sampled_from(MODES))
    f_target = draw(st.none() | st.sampled_from(cap_walk_frequencies(config)))
    kind = draw(st.sampled_from(["consolidated", "placement", "scheduled"]))
    if kind == "consolidated":
        return SweepTask.consolidated(
            profile, draw(st.integers(1, 8)), mode, f_target=f_target
        )
    if kind == "placement":
        share = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(sum))
        keep_on = draw(st.none() | st.tuples(*(st.integers(n, 8) for n in share)))
        return SweepTask.placement(
            profile, share, mode, keep_on=keep_on, f_target=f_target
        )
    scheduler = draw(st.sampled_from(SCHEDULERS))(config)
    placement = scheduler.schedule(profile, draw(st.integers(1, 8)), 8)
    return SweepTask.scheduled(placement, profile, mode, f_target=f_target)


@st.composite
def batches(draw):
    config = _config(
        draw(st.sampled_from(backend_names())),
        draw(st.none() | st.sampled_from((2.0, 6.0, 10.0))),
    )
    batch = draw(st.lists(tasks(config), min_size=2, max_size=6))
    # Repeat a task under another adaptive mode, so the batch holds
    # equal static settles on different servers.
    if draw(st.booleans()):
        first = batch[0]
        batch.append(dataclasses.replace(first, mode=draw(st.sampled_from(MODES))))
    return config, draw(st.sampled_from(SEEDS)), batch


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batches())
def test_a_batch_settles_the_same_without_reuse(case):
    config, seed, batch = case
    with no_reuse():
        alone = _batch(batch, config, seed)
    assert _batch(batch, config, seed) == alone


# Fixed cases, so each backend and seed is covered whatever hypothesis
# draws.
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("backend", backend_names())
def test_a_fig13_grid_aged_and_capped(backend, seed):
    config = _config(backend, 6.0)
    floor = cap_walk_frequencies(config)[-1]
    batch = _fig13_tasks(config) + [
        SweepTask.consolidated(RAYTRACE, n, mode, f_target=floor)
        for n in (2, 6)
        for mode in MODES
    ]
    with no_reuse(), counted_iterations() as alone_calls:
        alone = _batch(batch, config, seed)
    with counted_iterations() as shared_calls:
        shared = _batch(batch, config, seed)
    assert shared == alone
    # Consolidated tasks' idle sockets repeat across the batch.
    assert shared_calls[1] < alone_calls[1]


@pytest.mark.usefixtures("require_pools")
def test_a_pool_batch_equals_the_in_process_batch():
    batch = _fig13_tasks(CONFIG)
    runner = SweepRunner(max_workers=2, cache=OperatingPointCache())
    report = runner.run(batch, CONFIG)
    assert report.used_processes
    assert report.results == _batch(batch, CONFIG)


# ----------------------------------------------------------------------
# No memo outlives its batch
# ----------------------------------------------------------------------
#: Two configs whose first solves share every key field: only the
#: config differs.
CONFIGS = (CONFIG, _config("flexwatts", 6.0))


def _fresh_process_batch(config, batch):
    return SweepRunner(cache=OperatingPointCache()).run(batch, config).results


@pytest.mark.usefixtures("require_pools")
def test_batches_of_two_configs_each_equal_a_fresh_process():
    batch = _fig13_tasks(CONFIG, names=("raytrace",), counts=(1, 4))
    runner = SweepRunner(cache=OperatingPointCache())
    in_process = [runner.run(batch, config).results for config in CONFIGS]
    with ProcessPoolExecutor(
        1, mp_context=get_context("spawn"), max_tasks_per_child=1
    ) as pool:
        fresh = [
            pool.submit(_fresh_process_batch, config, batch).result(timeout=300)
            for config in CONFIGS
        ]
    assert in_process[0] != in_process[1]
    assert in_process == fresh


# ----------------------------------------------------------------------
# One live server across operates
# ----------------------------------------------------------------------
class TestOneLiveServer:
    def test_the_predictor_fit_is_the_same(self):
        with no_reuse(), counted_iterations() as alone_calls:
            alone = fit_mips_predictor()
        with counted_iterations() as calls:
            shared = fit_mips_predictor()
        assert shared.samples == alone.samples
        assert (shared.intercept, shared.slope) == (alone.intercept, alone.slope)
        # Once its die temperature settles, the idle socket 1 repeats its
        # solve workload after workload.
        assert calls[0] == alone_calls[0]
        assert calls[1] < alone_calls[1]

    @pytest.mark.parametrize("mode", (UNDERVOLT, OVERCLOCK), ids=lambda m: m.value)
    def test_repeated_measures_on_one_server(self, mode):
        # ``measure(server=)`` settles on the live server, so each
        # measure starts from the thermal state the last one left; after
        # a few alternations the states repeat and the solves are taken.
        def alternate():
            server = build_server(CONFIG)
            return [
                measure(RAYTRACE, mode=mode, n_threads=n, server=server)
                for n in (4, 2, 4, 2, 4, 2, 4)
            ]

        with no_reuse(), counted_iterations() as alone_calls:
            alone = alternate()
        with counted_iterations() as calls:
            shared = alternate()
        assert shared == alone
        assert sum(calls.values()) < sum(alone_calls.values())


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_a_batch_reuses_more_than_its_twin_sockets():
    kwargs = dict(workloads=["raytrace", "fft"], core_counts=(1, 2, 4, 8))
    with per_operate_memo(), observed() as obs:
        twins = fig13_borrowing_all_workloads(runner=SweepRunner(), **kwargs)
    twin_only = _solve_counts(obs)
    with observed() as obs:
        shared = fig13_borrowing_all_workloads(runner=SweepRunner(), **kwargs)
    counts = _solve_counts(obs)
    assert shared == twins
    assert counts["reused"] > twin_only["reused"] > 0
    assert sum(counts.values()) == sum(twin_only.values())


# ----------------------------------------------------------------------
# Under a fault injector
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestUnderAnInjector:
    """A batch under an injector opens no memo: every socket iterates,
    exactly as on the per-socket path."""

    @pytest.mark.parametrize(
        "spec",
        [
            CpmNoiseFault(socket_id=0, amplitude_bits=4),
            VrmDroopFault(socket_id=1, depth_volts=0.015),
            LoadlineExcursionFault(socket_id=0, factor=1.7),
        ],
        ids=["cpm_noise", "vrm_droop_rail_1", "loadline_excursion"],
    )
    def test_a_batch_reuses_nothing(self, spec):
        batch = _fig13_tasks(CONFIG, names=("raytrace",), counts=(1, 4)) + [
            SweepTask.placement(RAYTRACE, (4, 4), OVERCLOCK)
        ]
        plan = FaultPlan(specs=(spec,))
        with no_reuse(), counted_iterations() as alone_calls:
            with injected(plan) as injector:
                alone = _batch(batch, CONFIG)
                alone_counts = dict(injector.counts)
        with counted_iterations() as calls, observed() as obs:
            with injected(plan) as injector:
                faulted = _batch(batch, CONFIG)
                counts = dict(injector.counts)
        assert faulted == alone
        assert counts == alone_counts
        assert calls == alone_calls
        assert set(_solve_counts(obs)) == {"solved"}
