"""The cap search (`settle_under_cap`) vs the reference linear DVFS walk.

The capped settle used to walk the DVFS table linearly from the top,
then bisected it; it now probes the floor first and interpolates the
cap in f³ (:func:`repro.guardband.capping.fastest_fitting`), about
three settles per new throttled placement.  Equivalence is not obvious
— the linear walk had a dynamic skip rule (candidates at or above the
current settle's slowest clock were passed over unprobed) and a
best-effort floor when nothing fits — so this suite sweeps caps across
the *entire* table for both adaptive guardband modes and demands the
exact same selected operating point, epoch for epoch, and checks the
pure search on stub tables of every shape against the linear walk.
``sweep(power_cap=)`` runs the same search and ``measure(power_cap=)``
keeps the linear walk; both picks and both below-floor errors are
checked against the walk on both PDN backends, and a capped ``measure``
under an installed injector must fit the cap or refuse.

Any search faster than the walk is only sound if settled server power
never rises as the frequency ceiling steps down the menu.  Every probe's
undervolt loop starts from its own ``f_target`` static settle, so the
precondition is checked for both halves of every probe, across both PDN
backends, aged silicon and several die seeds, for the consolidated
placements the facade settles (bar ``measure``'s overclock half, which
rises once and is why ``measure`` keeps its walk), and for every
placement the catalog's rack-budget scenarios throttle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dataclasses

from repro.api import measure, sweep
from repro.chip.aging import AgingModel, aged_server_config
from repro.config import ServerConfig
from repro.errors import SchedulingError
from repro.faults import (
    CpmNoiseFault,
    FaultPlan,
    LoadlineExcursionFault,
    VrmDroopFault,
)
from repro.fleet import FleetConfig, TrafficConfig
from repro.fleet.engine import FleetSimulation, clear_fleet_memos
from repro.fleet.settle_cache import configure_fleet_settle_cache
from repro.guardband import GuardbandMode
from repro.guardband.capping import cap_walk_frequencies, fastest_fitting
from repro.core.placement import Placement, ThreadGroup
from repro.scenarios import find_scenario, run_scenario
from repro.sim.batch import SweepRunner, core_scaling_tasks
from repro.sim.cache import OperatingPointCache
from repro.sim.run import build_server
from repro.workloads import get_profile


@pytest.fixture(autouse=True)
def _fresh_cache():
    configure_fleet_settle_cache()
    clear_fleet_memos()
    yield
    configure_fleet_settle_cache()
    clear_fleet_memos()


@pytest.fixture(scope="module")
def sim() -> FleetSimulation:
    config = FleetConfig(
        n_servers=1,
        traffic=TrafficConfig(duration_seconds=3600.0, jobs_per_hour=10.0),
        seed=7,
    )
    return FleetSimulation(config)


@pytest.fixture(scope="module")
def placement() -> Placement:
    """A busy two-socket placement (the shape the scheduler emits)."""
    return Placement(
        groups=(
            (ThreadGroup(get_profile("lu_cb"), 6),),
            (ThreadGroup(get_profile("raytrace"), 4),),
        ),
        keep_on=(6, 4),
        threads_per_core=1,
    )


def settle_capped_linear(sim, placement, mode, cap_w):
    """Reference linear descending cap walk (pre-bisection semantics).

    The walk ``FleetSimulation._settle_capped`` replaced: step down the
    fastest-first menu, skipping ceilings at or above the current
    settle's slowest clock, and stop at the first point that fits; when
    none fits, the last (slowest) point settled is the best effort.
    """
    result = sim._settle(placement, mode)
    if cap_w is None or result.adaptive.point.server_power <= cap_w:
        return result, False
    for frequency in sim._cap_walk_frequencies():
        if frequency >= result.adaptive.point.min_frequency:
            continue  # not slower than the current settle
        result = sim._settle(placement, mode, frequency)
        if result.adaptive.point.server_power <= cap_w:
            break
    return result, True


def _sweep_caps(sim, placement, mode):
    """Cap values probing every decision boundary of the DVFS table."""
    uncapped = sim._settle(placement, mode)
    powers = [uncapped.adaptive.point.server_power]
    for frequency in sim._cap_walk_frequencies():
        settled = sim._settle(placement, mode, frequency)
        powers.append(settled.adaptive.point.server_power)
    caps = []
    for power in powers:
        caps.extend([power - 1e-6, power, power + 1e-6])
    caps.append(min(powers) * 0.5)   # nothing fits: best-effort floor
    caps.append(max(powers) * 2.0)   # everything fits: uncapped path
    return caps


@pytest.mark.parametrize(
    "mode", [GuardbandMode.UNDERVOLT, GuardbandMode.OVERCLOCK]
)
class TestBisectionMatchesLinearWalk:
    def test_full_table_sweep(self, sim, placement, mode):
        for cap_w in _sweep_caps(sim, placement, mode):
            fast, fast_throttled = sim._settle_capped(placement, mode, cap_w)
            ref, ref_throttled = settle_capped_linear(
                sim, placement, mode, cap_w
            )
            assert fast_throttled == ref_throttled, f"cap={cap_w}"
            # Settles are cached by coordinate, so "the same selected
            # point" means the very same result object.
            assert fast is ref, (
                f"cap={cap_w}: bisection selected "
                f"{fast.adaptive.point.min_frequency / 1e6:.0f} MHz "
                f"({fast.adaptive.point.server_power:.2f} W), linear "
                f"{ref.adaptive.point.min_frequency / 1e6:.0f} MHz "
                f"({ref.adaptive.point.server_power:.2f} W)"
            )

    def test_uncapped_is_untouched(self, sim, placement, mode):
        result, throttled = sim._settle_capped(placement, mode, None)
        assert not throttled
        assert result is sim._settle(placement, mode)

    def test_floor_when_nothing_fits(self, sim, placement, mode):
        floor_freq = sim._cap_walk_frequencies()[-1]
        floor = sim._settle(placement, mode, floor_freq)
        impossible = floor.adaptive.point.server_power * 0.5
        result, throttled = sim._settle_capped(placement, mode, impossible)
        assert throttled
        assert result.adaptive.point.server_power > impossible
        assert result is floor

    def test_bisection_settles_fewer_points(self, sim, placement, mode):
        """O(log n): a mid-table cap must not settle the whole menu."""
        table = sim._cap_walk_frequencies()
        mid = sim._settle(placement, mode, table[len(table) // 2])
        cap_w = mid.adaptive.point.server_power
        configure_fleet_settle_cache()
        clear_fleet_memos()
        before = sim.settle_seconds
        counted = []
        original = sim._settle

        def counting(placement_, mode_, f_target=None):
            counted.append(f_target)
            return original(placement_, mode_, f_target)

        sim._settle = counting
        try:
            sim._settle_capped(placement, mode, cap_w)
        finally:
            sim._settle = original
            sim.settle_seconds = before
        # 1 uncapped + the floor + the interpolated probes (two for the
        # undervolt curve; the flat overclock curve already fits
        # uncapped).  The search hands back a probed settle, so there is
        # no re-settle.
        n = len(table)
        assert len(counted) <= 2 + n.bit_length()


#: The cap-walk menu, fastest first; a stub search runs on its slowest n.
MENU = cap_walk_frequencies(ServerConfig())


@st.composite
def stub_tables(draw):
    """A non-increasing power table over the menu's slowest 1–26 points."""
    n = draw(st.integers(1, len(MENU)))
    top = draw(st.floats(50.0, 500.0))
    shape = draw(st.sampled_from(["flat", "step", "convex", "concave", "any"]))
    if shape == "flat":  # an overclock settle that ignores its ceiling
        powers = [top] * n
    elif shape == "step":
        k = draw(st.integers(0, n))
        powers = [top] * k + [draw(st.floats(1.0, top))] * (n - k)
    elif shape == "convex":
        ratio = draw(st.floats(0.3, 0.95))
        powers = [10.0 + (top - 10.0) * ratio**i for i in range(n)]
    elif shape == "concave":
        powers = [top - (top - 10.0) * (i / len(MENU)) ** 2 for i in range(n)]
    else:
        drops = draw(
            st.lists(st.floats(0.0, top / len(MENU)), min_size=n, max_size=n)
        )
        powers = [top]
        for drop in drops[1:]:
            powers.append(powers[-1] - drop)
    # The uncapped settle sits above the menu and draws at least its top.
    over = (
        MENU[len(MENU) - n] * draw(st.floats(1.0, 1.2, exclude_min=True)),
        powers[0] + draw(st.floats(0.0, 100.0)),
    )
    return MENU[len(MENU) - n :], powers, over


class TestSearchMatchesLinearWalk:
    @settings(max_examples=300, deadline=None)
    @given(stub_tables())
    def test_stub_tables(self, table):
        menu, powers, over = table
        n = len(powers)
        caps = [p + delta for p in powers for delta in (-1e-6, 0.0, 1e-6)]
        caps += [min(powers) - 1.0, max(powers) + 1.0]
        for cap in caps:
            calls = []

            def power_at(index):
                calls.append(index)
                return powers[index]

            linear = next(
                (i for i, power in enumerate(powers) if power <= cap), n - 1
            )
            assert fastest_fitting(menu, power_at, cap, over) == linear, cap
            assert len(calls) <= 2 * n.bit_length() + 2, (cap, calls)


#: The consolidated shapes the facade tests measure: (workload, threads).
FACADE_POINTS = [("raytrace", 8), ("fft", 4)]


def measure_capped_linear(workload, power_cap, **kwargs):
    """The reference linear walk of ``measure(power_cap=)``: step down the
    menu, skipping ceilings at or above the current settle's slowest
    clock, and refuse when the last point settled still exceeds the
    cap."""
    result = measure(workload, **kwargs)
    if result.adaptive.point.server_power <= power_cap:
        return result
    for frequency in cap_walk_frequencies(kwargs["config"]):
        if frequency >= result.adaptive.point.min_frequency:
            continue  # no slower than the uncapped settle
        result = measure(workload, f_target=frequency, **kwargs)
        if result.adaptive.point.server_power <= power_cap:
            return result
    raise SchedulingError(
        f"power cap of {power_cap:.1f} W is below the floor: even the "
        f"lowest DVFS point draws "
        f"{result.adaptive.point.server_power:.1f} W here"
    )


def sweep_capped_linear(runner, task, power_cap, config):
    """The linear walk ``sweep(power_cap=)`` replaced by the search,
    verbatim, for one sweep point."""
    result = runner.run_results([task], config)[0]
    if result.adaptive.point.server_power <= power_cap:
        return result
    for frequency in cap_walk_frequencies(config):
        if frequency >= result.adaptive.point.min_frequency:
            continue
        retry = dataclasses.replace(task, f_target=frequency)
        result = runner.run_results([retry], config)[0]
        if result.adaptive.point.server_power <= power_cap:
            break
    else:
        raise SchedulingError(
            f"power cap of {power_cap:.1f} W is below the floor for "
            f"{task.profile.name} on {task.n_threads} threads: the lowest "
            f"DVFS point draws "
            f"{result.adaptive.point.server_power:.1f} W"
        )
    return result


def _outcome(call):
    """What a capped call ends in: its result, or its error's message."""
    try:
        return call()
    except SchedulingError as error:
        return str(error)


def _caps(top, floor):
    """14 caps from the floor's power to the uncapped power, and one
    below the floor."""
    return [floor + (top - floor) * (step + 0.5) / 14 for step in range(14)] + [
        floor * 0.5
    ]


@pytest.mark.parametrize("live_server", [False, True], ids=["fresh", "server"])
@pytest.mark.parametrize("backend", ["power7", "flexwatts"])
@pytest.mark.parametrize("mode", ["undervolt", "overclock"])
@pytest.mark.parametrize("workload, n_threads", FACADE_POINTS)
def test_capped_measure_matches_linear_walk(
    workload, n_threads, mode, backend, live_server
):
    """``measure(power_cap=)`` picks what the linear walk picks, and below
    the floor raises the same message.  With ``server=`` every probe
    runs on one live machine (fresh for each side), so the probe order
    is part of the result."""
    config = ServerConfig(pdn_backend=backend)
    kwargs = dict(mode=mode, n_threads=n_threads, config=config)
    top = measure(workload, **kwargs)
    floor = measure(workload, f_target=cap_walk_frequencies(config)[-1], **kwargs)

    def on_server():
        return dict(kwargs, server=build_server(config)) if live_server else kwargs

    for cap in _caps(top.adaptive.point.server_power, floor.adaptive.point.server_power):
        capped = _outcome(lambda: measure(workload, power_cap=cap, **on_server()))
        walked = _outcome(lambda: measure_capped_linear(workload, cap, **on_server()))
        # Not ``assert capped == walked``: pytest's diff of two results
        # would render every settled field.
        same = capped == walked
        assert same, cap
    assert "below the floor" in walked


@pytest.mark.parametrize("backend", ["power7", "flexwatts"])
@pytest.mark.parametrize("mode", ["undervolt", "overclock"])
@pytest.mark.parametrize("workload, n_threads", FACADE_POINTS)
def test_sweep_search_matches_linear_walk(workload, n_threads, mode, backend):
    """``sweep(power_cap=)`` picks what its linear walk picked, and below
    the floor raises the same message."""
    config = ServerConfig(pdn_backend=backend)
    runner = SweepRunner(cache=OperatingPointCache())
    (task,) = core_scaling_tasks(
        get_profile(workload), GuardbandMode(mode), [n_threads]
    )
    floor_task = dataclasses.replace(task, f_target=cap_walk_frequencies(config)[-1])
    top, floor = runner.run_results([task, floor_task], config)
    for cap in _caps(top.adaptive.point.server_power, floor.adaptive.point.server_power):
        searched = _outcome(
            lambda: sweep(
                workload,
                mode=mode,
                core_counts=[n_threads],
                config=config,
                runner=runner,
                power_cap=cap,
            )[0]
        )
        walked = _outcome(lambda: sweep_capped_linear(runner, task, cap, config))
        same = searched == walked
        assert same, cap
    assert "below the floor" in walked


#: (PDN backend, age in years or None, die seed) of each checked server.
CHIPS = [
    ("power7", None, 7),
    ("power7", None, 11),
    ("power7", None, 19),
    ("flexwatts", None, 7),
    ("flexwatts", None, 11),
    ("flexwatts", None, 19),
    ("power7", 6.0, 11),
    ("flexwatts", 6.0, 7),
    ("flexwatts", 10.0, 19),
]


def _chip_config(backend, age_years) -> ServerConfig:
    server_config = ServerConfig(pdn_backend=backend)
    if age_years is not None:
        server_config = aged_server_config(server_config, AgingModel(), age_years)
    return server_config


def _chip_sim(backend, age_years, seed) -> FleetSimulation:
    return FleetSimulation(
        FleetConfig(
            n_servers=1,
            traffic=TrafficConfig(duration_seconds=3600.0, jobs_per_hour=10.0),
            seed=seed,
            server_config=_chip_config(backend, age_years),
        ),
        trace=(),
    )


def _assert_never_rises(menu, settles, halves=("static", "adaptive")):
    """Server power, uncapped then down ``menu``, never rises."""
    for half in halves:
        powers = [getattr(result, half).point.server_power for result in settles]
        rises = [
            (ceiling, before, after)
            for ceiling, before, after in zip(menu, powers, powers[1:])
            if after > before
        ]
        assert not rises, (half, rises)


#: A one-socket placement: socket 1 is fully gated and parks.
PARKED = Placement(
    groups=((ThreadGroup(get_profile("fft"), 5),), ()),
    keep_on=(5, 0),
    threads_per_core=1,
)


@pytest.mark.parametrize(
    "mode", [GuardbandMode.UNDERVOLT, GuardbandMode.OVERCLOCK]
)
@pytest.mark.parametrize(
    "backend, age_years, seed",
    CHIPS,
    ids=[f"{b}-{'new' if a is None else f'{a:g}y'}-seed{s}" for b, a, s in CHIPS],
)
class TestCeilingPrecondition:
    def test_power_never_rises_as_the_ceiling_drops(
        self, placement, mode, backend, age_years, seed
    ):
        sim = _chip_sim(backend, age_years, seed)
        menu = sim._cap_walk_frequencies()
        for where in (placement, PARKED):
            settles = [sim._settle(where, mode)] + [
                sim._settle(where, mode, frequency) for frequency in menu
            ]
            _assert_never_rises(menu, settles)

    @pytest.mark.parametrize("workload, n_threads", FACADE_POINTS)
    def test_consolidated_settles_never_rise(
        self, workload, n_threads, mode, backend, age_years, seed
    ):
        """The placements ``measure``/``sweep(power_cap=)`` cap: all
        threads on socket 0, socket 1 idle, settled by ``measure`` (one
        live server) and by the sweep runner (a fresh server per mode).
        ``measure``'s overclock half is not checked: it ignores its
        ceiling but starts from the thermal state the ceiling's static
        settle left, and its power rises once down the menu (by
        0.022–0.025 W), so ``measure`` keeps the linear walk until the
        overclock policy takes the ceiling."""
        config = _chip_config(backend, age_years)
        menu = cap_walk_frequencies(config)
        kwargs = dict(mode=mode, n_threads=n_threads, config=config, seed=seed)
        measured = [measure(workload, **kwargs)] + [
            measure(workload, f_target=frequency, **kwargs) for frequency in menu
        ]
        overclock = mode is GuardbandMode.OVERCLOCK
        _assert_never_rises(
            menu, measured, ("static",) if overclock else ("static", "adaptive")
        )
        (task,) = core_scaling_tasks(get_profile(workload), mode, [n_threads])
        swept = SweepRunner(cache=OperatingPointCache()).run_results(
            [task] + [dataclasses.replace(task, f_target=f) for f in menu],
            config,
            seed_root=seed,
        )
        _assert_never_rises(menu, swept)


#: Injected faults a capped ``measure`` may run under.
FAULT_PLANS = [
    FaultPlan(specs=(CpmNoiseFault(socket_id=0, amplitude_bits=4),), seed=3),
    FaultPlan(specs=(VrmDroopFault(socket_id=0, depth_volts=0.030),)),
    FaultPlan(specs=(LoadlineExcursionFault(socket_id=0, factor=2.0),)),
]


@pytest.mark.chaos
@pytest.mark.parametrize("mode", ["undervolt", "overclock"])
@pytest.mark.parametrize(
    "plan", FAULT_PLANS, ids=[plan.specs[0].kind for plan in FAULT_PLANS]
)
def test_faulted_capped_measure_fits_or_refuses(plan, mode, monkeypatch):
    """Under an injector nothing promises that power falls down the menu.
    Whatever a capped ``measure`` ends in is a settle that fits the cap
    (the uncapped one, or one at a menu ceiling) or the below-floor
    error naming the power of the last point it settled."""
    from repro import api

    capped_measure = api.measure
    probes = []

    def recording(workload, *, f_target=None, power_cap=None, **kwargs):
        result = capped_measure(
            workload, f_target=f_target, power_cap=power_cap, **kwargs
        )
        if power_cap is None:
            probes.append((f_target, result))
        return result

    # The capped call reaches its probes through the module's ``measure``.
    monkeypatch.setattr(api, "measure", recording)
    menu = cap_walk_frequencies(ServerConfig())
    kwargs = dict(mode=mode, n_threads=8, fault_plan=plan)
    top = capped_measure("raytrace", **kwargs).adaptive.point.server_power
    for fraction in (1.01, 0.97, 0.9, 0.8, 0.7, 0.5, 0.2):
        cap = top * fraction
        probes.clear()
        try:
            result = capped_measure("raytrace", power_cap=cap, **kwargs)
        except SchedulingError as error:
            ceiling, last = probes[-1]
            assert ceiling in (None, menu[-1])
            assert str(error) == (
                f"power cap of {cap:.1f} W is below the floor: even the "
                f"lowest DVFS point draws "
                f"{last.adaptive.point.server_power:.1f} W here"
            )
            continue
        assert result.adaptive.point.server_power <= cap, fraction
        (ceiling,) = [c for c, r in probes if r is result]
        assert ceiling is None or ceiling in menu


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", ["rack_power_budget", "rack_power_budget_crash"]
)
def test_served_throttles_never_rise_down_the_menu(name, monkeypatch):
    """The precondition on the traffic the rack scenarios really serve:
    for every (placement, mode) the engine throttles, adaptive server
    power never rises from the uncapped settle down the whole menu."""
    throttled = {}
    settle_capped = FleetSimulation._settle_capped

    def recording(sim, placement, mode, cap_w):
        result, was_throttled = settle_capped(sim, placement, mode, cap_w)
        if was_throttled:
            throttled.setdefault((sim._cfg_fp, placement, mode), sim)
        return result, was_throttled

    monkeypatch.setattr(FleetSimulation, "_settle_capped", recording)
    run_scenario(find_scenario(name), keep_events=False)
    assert throttled
    for (_, placement, mode), sim in throttled.items():
        settles = [sim._settle(placement, mode)] + [
            sim._settle(placement, mode, frequency)
            for frequency in sim._cap_walk_frequencies()
        ]
        powers = [result.adaptive.point.server_power for result in settles]
        rises = [
            (index, before, after)
            for index, (before, after) in enumerate(zip(powers, powers[1:]))
            if after > before
        ]
        assert not rises, (placement, mode, rises)


@pytest.mark.xfail(
    strict=True,
    reason="an overclock settle ignores f_target: OverclockPolicy.apply never "
    "receives the ceiling, so the adaptive half stays at its uncapped clock",
)
def test_overclock_adaptive_clock_follows_the_ceiling(placement):
    """Stepping the ceiling from the top of the menu to its floor must slow
    the adaptive overclock half, as it slows the static half."""
    sim = _chip_sim("power7", None, 7)
    menu = sim._cap_walk_frequencies()
    top, floor = (
        sim._settle(placement, GuardbandMode.OVERCLOCK, f) for f in (menu[0], menu[-1])
    )
    assert floor.static.point.server_power < top.static.point.server_power
    assert floor.adaptive.point.min_frequency < top.adaptive.point.min_frequency
