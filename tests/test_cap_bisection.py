"""`_settle_capped` bisection vs the reference linear DVFS walk.

The capped settle used to walk the DVFS table linearly from the top; it
now bisects (O(log n) settles per capped epoch).  Equivalence is not
obvious — the linear walk had a dynamic skip rule (candidates at or
above the current settle's slowest clock were passed over unprobed) and
a best-effort floor when nothing fits — so this suite sweeps caps across
the *entire* table for both adaptive guardband modes and demands the
exact same selected operating point, epoch for epoch.

Bisection is only sound if settled server power never rises as the
frequency ceiling steps down the menu.  Every probe's undervolt loop
starts from its own ``f_target`` static settle, so the precondition is
checked for both halves of every probe, across both PDN backends, aged
silicon and several die seeds.
"""

import pytest

from repro.chip.aging import AgingModel, aged_server_config
from repro.config import ServerConfig
from repro.fleet import FleetConfig, TrafficConfig
from repro.fleet.engine import FleetSimulation, clear_fleet_memos
from repro.fleet.settle_cache import configure_fleet_settle_cache
from repro.guardband import GuardbandMode
from repro.core.placement import Placement, ThreadGroup
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
        # 1 uncapped + ceil(log2(n)) probes + 1 cached re-settle.
        n = len(table)
        assert len(counted) <= 2 + n.bit_length()


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


def _chip_sim(backend, age_years, seed) -> FleetSimulation:
    server_config = ServerConfig(pdn_backend=backend)
    if age_years is not None:
        server_config = aged_server_config(server_config, AgingModel(), age_years)
    return FleetSimulation(
        FleetConfig(
            n_servers=1,
            traffic=TrafficConfig(duration_seconds=3600.0, jobs_per_hour=10.0),
            seed=seed,
            server_config=server_config,
        ),
        trace=(),
    )


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
            for half in ("static", "adaptive"):
                powers = [
                    getattr(result, half).point.server_power for result in settles
                ]
                rises = [
                    (ceiling, before, after)
                    for ceiling, before, after in zip(menu, powers, powers[1:])
                    if after > before
                ]
                assert not rises, (half, rises)


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
