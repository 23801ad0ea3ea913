"""Fault-free settled points do not depend on the die seed.

Calibration anchors every critical-path monitor at the calibration point
(Sec. 2.2), and the fault-free firmware loop then works from the
calibrated margin, not from raw CPM codes.  So two dies drawn from
different seeds settle the same placement, mode and ``f_target`` to
``==`` operating points.  Every sweep point key and fleet settle key
still carries the seed; this property is the precondition for dropping
it there.  Cases span profiles, consolidated, borrowed (split across the
sockets) and gated placements, all three guardband modes, the cap-walk
menu's ``f_target``s, both PDN backends and aged silicon.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chip.aging import AgingModel, aged_server_config
from repro.config import ServerConfig
from repro.guardband import GuardbandMode
from repro.guardband.capping import cap_walk_frequencies
from repro.pdn.backends import backend_names
from repro.sim.batch import SweepTask, _settle_mode
from repro.sim.run import build_server
from repro.workloads import get_profile, profile_names

pytestmark = pytest.mark.slow

CORES = ServerConfig().chip.n_cores


@st.composite
def cases(draw):
    backend = draw(st.sampled_from(backend_names()))
    config = ServerConfig(pdn_backend=backend)
    age_years = draw(st.none() | st.sampled_from((2.0, 6.0, 10.0)))
    if age_years is not None:
        config = aged_server_config(config, AgingModel(), age_years)
    mode = draw(st.sampled_from(tuple(GuardbandMode)))
    f_target = draw(st.none() | st.sampled_from(cap_walk_frequencies(config)))
    profile = get_profile(draw(st.sampled_from(profile_names())))
    kind = draw(st.sampled_from(("consolidated", "borrowed", "gated")))
    if kind == "consolidated":
        n_threads = draw(st.integers(1, CORES))
        task = SweepTask.consolidated(profile, n_threads, mode, f_target=f_target)
    else:
        share = (draw(st.integers(1, CORES)), draw(st.integers(1, CORES)))
        keep_on = None
        if kind == "gated":
            keep_on = tuple(draw(st.integers(n, CORES)) for n in share)
        task = SweepTask.placement(
            profile, share, mode, keep_on=keep_on, f_target=f_target
        )
    seeds = draw(
        st.lists(
            st.integers(0, 10_000), min_size=2, max_size=2, unique=True
        )
    )
    return config, task, mode, seeds


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
def test_fault_free_settles_equal_across_die_seeds(case):
    config, task, mode, (seed_a, seed_b) = case
    first = _settle_mode(config, seed_a, task, mode)
    second = _settle_mode(config, seed_b, task, mode)
    assert first == second


@pytest.mark.parametrize("mode", tuple(GuardbandMode), ids=lambda m: m.value)
@pytest.mark.parametrize("backend", backend_names())
def test_every_mode_and_backend_at_the_cap_floor(mode, backend):
    """One fixed case per mode and backend, at the menu's slowest step,
    so each is covered whatever hypothesis draws."""
    config = ServerConfig(pdn_backend=backend)
    floor = cap_walk_frequencies(config)[-1]
    task = SweepTask.placement(
        get_profile("raytrace"), (3, 2), mode, keep_on=(4, 4), f_target=floor
    )
    seeds = (7, 11, 19)
    # The dies do differ: each seed draws its own CPM sensitivities.
    sensitivities = {
        tuple(
            cpm.volts_per_bit(floor)
            for cpm in build_server(config, seed).sockets[0].chip.cpm_bank.all_cpms()
        )
        for seed in seeds
    }
    assert len(sensitivities) == len(seeds)
    settled = [_settle_mode(config, seed, task, mode) for seed in seeds]
    assert settled[0] == settled[1] == settled[2]
