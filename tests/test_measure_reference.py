"""``measure()`` against the per-variant procedures it replaced, to the bit.

``measure()`` builds a :class:`~repro.sim.batch.SweepTask` and realizes it
with :func:`~repro.sim.batch.settle_task` — the routine the sweep runner
settles its fresh servers with.  Before that, the facade carried its own
realization of each variant.  This module keeps those as the reference:
``_measure_consolidated``, ``_measure_share``, ``_measure_schedule`` and
``_steady_state`` copied verbatim, plus the facade's dispatch onto them.
Every comparison is an exact ``==`` on the whole
:class:`~repro.sim.results.RunResult`: both operating points, execution
times, active frequencies and core counts.
"""

from typing import Optional, Sequence

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import measure
from repro.config import ServerConfig
from repro.core.evaluate import apply_with_contention
from repro.core.placement import Placement, ThreadGroup
from repro.errors import SchedulingError
from repro.guardband import GuardbandMode
from repro.sim.results import RunResult, SteadyState, active_mean_frequency
from repro.sim.server import Power720Server, ServerOperatingPoint
from repro.workloads import get_profile
from repro.workloads.profile import WorkloadProfile
from repro.workloads.scaling import RuntimeModel, SocketShare


# ----------------------------------------------------------------------
# The reference: the facade's former variant implementations, verbatim
# ----------------------------------------------------------------------
def reference_measure(
    workload,
    *,
    mode=GuardbandMode.UNDERVOLT,
    n_threads=1,
    placement=None,
    schedule=None,
    keep_on=None,
    threads_per_core=1,
    server=None,
    config=None,
    seed=7,
    runtime_model=None,
    f_target=None,
) -> RunResult:
    """The former ``measure()`` dispatch (no fault plan, no power cap)."""
    profile = (
        workload
        if isinstance(workload, WorkloadProfile)
        else get_profile(workload)
    )
    guardband_mode = GuardbandMode(mode)
    if placement is not None and schedule is not None:
        raise SchedulingError(
            "measure() takes placement= or schedule=, not both"
        )
    box = server if server is not None else Power720Server(config=config, seed=seed)
    runtime = runtime_model or RuntimeModel()

    if schedule is not None:
        return _measure_schedule(
            box, schedule, profile, guardband_mode, runtime, f_target
        )
    if placement is not None:
        share = (
            placement
            if isinstance(placement, SocketShare)
            else SocketShare(tuple(placement))
        )
        return _measure_share(
            box,
            profile,
            share,
            guardband_mode,
            keep_on,
            threads_per_core,
            runtime,
            f_target,
        )
    if keep_on is not None:
        raise SchedulingError(
            "keep_on= only applies to the placement= variant"
        )
    return _measure_consolidated(
        box, profile, n_threads, guardband_mode, threads_per_core, runtime,
        f_target,
    )


def _measure_consolidated(
    server: Power720Server,
    profile: WorkloadProfile,
    n_threads: int,
    mode: GuardbandMode,
    threads_per_core: int,
    runtime: RuntimeModel,
    f_target: Optional[float],
) -> RunResult:
    server.clear()
    server.place(0, profile, n_threads, threads_per_core=threads_per_core)
    share = SocketShare.consolidated(n_threads, server.n_sockets)
    n_active = server.sockets[0].chip.n_active_cores()

    static_point = server.operate(GuardbandMode.STATIC, f_target)
    static_state = _steady_state(
        server, profile, share, GuardbandMode.STATIC, n_active, static_point,
        runtime,
    )
    adaptive_point = server.operate(mode, f_target)
    adaptive_state = _steady_state(
        server, profile, share, mode, n_active, adaptive_point, runtime
    )
    return RunResult(
        profile=profile,
        n_active_cores=n_active,
        static=static_state,
        adaptive=adaptive_state,
    )


def _measure_share(
    server: Power720Server,
    profile: WorkloadProfile,
    share: SocketShare,
    mode: GuardbandMode,
    keep_on: Optional[Sequence[int]],
    threads_per_core: int,
    runtime: RuntimeModel,
    f_target: Optional[float],
) -> RunResult:
    server.clear()
    for sid, n_threads in enumerate(share.threads_per_socket):
        if n_threads:
            server.place(
                sid, profile, n_threads, threads_per_core=threads_per_core
            )
    if keep_on is not None:
        server.gate_unused(keep_on)
    n_active = sum(s.chip.n_active_cores() for s in server.sockets)

    static_point = server.operate(GuardbandMode.STATIC, f_target)
    static_state = _steady_state(
        server, profile, share, GuardbandMode.STATIC, n_active, static_point,
        runtime,
    )
    adaptive_point = server.operate(mode, f_target)
    adaptive_state = _steady_state(
        server, profile, share, mode, n_active, adaptive_point, runtime
    )
    return RunResult(
        profile=profile,
        n_active_cores=n_active,
        static=static_state,
        adaptive=adaptive_state,
    )


def _measure_schedule(
    server: Power720Server,
    schedule: Placement,
    profile: WorkloadProfile,
    mode: GuardbandMode,
    runtime: RuntimeModel,
    f_target: Optional[float],
) -> RunResult:
    apply_with_contention(server, schedule, runtime)
    share = schedule.share_of(profile.name)
    n_active = sum(s.chip.n_active_cores() for s in server.sockets)

    states = {}
    for measured_mode in (GuardbandMode.STATIC, mode):
        point = server.operate(measured_mode, f_target)
        frequency = active_mean_frequency(point)
        execution_time = runtime.execution_time(
            profile,
            share,
            frequency=frequency,
            reference_frequency=server.config.chip.f_nominal,
            threads_per_core=schedule.threads_per_core,
        )
        states[measured_mode] = SteadyState(
            workload=profile.name,
            mode=measured_mode,
            n_active_cores=n_active,
            point=point,
            execution_time=execution_time,
            active_frequency=frequency,
        )
    return RunResult(
        profile=profile,
        n_active_cores=n_active,
        static=states[GuardbandMode.STATIC],
        adaptive=states[mode],
    )



def _steady_state(
    server: Power720Server,
    profile: WorkloadProfile,
    share: SocketShare,
    mode: GuardbandMode,
    n_active: int,
    point: ServerOperatingPoint,
    runtime: RuntimeModel,
) -> SteadyState:
    """Wrap an operating point with runtime estimate and active frequency."""
    frequency = active_mean_frequency(point)
    execution_time = runtime.execution_time(
        profile,
        share,
        frequency=frequency,
        reference_frequency=server.config.chip.f_nominal,
    )
    return SteadyState(
        workload=profile.name,
        mode=mode,
        n_active_cores=n_active,
        point=point,
        execution_time=execution_time,
        active_frequency=frequency,
    )


# ----------------------------------------------------------------------
# Draws
# ----------------------------------------------------------------------
WORKLOADS = ("raytrace", "lu_cb", "fft", "mcf")
MODES = tuple(GuardbandMode)
N_CORES = 8


@st.composite
def calls(draw):
    """Keyword arguments of one valid ``measure()`` call (server aside)."""
    workload = draw(st.sampled_from(WORKLOADS))
    kwargs = dict(
        mode=draw(st.sampled_from(MODES)),
        f_target=draw(st.sampled_from((None, 3.0e9, 3.6e9, 4.2e9))),
        runtime_model=draw(
            st.sampled_from(
                (
                    None,
                    RuntimeModel(),
                    RuntimeModel(socket_bandwidth=40.0, cross_socket_penalty=0.2),
                )
            )
        ),
    )
    tpc = draw(st.sampled_from((1, 2, 4)))
    variant = draw(st.sampled_from(("consolidated", "placement", "schedule")))
    if variant == "consolidated":
        kwargs.update(
            n_threads=draw(st.integers(1, N_CORES * tpc)), threads_per_core=tpc
        )
    elif variant == "placement":
        share = draw(
            st.tuples(st.integers(0, N_CORES * tpc), st.integers(0, N_CORES * tpc))
            .filter(lambda s: sum(s) > 0)
        )
        keep_on = draw(
            st.one_of(
                st.none(),
                st.tuples(
                    *(
                        st.integers(-(-threads // tpc), N_CORES)
                        for threads in share
                    )
                ),
            )
        )
        if draw(st.booleans()):
            share = SocketShare(share)
        kwargs.update(placement=share, keep_on=keep_on, threads_per_core=tpc)
    else:
        profile = get_profile(workload)
        co_runner = get_profile(draw(st.sampled_from(WORKLOADS)))
        groups = []
        for _ in range(2):
            socket_groups = []
            own = draw(st.integers(0, 4 * tpc))
            if own:
                socket_groups.append(ThreadGroup(profile, own))
            other = draw(st.integers(0, 2 * tpc))
            if other and co_runner.name != profile.name:
                socket_groups.append(ThreadGroup(co_runner, other))
            groups.append(tuple(socket_groups))
        if not any(g.profile is profile for socket in groups for g in socket):
            groups[0] = (ThreadGroup(profile, 1),) + groups[0]
        # Gate down to the cores the groups can need, or not at all.
        needed = tuple(sum(-(-g.n_threads // tpc) for g in s) for s in groups)
        keep_on = draw(st.sampled_from((None, needed)))
        kwargs.update(
            schedule=Placement(
                groups=tuple(groups), keep_on=keep_on, threads_per_core=tpc
            )
        )
    return workload, kwargs


SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
class TestMeasureMatchesReference:
    @SETTINGS
    @given(
        call=calls(),
        seed=st.integers(0, 50),
        backend=st.sampled_from(("power7", "flexwatts")),
    )
    def test_fresh_server(self, call, seed, backend):
        workload, kwargs = call
        config = ServerConfig(pdn_backend=backend)
        ours = measure(workload, config=config, seed=seed, **kwargs)
        theirs = reference_measure(workload, config=config, seed=seed, **kwargs)
        assert ours == theirs

    @SETTINGS
    @given(
        sequence=st.lists(calls(), min_size=2, max_size=4),
        seed=st.integers(0, 50),
        backend=st.sampled_from(("power7", "flexwatts")),
    )
    def test_one_server_across_calls(self, sequence, seed, backend):
        """A reused server carries thermal state from call to call."""
        config = ServerConfig(pdn_backend=backend)
        mine = Power720Server(config=config, seed=seed)
        ref = Power720Server(config=config, seed=seed)
        for workload, kwargs in sequence:
            ours = measure(workload, server=mine, **kwargs)
            theirs = reference_measure(workload, server=ref, **kwargs)
            assert ours == theirs

    def test_static_mode_settles_twice(self):
        """``mode="static"`` keeps the facade's two settles per call."""
        result = measure("raytrace", n_threads=4, mode="static")
        assert result == reference_measure("raytrace", n_threads=4, mode="static")
        assert result.static != result.adaptive
