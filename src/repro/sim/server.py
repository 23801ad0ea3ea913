"""The two-socket Power 720-class server model.

:class:`Power720Server` wires together the full platform: one VRM chip with
a rail per socket, one die and delivery path per socket, and a guardband
controller per socket.  It owns thread placement — the interface the AGS
schedulers in :mod:`repro.core` drive — and exposes whole-server operating
points (sum of both sockets plus the constant peripheral power).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

from ..chip import Power7Chip
from ..config import ServerConfig
from ..errors import SchedulingError
from ..faults.injector import fault_injector
from ..guardband import GuardbandController, GuardbandMode
from ..guardband.controller import OperatingPoint
from ..pdn import DidtNoiseModel
from ..pdn.backends import get_backend
from ..workloads.profile import WorkloadProfile
from .socket import ProcessorSocket


@dataclass(frozen=True)
class ServerOperatingPoint:
    """Settled state of the whole server in one guardband mode."""

    mode: GuardbandMode
    sockets: tuple

    #: Constant peripheral power (W) included in :attr:`server_power`.
    peripheral_power: float

    # Cached: a settled point is immutable and the fleet engine reads its
    # power several times per epoch.  Only fields are encoded, compared
    # and hashed, so the cache never reaches a settle-cache entry.
    @cached_property
    def chip_power(self) -> float:
        """Total Vdd power of all sockets (W) — the paper's primary metric."""
        return sum(p.chip_power for p in self.sockets)

    @cached_property
    def server_power(self) -> float:
        """Chip power plus peripherals (W)."""
        return self.chip_power + self.peripheral_power

    @property
    def min_frequency(self) -> float:
        """Slowest active-core clock across sockets (Hz).

        Only cores that were running threads when the point settled count:
        idle and power-gated cores may sit at unrelated clocks (an idle
        socket's DPLLs park at whatever the last mode programmed) and must
        not drag the reported pace of the running workload down.  When the
        whole server is idle there is no active core, so the minimum is
        taken over every core instead.
        """
        active = []
        everything = []
        for point in self.sockets:
            solution = point.solution
            everything.extend(solution.frequencies)
            active.extend(
                solution.frequencies[i] for i in solution.active_core_ids
            )
        return min(active) if active else min(everything)

    def socket_point(self, socket_id: int) -> OperatingPoint:
        """The operating point of one socket."""
        return self.sockets[socket_id]


class Power720Server:
    """Two POWER7+ sockets behind one multi-rail VRM."""

    def __init__(self, config: Optional[ServerConfig] = None, seed: int = 7) -> None:
        self.config = config or ServerConfig()
        #: Die seed the sockets were built with.  Recorded so measurement
        #: layers (e.g. the batch sweep runner) can rebuild an electrically
        #: identical server and return bit-identical operating points.
        self.seed = seed
        #: Socket solves made on this server, keyed by their inputs
        #: (:meth:`ProcessorSocket._inputs`): every fault-free
        #: :meth:`operate` hands it to the sockets, so a solve repeated
        #: in a later operate is taken, not iterated.  Servers built from
        #: one config and die seed may share one dict (a sweep batch's
        #: servers do, see :func:`repro.sim.batch._execute_task`).
        self.solves: dict = {}
        backend = get_backend(self.config.pdn_backend)
        self.vrm = backend.build_vrm(
            self.config.pdn, n_rails=self.config.n_sockets
        )
        self.sockets: List[ProcessorSocket] = []
        self.controllers: List[GuardbandController] = []
        self._thread_profiles: Dict[int, List[WorkloadProfile]] = {}
        for sid in range(self.config.n_sockets):
            chip = Power7Chip(self.config.chip, seed=seed + sid)
            path = backend.build_path(
                self.config.pdn, chip.floorplan, self.vrm, rail=sid
            )
            socket = ProcessorSocket(chip, path, self.config, socket_id=sid)
            self.sockets.append(socket)
            self.controllers.append(GuardbandController(socket, self.config))
            self._thread_profiles[sid] = []

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    @property
    def n_sockets(self) -> int:
        """Number of processor sockets."""
        return self.config.n_sockets

    def clear(self) -> None:
        """Evict every thread, wake every gated core, reset noise scaling."""
        for socket in self.sockets:
            socket.chip.ungate_all()
            socket.chip.clear_threads()
        for sid in self._thread_profiles:
            self._thread_profiles[sid] = []
            self._refresh_noise(sid)

    def place(
        self,
        socket_id: int,
        profile: WorkloadProfile,
        n_threads: int,
        threads_per_core: int = 1,
    ) -> None:
        """Place ``n_threads`` of ``profile`` on one socket.

        Threads fill cores in floorplan order (core 0 upward), stacking up
        to ``threads_per_core`` SMT threads on a core before moving on —
        the same successive-activation order the paper uses (Sec. 4.2).
        """
        self._check_socket(socket_id)
        if n_threads < 0:
            raise SchedulingError(f"n_threads must be >= 0, got {n_threads}")
        if n_threads == 0:
            return
        chip = self.sockets[socket_id].chip
        if threads_per_core < 1 or threads_per_core > chip.config.smt_ways:
            raise SchedulingError(
                f"threads_per_core must be in [1, {chip.config.smt_ways}], "
                f"got {threads_per_core}"
            )
        placed = 0
        for core in chip.cores:
            while (
                placed < n_threads
                and not core.gated
                and core.n_threads < threads_per_core
                and core.free_slots > 0
            ):
                core.place(profile.thread())
                self._thread_profiles[socket_id].append(profile)
                placed += 1
            if placed == n_threads:
                break
        if placed < n_threads:
            raise SchedulingError(
                f"socket {socket_id} cannot host {n_threads} thread(s) at "
                f"{threads_per_core} per core ({placed} placed)"
            )
        self._refresh_noise(socket_id)

    def place_per_core(
        self, socket_id: int, profiles: Sequence[WorkloadProfile]
    ) -> None:
        """Place one thread of each profile on consecutive cores.

        Used by the colocation experiments (Fig. 15): ``profiles[i]`` lands
        on core ``i`` of the socket.

        Enforces the same invariants as :meth:`place`: a power-gated core
        cannot host a thread and a core without a free SMT slot cannot take
        another.  Violations raise :class:`SchedulingError` before any
        thread is placed, so a rejected call leaves the server untouched.
        """
        self._check_socket(socket_id)
        chip = self.sockets[socket_id].chip
        if len(profiles) > chip.n_cores:
            raise SchedulingError(
                f"{len(profiles)} profiles exceed {chip.n_cores} cores"
            )
        for core_id in range(len(profiles)):
            core = chip.cores[core_id]
            if core.gated:
                raise SchedulingError(
                    f"cannot place on power-gated core {core_id} of "
                    f"socket {socket_id}"
                )
            if core.free_slots < 1:
                raise SchedulingError(
                    f"core {core_id} of socket {socket_id} has no free "
                    f"SMT slot ({core.n_threads}/{chip.config.smt_ways} "
                    f"occupied)"
                )
        for core_id, profile in enumerate(profiles):
            chip.cores[core_id].place(profile.thread())
            self._thread_profiles[socket_id].append(profile)
        self._refresh_noise(socket_id)

    def gate_unused(self, keep_on: Sequence[int]) -> None:
        """Gate empty cores, keeping ``keep_on[s]`` powered on per socket."""
        if len(keep_on) != self.n_sockets:
            raise SchedulingError(
                f"keep_on needs {self.n_sockets} entries, got {len(keep_on)}"
            )
        for socket, count in zip(self.sockets, keep_on):
            socket.chip.gate_unused(count)

    def placed_profiles(self, socket_id: int) -> List[WorkloadProfile]:
        """Profiles of the threads currently placed on one socket."""
        self._check_socket(socket_id)
        return list(self._thread_profiles[socket_id])

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def operate(
        self,
        mode: GuardbandMode,
        f_target: Optional[float] = None,
        entry: Optional[ServerOperatingPoint] = None,
    ) -> ServerOperatingPoint:
        """Settle every socket in ``mode`` and aggregate the result.

        ``entry`` (undervolt only, fault-free only) is the static point
        this server settled at the same ``f_target`` straight after
        being built and placed: each socket's firmware loop starts from
        its static solution instead of solving it again.

        A fault-free operate hands :attr:`solves` to the sockets for the
        call (:attr:`ProcessorSocket.solves`), so a socket whose solve
        inputs equal one already made takes it instead of iterating.
        Under a fault injector there is no memo: its hooks count per call
        and target single rails.
        """
        if entry is None:
            entries = (None,) * len(self.controllers)
        elif entry.mode is GuardbandMode.STATIC:
            entries = tuple(point.solution for point in entry.sockets)
        else:
            raise ValueError(f"entry= must be a static point, not {entry.mode!r}")
        solves = None if fault_injector().enabled else self.solves
        for socket in self.sockets:
            socket.solves = solves
        try:
            points = tuple(
                controller.operate(mode, f_target, solution)
                for controller, solution in zip(self.controllers, entries)
            )
        finally:
            for socket in self.sockets:
                socket.solves = None
        return ServerOperatingPoint(
            mode=mode,
            sockets=points,
            peripheral_power=self.config.peripheral_power,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _refresh_noise(self, socket_id: int) -> None:
        """Re-scale the socket's di/dt model to its thread mix.

        Ripple/droop scales are thread-weighted means of the placed
        workloads' traits; an empty socket reverts to the platform default.
        """
        profiles = self._thread_profiles[socket_id]
        path = self.sockets[socket_id].path
        if not profiles:
            path.set_noise(DidtNoiseModel(self.config.pdn.didt))
            return
        ripple = sum(p.ripple_scale for p in profiles) / len(profiles)
        droop = sum(p.droop_scale for p in profiles) / len(profiles)
        path.set_noise(
            DidtNoiseModel(self.config.pdn.didt, ripple_scale=ripple, droop_scale=droop)
        )

    def _check_socket(self, socket_id: int) -> None:
        if not 0 <= socket_id < self.n_sockets:
            raise SchedulingError(
                f"socket_id must be in [0, {self.n_sockets}), got {socket_id}"
            )
