"""Guardband controller facade: one entry point for the three policies.

The hooks in the real firmware let the experimenters place the system in
either adaptive mode, or disable adaptive guardbanding altogether
(Sec. 3.1).  :class:`GuardbandController` is that switch for the simulator:
construct it over a :class:`~repro.sim.socket.ProcessorSocket`, pick a
:class:`GuardbandMode`, call :meth:`operate`.

Graceful degradation
--------------------
Real firmware only trusts CPM telemetry it can corroborate.  While a
fault injector is installed (see :mod:`repro.faults`), every adaptive
``operate`` is *policed*: the settled point's CPM codes are read through
the (possibly corrupted) telemetry path and judged against the codes the
clean electrical model predicts by a
:class:`~repro.faults.gate.CpmPlausibilityGate`.  An implausible reading
— or an injected calibration failure — drops the socket into **static
fallback**: adaptive requests are served with the full static guardband
until the telemetry has looked healthy for ``rearm_healthy_operates``
consecutive operates (hysteresis), after which adaptive mode re-arms.
With no injector installed none of this machinery runs, keeping the
fault-free path bit-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..config import ServerConfig
from ..errors import CalibrationError
from ..faults.gate import CpmPlausibilityGate, GateVerdict
from ..faults.injector import fault_injector
from ..obs import DEFAULT_COUNT_BUCKETS, observability
from ..telemetry.cpm_reader import CpmReader, CpmReadMode
from .calibration import calibrate_socket

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..sim.socket import ProcessorSocket, SocketSolution
from .overclock import OverclockPolicy
from .static import StaticGuardbandPolicy
from .undervolt import UndervoltPolicy, UndervoltResult


class GuardbandMode(enum.Enum):
    """Operating mode of the guardband management firmware."""

    #: Traditional fixed guardband (adaptive features disabled).
    STATIC = "static"

    #: Adaptive guardbanding converting headroom into power savings.
    UNDERVOLT = "undervolt"

    #: Adaptive guardbanding converting headroom into clock frequency.
    OVERCLOCK = "overclock"


@dataclass(frozen=True)
class OperatingPoint:
    """Outcome of operating one socket in one mode."""

    mode: GuardbandMode
    solution: SocketSolution

    #: VRM setpoint in effect (V).
    setpoint: float

    #: Voltage removed vs. the static rail (V; zero outside undervolt mode).
    undervolt: float

    @property
    def chip_power(self) -> float:
        """Settled socket power (W)."""
        return self.solution.chip_power

    @property
    def frequency(self) -> float:
        """Settled mean core clock (Hz)."""
        return self.solution.mean_frequency


class GuardbandController:
    """Mode dispatch plus one-time calibration for a socket.

    ``rearm_healthy_operates`` sets the fallback hysteresis: how many
    consecutive healthy plausibility probes the firmware demands before
    re-arming adaptive mode after a fallback.
    """

    #: Default fallback hysteresis (consecutive healthy probes).
    REARM_HEALTHY_OPERATES = 3

    def __init__(
        self,
        socket: ProcessorSocket,
        config: Optional[ServerConfig] = None,
        rearm_healthy_operates: int = REARM_HEALTHY_OPERATES,
    ) -> None:
        if rearm_healthy_operates < 1:
            raise ValueError(
                f"rearm_healthy_operates must be >= 1, "
                f"got {rearm_healthy_operates}"
            )
        self.socket = socket
        self.config = config or socket.config
        self.static_policy = StaticGuardbandPolicy(self.config)
        self.undervolt_policy = UndervoltPolicy(self.config)
        self.overclock_policy = OverclockPolicy(self.config)
        self._calibrated = False
        #: Why the socket is serving the static guardband instead of the
        #: requested adaptive mode (``None`` = adaptive armed).
        self.fallback_reason: Optional[str] = None
        self._healthy_streak = 0
        self._rearm_operates = rearm_healthy_operates
        self._reader: Optional[CpmReader] = None
        self._gate: Optional[CpmPlausibilityGate] = None

    def calibrate(self) -> float:
        """Run CPM calibration once; returns the calibrated margin (V)."""
        margin = calibrate_socket(
            self.socket.chip,
            self.config.guardband,
            socket_id=self.socket.socket_id,
        )
        self._calibrated = True
        return margin

    @property
    def in_fallback(self) -> bool:
        """Whether the socket is pinned to the static guardband."""
        return self.fallback_reason is not None

    def operate(
        self,
        mode: GuardbandMode,
        f_target: Optional[float] = None,
        entry: Optional[SocketSolution] = None,
    ) -> OperatingPoint:
        """Place the socket in ``mode`` and settle its operating point.

        ``entry`` (undervolt only) is the socket's static settle at the
        same ``f_target`` from the same fresh state; the firmware loop
        starts from it (see :meth:`UndervoltPolicy.converge`).  Only the
        fault-free path takes it: with an injector installed, fallback
        and calibration state carry across operates, so a guarded
        settle never starts from another operate's solution.
        """
        if not fault_injector().enabled:
            # Fault-free fast path: the exact pre-degradation behavior
            # (and arithmetic) — the zero-perturbation contract.
            if not self._calibrated:
                self.calibrate()
            return self._operate_mode(mode, f_target, entry)
        if entry is not None:
            raise ValueError(
                "entry= is fault-free only: a guarded operate settles "
                "every mode from its own state"
            )
        return self._operate_guarded(mode, f_target)

    # ------------------------------------------------------------------
    # Mode dispatch (shared by both paths)
    # ------------------------------------------------------------------
    def _operate_mode(
        self,
        mode: GuardbandMode,
        f_target: Optional[float],
        entry: Optional[SocketSolution] = None,
    ) -> OperatingPoint:
        if entry is not None and mode is not GuardbandMode.UNDERVOLT:
            raise ValueError(f"entry= applies to undervolt only, not {mode!r}")
        observability().count(
            "guardband_operate_total",
            help_text="Socket settle requests by guardband mode.",
            mode=getattr(mode, "value", str(mode)),
        )
        if mode is GuardbandMode.STATIC:
            solution = self.static_policy.apply(self.socket, f_target)
            return OperatingPoint(
                mode=mode,
                solution=solution,
                setpoint=self.socket.path.setpoint,
                undervolt=0.0,
            )
        if mode is GuardbandMode.UNDERVOLT:
            result: UndervoltResult = self.undervolt_policy.converge(
                self.socket, f_target, entry
            )
            self._record_settle(result)
            return OperatingPoint(
                mode=mode,
                solution=result.solution,
                setpoint=result.setpoint,
                undervolt=result.undervolt,
            )
        if mode is GuardbandMode.OVERCLOCK:
            solution = self.overclock_policy.apply(self.socket)
            return OperatingPoint(
                mode=mode,
                solution=solution,
                setpoint=self.socket.path.setpoint,
                undervolt=0.0,
            )
        raise ValueError(f"unknown guardband mode: {mode!r}")

    # ------------------------------------------------------------------
    # Guarded operation (fault injector installed)
    # ------------------------------------------------------------------
    def _operate_guarded(
        self, mode: GuardbandMode, f_target: Optional[float]
    ) -> OperatingPoint:
        if not self._calibrated:
            try:
                self.calibrate()
            except CalibrationError:
                # A socket whose CPMs cannot calibrate must never run
                # adaptive; retry on later operates (the fault may clear).
                self._enter_fallback("calibration_failed")
        if self.in_fallback:
            return self._operate_fallen_back(mode, f_target)
        point = self._operate_mode(mode, f_target)
        if mode is GuardbandMode.STATIC:
            return point
        verdict = self._probe(point)
        if verdict.healthy:
            return point
        self._enter_fallback(verdict.reason)
        return self._operate_mode(GuardbandMode.STATIC, f_target)

    def _operate_fallen_back(
        self, mode: GuardbandMode, f_target: Optional[float]
    ) -> OperatingPoint:
        """Serve the static guardband; probe health toward re-arming."""
        point = self._operate_mode(GuardbandMode.STATIC, f_target)
        if mode is GuardbandMode.STATIC or not self._calibrated:
            return point
        if not self._probe(point).healthy:
            self._healthy_streak = 0
            return point
        self._healthy_streak += 1
        if self._healthy_streak < self._rearm_operates:
            return point
        # Hysteresis satisfied: re-arm, but police the first adaptive
        # point immediately — corruption that resumed mid-streak sends
        # the socket straight back.
        self._exit_fallback()
        adaptive = self._operate_mode(mode, f_target)
        verdict = self._probe(adaptive)
        if verdict.healthy:
            return adaptive
        self._enter_fallback(verdict.reason)
        return self._operate_mode(GuardbandMode.STATIC, f_target)

    def _probe(self, point: OperatingPoint) -> GateVerdict:
        """Judge the telemetry path's codes against the clean model's."""
        chip = self.socket.chip
        solution = point.solution
        observed = self._cpm_reader().worst_codes(
            solution, CpmReadMode.SAMPLE
        )
        expected = []
        for core_id in range(chip.n_cores):
            frequency = solution.frequencies[core_id]
            margin = chip.timing.margin(
                solution.core_voltages[core_id], frequency
            )
            expected.append(
                chip.cpm_bank.worst_code(core_id, margin, frequency)
            )
        return self._plausibility_gate().judge(observed, expected)

    def _cpm_reader(self) -> CpmReader:
        if self._reader is None:
            self._reader = CpmReader(self.socket)
        return self._reader

    def _plausibility_gate(self) -> CpmPlausibilityGate:
        if self._gate is None:
            self._gate = CpmPlausibilityGate(
                code_max=self.socket.chip.config.cpm_code_max
            )
        return self._gate

    def _enter_fallback(self, reason: str) -> None:
        if self.in_fallback:
            return
        self.fallback_reason = reason
        self._healthy_streak = 0
        self._record_transition("enter", reason)

    def _exit_fallback(self) -> None:
        if not self.in_fallback:
            return
        self._record_transition("exit", self.fallback_reason)
        self.fallback_reason = None
        self._healthy_streak = 0

    def _record_transition(self, direction: str, reason: str) -> None:
        observability().count(
            "fallback_transitions_total",
            help_text=(
                "Static-guardband fallback transitions by layer "
                "(guardband = per-socket controller, fleet = engine)."
            ),
            direction=direction,
            layer="guardband",
            reason=reason,
        )

    @staticmethod
    def _record_settle(result: UndervoltResult) -> None:
        """Observe one converged 32 ms firmware loop (read-only)."""
        obs = observability()
        if not obs.enabled:
            return
        obs.observe(
            "guardband_settle_ticks",
            result.ticks,
            help_text="32 ms firmware ticks to undervolt convergence.",
            buckets=DEFAULT_COUNT_BUCKETS,
        )
        obs.observe(
            "guardband_undervolt_mv",
            result.undervolt * 1000.0,
            help_text="Converged undervolt depth (mV).",
            buckets=(10.0, 20.0, 40.0, 60.0, 80.0, 100.0, 150.0, 200.0),
        )
