"""Composable fault specifications.

Each spec is a small frozen dataclass describing *one* failure mode, a
*target* (socket, rail, server or job) and an *activity window* in
simulated seconds.  A :class:`~repro.faults.plan.FaultPlan` composes any
number of them; the :class:`~repro.faults.injector.FaultInjector` applies
the standalone ones (``server_id is None``) to the measure-path hooks,
while the fleet engine consumes the server-scoped ones directly as
discrete events.

The taxonomy mirrors what field reports of sub-nominal-margin operation
identify as first-order risks (see ``docs/RESILIENCE.md``):

* **telemetry** — stuck / noisy / dropped CPM codes, stale windows;
* **power delivery** — VRM droop steps and loadline excursions;
* **firmware** — calibration failures;
* **infrastructure** — server crashes and job kills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

from ..errors import FaultError


@dataclass(frozen=True)
class FaultSpec:
    """One failure mode over one activity window.

    ``start_seconds`` is when the fault begins; ``duration_seconds`` is
    how long it persists (``None`` = until the end of the run).  Subclass
    fields name the target; all fields are defaulted so subclasses can
    extend the frozen base without ordering constraints.
    """

    #: Stable kind tag (used by metrics labels and event-log entries).
    kind: ClassVar[str] = "fault"

    start_seconds: float = 0.0
    duration_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start_seconds) and self.start_seconds >= 0):
            raise FaultError(
                f"{type(self).__name__}: start_seconds must be finite and "
                f">= 0, got {self.start_seconds}"
            )
        if self.duration_seconds is not None and not (
            math.isfinite(self.duration_seconds) and self.duration_seconds > 0
        ):
            raise FaultError(
                f"{type(self).__name__}: duration_seconds must be finite and "
                f"positive, got {self.duration_seconds}"
            )

    def active_at(self, now_seconds: float) -> bool:
        """Whether the fault is live at ``now_seconds``."""
        if now_seconds < self.start_seconds:
            return False
        if self.duration_seconds is None:
            return True
        return now_seconds < self.start_seconds + self.duration_seconds


@dataclass(frozen=True)
class _SocketFault(FaultSpec):
    """A fault targeting one socket (optionally scoped to one server).

    ``server_id is None`` means the standalone measure path (the
    process-wide injector applies it); a concrete ``server_id`` scopes
    the fault to one server of a fleet run, where the engine turns it
    into degradation events.
    """

    socket_id: int = 0
    server_id: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.socket_id < 0:
            raise FaultError(
                f"{type(self).__name__}: socket_id must be >= 0, "
                f"got {self.socket_id}"
            )
        if self.server_id is not None and self.server_id < 0:
            raise FaultError(
                f"{type(self).__name__}: server_id must be >= 0, "
                f"got {self.server_id}"
            )


@dataclass(frozen=True)
class CpmStuckFault(_SocketFault):
    """CPM codes of a socket pin to one value (detector latch-up)."""

    kind: ClassVar[str] = "cpm_stuck"

    #: The code every read returns while the fault is live.
    code: int = 0

    #: Restrict to one core (``None`` = every core of the socket).
    core_id: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.code < 0:
            raise FaultError(f"cpm_stuck: code must be >= 0, got {self.code}")


@dataclass(frozen=True)
class CpmNoiseFault(_SocketFault):
    """Uniform integer jitter of ±``amplitude_bits`` on every CPM read."""

    kind: ClassVar[str] = "cpm_noise"

    amplitude_bits: int = 4

    #: Restrict to one core (``None`` = every core of the socket).
    core_id: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.amplitude_bits < 1:
            raise FaultError(
                f"cpm_noise: amplitude_bits must be >= 1, "
                f"got {self.amplitude_bits}"
            )


@dataclass(frozen=True)
class CpmDropFault(_SocketFault):
    """CPM reads return the dropped-read sentinel (bus timeout)."""

    kind: ClassVar[str] = "cpm_drop"

    #: Restrict to one core (``None`` = every core of the socket).
    core_id: Optional[int] = None


@dataclass(frozen=True)
class StaleTelemetryFault(_SocketFault):
    """The telemetry window freezes: reads replay the last good values."""

    kind: ClassVar[str] = "cpm_stale"


@dataclass(frozen=True)
class VrmDroopFault(_SocketFault):
    """A sustained rail droop: delivered voltage sags by ``depth_volts``."""

    kind: ClassVar[str] = "vrm_droop"

    depth_volts: float = 0.030

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (math.isfinite(self.depth_volts) and self.depth_volts > 0):
            raise FaultError(
                f"vrm_droop: depth_volts must be finite and positive, "
                f"got {self.depth_volts}"
            )


@dataclass(frozen=True)
class LoadlineExcursionFault(_SocketFault):
    """The effective loadline resistance scales by ``factor`` (aging,
    connector degradation)."""

    kind: ClassVar[str] = "loadline_excursion"

    factor: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (math.isfinite(self.factor) and self.factor > 0):
            raise FaultError(
                f"loadline_excursion: factor must be finite and positive, "
                f"got {self.factor}"
            )


@dataclass(frozen=True)
class CalibrationFault(_SocketFault):
    """CPM calibration fails on this socket (readback mismatch)."""

    kind: ClassVar[str] = "calibration"


@dataclass(frozen=True)
class ServerCrashFault(FaultSpec):
    """A fleet server fails at ``start_seconds``; its jobs are lost and
    must requeue.  ``repair_seconds`` (after the crash) brings it back as
    placeable capacity; ``None`` keeps it dead for the rest of the run."""

    kind: ClassVar[str] = "server_crash"

    server_id: int = 0
    repair_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.server_id < 0:
            raise FaultError(
                f"server_crash: server_id must be >= 0, got {self.server_id}"
            )
        if self.repair_seconds is not None and not (
            math.isfinite(self.repair_seconds) and self.repair_seconds > 0
        ):
            raise FaultError(
                f"server_crash: repair_seconds must be finite and positive, "
                f"got {self.repair_seconds}"
            )


@dataclass(frozen=True)
class JobKillFault(FaultSpec):
    """One running job dies at ``start_seconds`` (OOM, segfault) and is
    requeued with backoff.  A no-op if the job is not running then."""

    kind: ClassVar[str] = "job_kill"

    job_id: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.job_id < 0:
            raise FaultError(
                f"job_kill: job_id must be >= 0, got {self.job_id}"
            )


@dataclass(frozen=True)
class CacheCorruptionFault(FaultSpec):
    """The shared settle-cache disk layer starts tearing writes: every
    ``every_n``-th entry written while the fault is armed is truncated
    mid-payload (a torn write — power loss, full disk, NFS hiccup).  The
    cache must detect the damage on read, quarantine the file and
    recompute; the run outcome is provably unchanged."""

    kind: ClassVar[str] = "cache_fault"

    #: Tear every Nth disk write (1 = every write).
    every_n: int = 5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.every_n < 1:
            raise FaultError(
                f"cache_fault: every_n must be >= 1, got {self.every_n}"
            )


#: Spec kinds the fleet engine maps to per-socket static fallback.
CPM_CORRUPTION_KINDS = (
    CpmStuckFault,
    CpmNoiseFault,
    CpmDropFault,
    StaleTelemetryFault,
)
