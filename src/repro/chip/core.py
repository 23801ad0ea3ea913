"""One POWER7+ core: SMT thread slots, activity aggregation, gating state.

A core hosts up to four hardware threads (SMT4).  The simulator represents
each software thread placed on the core as a :class:`HardwareThread` with
two workload-derived traits:

``activity``
    switching-activity contribution of the thread when it runs alone on the
    core (drives dynamic power);
``ipc``
    instructions per cycle the thread retires when it runs alone.

When several threads share a core, throughput and activity grow
sub-linearly (pipeline sharing), each as ``n`` to a small exponent.
Throughput uses 0.45 — the ~1.4x/1.9x gains at SMT2/SMT4 reported for
POWER7-class cores; activity uses a smaller 0.18, because extra SMT
threads mostly fill existing issue slots rather than switching new logic
(core power rises far less than throughput under SMT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..config import ChipConfig

#: Exponent of the SMT throughput (IPC) yield model.
SMT_YIELD_EXPONENT = 0.45

#: Exponent of the SMT switching-activity growth model.
SMT_ACTIVITY_EXPONENT = 0.18


@dataclass(frozen=True)
class HardwareThread:
    """A software thread pinned to one hardware thread slot."""

    #: Benchmark name the thread belongs to (catalog key).
    workload: str

    #: Switching-activity contribution when running alone on the core.
    activity: float

    #: Instructions per cycle when running alone on the core.
    ipc: float

    def __post_init__(self) -> None:
        if self.activity < 0:
            raise ValueError(f"activity must be >= 0, got {self.activity}")
        if self.ipc < 0:
            raise ValueError(f"ipc must be >= 0, got {self.ipc}")


@dataclass(frozen=True)
class CoreState:
    """Snapshot of one core's occupancy-derived operating state."""

    #: Whether the core is power gated (deep sleep).
    gated: bool

    #: Number of occupied hardware thread slots.
    n_threads: int

    #: Aggregate switching activity factor (includes idle clocking floor).
    activity: float

    #: Aggregate instructions per cycle across the core's threads.
    ipc: float

    @property
    def active(self) -> bool:
        """Whether the core is running at least one thread (and not gated)."""
        return not self.gated and self.n_threads > 0


class Power7Core:
    """Occupancy model of a single core."""

    def __init__(self, config: ChipConfig, core_id: int) -> None:
        self._config = config
        self.core_id = core_id
        self._threads: List[HardwareThread] = []
        self._gated = False

    @property
    def threads(self) -> Sequence[HardwareThread]:
        """Threads currently placed on this core."""
        return tuple(self._threads)

    @property
    def n_threads(self) -> int:
        """Number of occupied SMT slots."""
        return len(self._threads)

    @property
    def gated(self) -> bool:
        """Whether the core is power gated."""
        return self._gated

    @property
    def active(self) -> bool:
        """Whether the core runs at least one thread (and is not gated);
        :attr:`CoreState.active` of its :meth:`state`."""
        return not self._gated and bool(self._threads)

    @property
    def free_slots(self) -> int:
        """Unoccupied SMT slots (0 when gated)."""
        if self._gated:
            return 0
        return self._config.smt_ways - len(self._threads)

    def place(self, thread: HardwareThread) -> None:
        """Pin ``thread`` onto a free SMT slot."""
        if self._gated:
            raise ValueError(f"core {self.core_id} is power gated")
        if len(self._threads) >= self._config.smt_ways:
            raise ValueError(
                f"core {self.core_id} already has {self._config.smt_ways} threads"
            )
        self._threads.append(thread)

    def evict(self, workload: Optional[str] = None) -> List[HardwareThread]:
        """Remove and return threads; all of them, or only one workload's."""
        if workload is None:
            removed, self._threads = self._threads, []
            return removed
        removed = [t for t in self._threads if t.workload == workload]
        self._threads = [t for t in self._threads if t.workload != workload]
        return removed

    def gate(self) -> None:
        """Power gate the core.  Requires the core to be empty."""
        if self._threads:
            raise ValueError(
                f"cannot gate core {self.core_id} while it runs "
                f"{len(self._threads)} thread(s)"
            )
        self._gated = True

    def ungate(self) -> None:
        """Wake the core from the power-gated state."""
        self._gated = False

    def state(self) -> CoreState:
        """Aggregate the occupancy into a :class:`CoreState` snapshot.

        With ``n`` threads, aggregate activity and IPC equal the per-thread
        mean scaled by the SMT yield ``n**SMT_YIELD_EXPONENT``.  An idle but
        clocked core still burns the configured idle activity.
        """
        if self._gated:
            return CoreState(gated=True, n_threads=0, activity=0.0, ipc=0.0)
        n = len(self._threads)
        if n == 0:
            return CoreState(
                gated=False,
                n_threads=0,
                activity=self._config.idle_activity,
                ipc=0.0,
            )
        ipc_factor = n**SMT_YIELD_EXPONENT
        activity_factor = n**SMT_ACTIVITY_EXPONENT
        mean_activity = sum(t.activity for t in self._threads) / n
        mean_ipc = sum(t.ipc for t in self._threads) / n
        activity = max(mean_activity * activity_factor, self._config.idle_activity)
        return CoreState(
            gated=False,
            n_threads=n,
            activity=activity,
            ipc=mean_ipc * ipc_factor,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "gated" if self._gated else f"{len(self._threads)} thread(s)"
        return f"Power7Core(id={self.core_id}, {status})"
