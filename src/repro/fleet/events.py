"""Discrete-event primitives for the fleet simulator.

Simulated time is an **integer nanosecond** count — no floating-point
clock drift, so two runs of the same trace pop events in exactly the same
order.  The queue is a binary heap keyed by ``(time, priority, sequence)``:

* ``time`` — the event's firing time (ns);
* ``priority`` — a per-kind rank that fixes the order of simultaneous
  events (completions free capacity before arrivals claim it; deferred
  rebalance housekeeping runs last);
* ``sequence`` — a monotone insertion counter, so equal-time, equal-kind
  events fire in FIFO order regardless of heap internals.

Completion and rebalance events carry a **generation** number, bumped
whenever the event's premise changes (a server's jobs are re-estimated,
a server receives work while waiting to power off); stale events are
dropped on pop, cheaper and more deterministic than in-heap deletion.
A server has at most one live completion: its earliest-finishing job's.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from ..errors import SchedulingError

#: Nanoseconds per second — the clock's base unit conversion.
NS_PER_SECOND = 1_000_000_000

#: Heaps smaller than this are never compacted — a linear sweep over a
#: few dozen entries costs more bookkeeping than it frees.
COMPACT_MIN_SIZE = 64


def seconds_to_ns(seconds: float) -> int:
    """Convert a duration in seconds to integer nanoseconds (rounded)."""
    if seconds < 0:
        raise SchedulingError(f"duration must be >= 0, got {seconds}")
    return int(round(seconds * NS_PER_SECOND))


def ns_to_seconds(time_ns: int) -> float:
    """Convert integer nanoseconds back to seconds."""
    return time_ns / NS_PER_SECOND


@dataclass(frozen=True)
class FleetEvent:
    """Base event: something happens at ``time_ns``."""

    time_ns: int

    #: Rank among simultaneous events (lower fires first).
    priority = 99

    def __post_init__(self) -> None:
        if self.time_ns < 0:
            raise SchedulingError(f"time_ns must be >= 0, got {self.time_ns}")


@dataclass(frozen=True)
class CompletionEvent(FleetEvent):
    """The earliest estimated finish among one server's jobs.  Stale when
    the server re-placed (every job re-estimated) after it was scheduled."""

    job_id: int = 0
    generation: int = 0

    priority = 0


@dataclass(frozen=True)
class ArrivalEvent(FleetEvent):
    """A job arrives at the fleet's admission queue."""

    job_id: int = 0

    priority = 1


@dataclass(frozen=True)
class RebalanceEvent(FleetEvent):
    """Deferred housekeeping on one server (power-off hysteresis check)."""

    server_id: int = 0
    generation: int = 0

    priority = 2


@dataclass(frozen=True)
class PowerCapTickEvent(FleetEvent):
    """One period of the fleet power-cap coordinator.

    Fires after every capacity event at the same instant (lowest
    priority): the coordinator measures the powers the instant actually
    settled to, then redistributes the budget.  Scheduled up-front for
    the whole horizon, so ticks exist iff a budget is configured — an
    uncapped run's event stream is byte-identical to one built before
    the coordinator existed."""

    #: 1-based tick index (``time_ns = index * interval``).
    index: int = 0

    priority = 3


@dataclass(frozen=True)
class ServerFaultEvent(FleetEvent):
    """An injected server crash (``action="crash"``) or its repair
    (``action="repair"``).  Fires before capacity-claiming events so a
    simultaneous arrival never lands on a dying server."""

    server_id: int = 0
    action: str = "crash"

    priority = 0


@dataclass(frozen=True)
class JobKillEvent(FleetEvent):
    """An injected kill of one running job (requeued, not lost)."""

    job_id: int = 0

    priority = 0


@dataclass(frozen=True)
class JobRetryEvent(FleetEvent):
    """A requeued job's backoff expires; the fleet re-attempts placement."""

    job_id: int = 0

    priority = 1


@dataclass(frozen=True)
class FallbackEvent(FleetEvent):
    """One socket's guardband trust changes: ``action="enter"`` pins it to
    the static guardband (injected CPM-stream corruption), ``action="exit"``
    re-arms adaptive mode after the corruption window plus the hysteresis
    dwell."""

    server_id: int = 0
    socket_id: int = 0
    action: str = "enter"

    #: Kind tag of the corrupting fault spec (metrics/event-log label).
    kind: str = "cpm_stuck"

    priority = 0


class EventQueue:
    """Deterministic priority queue over fleet events.

    Generation-invalidated events are dropped lazily on pop, so every
    re-estimate (one server's completion per epoch, crash and requeue
    storms) leaves an entry that will never fire.  The owner reports
    each via :meth:`note_stale`; when the hinted stale fraction exceeds
    50% (and the heap is non-trivial), :meth:`maybe_compact` sweeps the
    stale entries out, keeping every survivor's ``(time, priority,
    sequence)`` key, so live events pop — and the event-log digest
    reads — exactly as without compaction.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, FleetEvent]] = []
        self._sequence = 0
        self._stale_hints = 0

        #: Compaction telemetry: sweeps run and entries removed.
        self.compactions = 0
        self.compacted_entries = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: FleetEvent) -> None:
        """Schedule one event."""
        heapq.heappush(
            self._heap,
            (event.time_ns, event.priority, self._sequence, event),
        )
        self._sequence += 1

    def bulk_load(self, events: Iterable[FleetEvent]) -> int:
        """Schedule many events with one heapify; returns the count added.

        Equivalent to pushing each event in iteration order — sequence
        numbers are assigned identically, and because every heap key is
        unique (the sequence breaks all ties), pop order is the fully
        sorted key order either way.  What changes is cost: extending
        the backing list and heapifying once is O(n + m) instead of
        O(m log(n + m)) for m pushes, which is what makes loading a
        million-job arrival trace cheap.
        """
        added = 0
        for event in events:
            self._heap.append(
                (event.time_ns, event.priority, self._sequence, event)
            )
            self._sequence += 1
            added += 1
        if added:
            heapq.heapify(self._heap)
        return added

    def pop(self) -> FleetEvent:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SchedulingError("event queue is empty")
        return heapq.heappop(self._heap)[3]

    def peek_time(self) -> Optional[int]:
        """Firing time of the earliest event, or ``None`` when empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def note_stale(self, count: int = 1) -> None:
        """Adjust the count of entries believed stale (may overcount;
        a compaction sweep resets it to ground truth)."""
        self._stale_hints = max(0, self._stale_hints + count)

    @property
    def stale_hints(self) -> int:
        """Entries currently believed stale."""
        return self._stale_hints

    def maybe_compact(
        self, is_stale: Callable[[FleetEvent], bool]
    ) -> int:
        """Compact when the hinted stale fraction exceeds 50%."""
        if len(self._heap) < COMPACT_MIN_SIZE:
            return 0
        if self._stale_hints * 2 <= len(self._heap):
            return 0
        return self.compact(is_stale)

    def compact(self, is_stale: Callable[[FleetEvent], bool]) -> int:
        """Drop every entry ``is_stale`` rejects; returns the number removed.

        Safe only for *monotone* predicates (an event reported stale can
        never become live again) — which holds for generation checks,
        since generations only increase.
        """
        live = [entry for entry in self._heap if not is_stale(entry[3])]
        removed = len(self._heap) - len(live)
        if removed:
            heapq.heapify(live)
            self._heap = live
            self.compactions += 1
            self.compacted_entries += removed
        self._stale_hints = 0
        return removed
