"""Energy and QoS accounting for the fleet simulator.

Three ledgers, all exact and deterministic:

* :class:`EnergyAccount` — per-server time-integrated energy.  Server
  power is piecewise constant between placement changes (the firmware
  holds a settled setpoint), so the integral is a sum of
  ``power x interval`` rectangles over integer-nanosecond intervals.
  Every account carries **two** parallel integrals from the same
  schedule: the adaptive (AGS) operating points and the static-guardband
  points the sweep runner settles alongside them — the static-guardband
  baseline costs no extra simulation.
* :class:`EventLog` — the structured JSONL stream of everything that
  happened (arrivals, starts, queueing, completions, power transitions,
  epochs, QoS violations).  Its SHA-256 over canonical JSON is the
  simulation's identity: two runs are *the same run* iff their hashes
  match.
* :class:`JobRecord` / :class:`FleetResult` — per-job latency and
  slowdown, fleet-level job conservation (arrivals = completions +
  running + queued at the horizon) and the AGS vs. static vs.
  consolidation energy comparison.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import SchedulingError
from ..sim.cache import canonical_json
from .events import NS_PER_SECOND, ns_to_seconds

#: Lines per ``update`` in :func:`jsonl_digest` (never the whole log).
DIGEST_CHUNK_LINES = 1024

#: Joules per kilowatt-hour, for the report's human-facing numbers.
JOULES_PER_KWH = 3_600_000.0

#: Tail percentiles the QoS report carries.  Means hide exactly the tail
#: violations the paper's QoS gating exists to prevent (Fig. 17 is a
#: tail-latency argument), so every latency/slowdown summary also
#: reports these.
TAIL_PERCENTILES = (50, 95, 99)


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile over ``values`` (0 when empty).

    Nearest-rank (not interpolated) keeps the statistic an exact member
    of the sample, so it is reproducible bit-for-bit across platforms
    and unaffected by float summation order.
    """
    if not values:
        return 0.0
    if not 0 < pct <= 100:
        raise SchedulingError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1]


class EnergyAccount:
    """Piecewise-constant power integration for one server.

    ``advance(now)`` closes the rectangle since the last edge at the
    current power; ``set_power`` opens a new one.  Adaptive and static
    integrals advance in lockstep over the identical schedule.
    """

    def __init__(self, server_id: int) -> None:
        self.server_id = server_id
        self._last_ns = 0
        self._adaptive_w = 0.0
        self._static_w = 0.0
        self.adaptive_joules = 0.0
        self.static_joules = 0.0

    def advance(self, now_ns: int) -> None:
        """Integrate both rails up to ``now_ns``."""
        if now_ns < self._last_ns:
            raise SchedulingError(
                f"energy account moved backwards: {self._last_ns} -> {now_ns}"
            )
        dt = (now_ns - self._last_ns) / NS_PER_SECOND
        self.adaptive_joules += self._adaptive_w * dt
        self.static_joules += self._static_w * dt
        self._last_ns = now_ns

    def set_power(self, adaptive_w: float, static_w: float) -> None:
        """Open a new rectangle (call :meth:`advance` first)."""
        self._adaptive_w = adaptive_w
        self._static_w = static_w

    @property
    def adaptive_power_w(self) -> float:
        """Current adaptive rail power (W) — what a power meter reads."""
        return self._adaptive_w


def jsonl_digest(lines: Iterable[str]) -> str:
    """SHA-256 of ``lines`` as JSONL (each line plus ``"\\n"``), hashed
    :data:`DIGEST_CHUNK_LINES` lines per ``update``; no lines hash ``b""``."""
    hasher = hashlib.sha256()
    lines = iter(lines)
    while chunk := list(itertools.islice(lines, DIGEST_CHUNK_LINES)):
        chunk.append("")
        hasher.update("\n".join(chunk).encode("utf-8"))
    return hasher.hexdigest()


class EventLog:
    """Append-only structured event stream with a canonical hash.

    ``server_offset`` is added to each entry's ``server_id`` as it is
    recorded, so a sharded cell logs global server ids (the offset is
    its first server's id; 0 leaves ids untouched).  Each entry is
    rendered to canonical JSON once, on first need, and :meth:`digest`,
    :meth:`lines` and :meth:`timed_lines` share that rendering.
    """

    def __init__(self, server_offset: int = 0) -> None:
        self._entries: List[dict] = []
        self._lines: List[str] = []
        self._server_offset = server_offset

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, kind: str, time_ns: int, **fields) -> None:
        """Record one event; field order never affects the hash."""
        entry = {"kind": kind, "time_ns": time_ns}
        entry.update(fields)
        if self._server_offset and "server_id" in entry:
            entry["server_id"] += self._server_offset
        self._entries.append(entry)

    @property
    def entries(self) -> Tuple[dict, ...]:
        """The recorded events, in order."""
        return tuple(self._entries)

    def _rendered(self) -> List[str]:
        """Canonical lines of every entry, rendering only new ones."""
        lines = self._lines
        for entry in self._entries[len(lines):]:
            lines.append(canonical_json(entry))
        return lines

    def digest(self) -> str:
        """SHA-256 over the canonical JSONL rendering of the log."""
        return jsonl_digest(self._rendered())

    def lines(self) -> List[str]:
        """Canonical JSONL lines (what :meth:`write_jsonl` writes)."""
        return list(self._rendered())

    def timed_lines(self) -> List[Tuple[int, str]]:
        """``(time_ns, canonical line)`` per entry: a cell's merge input."""
        return [
            (entry["time_ns"], line)
            for entry, line in zip(self._entries, self._rendered())
        ]

    def write_jsonl(self, path: str) -> None:
        """Dump the log as one canonical JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self._rendered():
                handle.write(line + "\n")


@dataclass
class JobRecord:
    """One job's observed lifecycle."""

    job_id: int
    job_class: str
    profile_name: str
    n_threads: int
    service_seconds: float
    arrival_ns: int
    start_ns: Optional[int] = None
    completion_ns: Optional[int] = None
    server_id: Optional[int] = None

    @property
    def started(self) -> bool:
        """Whether the job ever began execution."""
        return self.start_ns is not None

    @property
    def completed(self) -> bool:
        """Whether the job finished inside the horizon."""
        return self.completion_ns is not None

    @property
    def queue_seconds(self) -> Optional[float]:
        """Admission-queue wait (s); ``None`` if never started."""
        if self.start_ns is None:
            return None
        return ns_to_seconds(self.start_ns - self.arrival_ns)

    @property
    def latency_seconds(self) -> Optional[float]:
        """Arrival-to-completion latency (s); ``None`` if unfinished."""
        if self.completion_ns is None:
            return None
        return ns_to_seconds(self.completion_ns - self.arrival_ns)

    @property
    def slowdown(self) -> Optional[float]:
        """Latency normalized to the nominal undisturbed service time."""
        latency = self.latency_seconds
        if latency is None:
            return None
        return latency / self.service_seconds


@dataclass(frozen=True)
class FleetResult:
    """One policy's simulated outcome over the trace horizon."""

    #: Policy name (``"ags"``, ``"consolidation"``, ...).
    policy: str

    #: Simulated horizon (ns).
    horizon_ns: int

    #: Fleet energy under the policy's (adaptive) guardband modes (J).
    adaptive_energy_joules: float

    #: Fleet energy of the identical schedule settled under the static
    #: guardband (J) — the free co-baseline.
    static_energy_joules: float

    #: Job population at the horizon.
    n_arrivals: int
    n_completions: int
    n_running: int
    n_queued: int

    #: SLA-violating epochs observed on latency-critical sockets.
    qos_violations: int

    #: Placement-change epochs the fleet settled (cache-visible work).
    n_epochs: int

    #: Identity of the run.
    event_log_hash: str

    #: Per-job lifecycle records, by job id.
    job_records: Tuple[JobRecord, ...] = field(repr=False, default=())

    #: The structured event stream.
    events: Tuple[dict, ...] = field(repr=False, default=())

    #: Jobs requeued off crashed servers or injected kills (with retries).
    n_requeues: int = 0

    #: Injected server crashes observed during the run.
    n_server_crashes: int = 0

    #: Injected job kills observed during the run.
    n_job_kills: int = 0

    #: Per-socket static-fallback dwell: ``(server_id, socket_id,
    #: seconds)`` for every socket that spent time distrusting its CPMs.
    fallback_seconds: Tuple[Tuple[int, int, float], ...] = ()

    #: Fleet power budget the coordinator tracked (W); 0.0 = uncapped.
    cap_budget_w: float = 0.0

    #: Mean measured fleet power over the steady-state window — the
    #: coordinator ticks in the last quarter of the horizon (W).
    cap_measured_steady_w: float = 0.0

    #: Epochs whose settle was stepped down the DVFS table by a cap.
    cap_throttle_epochs: int = 0

    #: Coordinator ticks that fired inside the horizon.
    powercap_ticks: int = 0

    @property
    def cap_tracking_error(self) -> float:
        """|steady measured − budget| / budget (0.0 when uncapped)."""
        return self.cap_overshoot + self.cap_slack

    @property
    def cap_overshoot(self) -> float:
        """max(0, steady measured − budget) / budget: how far over."""
        return max(0.0, self._cap_error())

    @property
    def cap_slack(self) -> float:
        """max(0, budget − steady measured) / budget: how far under."""
        return max(0.0, -self._cap_error())

    def _cap_error(self) -> float:
        """(steady measured − budget) / budget (0.0 when uncapped)."""
        if self.cap_budget_w <= 0:
            return 0.0
        return (
            self.cap_measured_steady_w - self.cap_budget_w
        ) / self.cap_budget_w

    @property
    def total_fallback_seconds(self) -> float:
        """Fleet-wide socket-seconds spent in static fallback."""
        return sum(entry[2] for entry in self.fallback_seconds)

    @property
    def conserved(self) -> bool:
        """Job conservation: every arrival is accounted for."""
        return (
            self.n_arrivals
            == self.n_completions + self.n_running + self.n_queued
        )

    @property
    def adaptive_energy_kwh(self) -> float:
        """Adaptive fleet energy in kWh."""
        return self.adaptive_energy_joules / JOULES_PER_KWH

    @property
    def static_energy_kwh(self) -> float:
        """Static-guardband fleet energy in kWh."""
        return self.static_energy_joules / JOULES_PER_KWH

    @property
    def saving_fraction(self) -> float:
        """Adaptive saving relative to the static guardband."""
        if self.static_energy_joules == 0:
            return 0.0
        return 1.0 - self.adaptive_energy_joules / self.static_energy_joules

    def records_of_class(self, job_class: str) -> Tuple[JobRecord, ...]:
        """Job records filtered by class tag."""
        return tuple(
            r for r in self.job_records if r.job_class == job_class
        )

    def mean_latency_seconds(self, job_class: Optional[str] = None) -> float:
        """Mean completion latency (s) over finished jobs of a class."""
        records = (
            self.records_of_class(job_class) if job_class else self.job_records
        )
        latencies = [
            r.latency_seconds for r in records if r.latency_seconds is not None
        ]
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    def mean_slowdown(self, job_class: Optional[str] = None) -> float:
        """Mean slowdown over finished jobs of a class."""
        records = (
            self.records_of_class(job_class) if job_class else self.job_records
        )
        slowdowns = [r.slowdown for r in records if r.slowdown is not None]
        if not slowdowns:
            return 0.0
        return sum(slowdowns) / len(slowdowns)

    def latency_percentiles(
        self, job_class: Optional[str] = None
    ) -> Dict[int, float]:
        """p50/p95/p99 completion latency (s) over finished jobs."""
        records = (
            self.records_of_class(job_class) if job_class else self.job_records
        )
        latencies = [
            r.latency_seconds for r in records if r.latency_seconds is not None
        ]
        return {p: percentile(latencies, p) for p in TAIL_PERCENTILES}

    def slowdown_percentiles(
        self, job_class: Optional[str] = None
    ) -> Dict[int, float]:
        """p50/p95/p99 slowdown over finished jobs."""
        records = (
            self.records_of_class(job_class) if job_class else self.job_records
        )
        slowdowns = [r.slowdown for r in records if r.slowdown is not None]
        return {p: percentile(slowdowns, p) for p in TAIL_PERCENTILES}


@dataclass(frozen=True)
class FleetComparison:
    """The three-way report: AGS vs. static guardband vs. consolidation."""

    #: The AGS policy run (its static rail is the static baseline).
    ags: FleetResult

    #: The conventional consolidation run (static guardband, no gate).
    consolidation: FleetResult

    @property
    def ags_energy_joules(self) -> float:
        """AGS fleet energy (J)."""
        return self.ags.adaptive_energy_joules

    @property
    def static_energy_joules(self) -> float:
        """Static-guardband baseline energy (J): the AGS schedule's
        identical placements settled without adaptive guardbanding."""
        return self.ags.static_energy_joules

    @property
    def consolidation_energy_joules(self) -> float:
        """Consolidation baseline energy (J)."""
        return self.consolidation.adaptive_energy_joules

    @property
    def saving_vs_static(self) -> float:
        """AGS energy saving vs. the static guardband."""
        return self.ags.saving_fraction

    @property
    def saving_vs_consolidation(self) -> float:
        """AGS energy saving vs. the consolidation baseline."""
        if self.consolidation_energy_joules == 0:
            return 0.0
        return 1.0 - self.ags_energy_joules / self.consolidation_energy_joules


def summarize_by_class(result: FleetResult) -> Dict[str, Dict[str, float]]:
    """Per-class headline stats for reports and the CLI."""
    summary: Dict[str, Dict[str, float]] = {}
    for job_class in sorted({r.job_class for r in result.job_records}):
        records = result.records_of_class(job_class)
        completed = [r for r in records if r.completed]
        stats = {
            "arrivals": float(len(records)),
            "completions": float(len(completed)),
            "mean_latency_s": result.mean_latency_seconds(job_class),
            "mean_slowdown": result.mean_slowdown(job_class),
        }
        latency_tail = result.latency_percentiles(job_class)
        slowdown_tail = result.slowdown_percentiles(job_class)
        for p in TAIL_PERCENTILES:
            stats[f"p{p}_latency_s"] = latency_tail[p]
            stats[f"p{p}_slowdown"] = slowdown_tail[p]
        summary[job_class] = stats
    return summary
