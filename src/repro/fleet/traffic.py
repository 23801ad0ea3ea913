"""Trace generators: seeded job arrival streams for the fleet simulator.

Arrivals follow an inhomogeneous Poisson process whose rate carries the
canonical datacenter diurnal shape — a trough in the small hours and a
midday peak — realized by *thinning*: candidate arrivals are drawn at the
peak rate and accepted with probability ``rate(t) / rate_peak``.  Each
accepted arrival draws a job class (latency-critical vs. batch), a
workload profile from the class's slice of the calibrated catalog, a
thread count, and a nominal service demand.

Everything is derived from one ``numpy.random.RandomState`` stream seeded
with :func:`repro.sim.batch.derive_seed`, and the **whole trace is
materialized before the simulation starts** — generation order is fixed,
so the trace is bit-identical no matter how the simulator is parallelized.

Generation is *batched*: candidate gaps, thinning uniforms, class draws,
pool indices and service demands are each drawn as whole numpy arrays
(one RNG call per distribution instead of several Python-level calls per
job), which is what makes materializing a million-job region day cheap
relative to simulating it.  The batched draw order is a different random
stream from the original per-job ``random.Random`` loop — the scalar
loop's word consumption was data-dependent (rejection sampling inside
``choice``), so no vectorization could reproduce it faster than the loop
itself.  The catalog ``[golden]`` hashes were repinned once when this
generator landed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that
# load out of the first trace a run generates.
from numpy.random import RandomState

from ..errors import SchedulingError
from ..sim.batch import derive_seed
from ..workloads import get_profile, profile_names
from ..workloads.profile import WorkloadProfile
from .events import NS_PER_SECOND

#: Job-class tags.
LATENCY_CRITICAL = "latency_critical"
BATCH = "batch"

#: One tuple per distinct job shape (see :class:`JobSpec`).
_SHAPES: dict = {}

#: Seconds per simulated day (the diurnal period).
DAY_SECONDS = 86_400.0


@dataclass(frozen=True)
class JobSpec:
    """One job of the arrival stream (immutable trace entry)."""

    #: Monotone arrival index — doubles as the job's identity.
    job_id: int

    #: Arrival time (integer ns from trace start).
    arrival_ns: int

    #: ``"latency_critical"`` or ``"batch"``.
    job_class: str

    #: Catalog profile the job runs.
    profile_name: str

    #: Threads the job needs for its whole residence.
    n_threads: int

    #: Nominal service demand (s): the time the job takes running
    #: undisturbed at the nominal clock.  Contention, sharing and the
    #: settled frequency stretch or shrink it during the simulation.
    service_seconds: float

    def __post_init__(self) -> None:
        # A hand-built trace reaches the engine unchecked otherwise: zero
        # threads fail late as an empty placement, a negative demand
        # "completes" on arrival and a misspelt class runs as batch.
        problem = None
        if self.n_threads < 1:
            problem = f"n_threads must be >= 1, got {self.n_threads}"
        elif not (
            math.isfinite(self.service_seconds) and self.service_seconds > 0
        ):
            problem = (
                "service_seconds must be finite and > 0, got "
                f"{self.service_seconds}"
            )
        elif self.arrival_ns < 0:
            problem = f"arrival_ns must be >= 0, got {self.arrival_ns}"
        elif self.job_class not in (LATENCY_CRITICAL, BATCH):
            problem = (
                f"job_class must be {LATENCY_CRITICAL!r} or {BATCH!r}, "
                f"got {self.job_class!r}"
            )
        if problem is not None:
            raise SchedulingError(f"job {self.job_id}: {problem}")
        # Plain attributes, not fields, so equality, hashing and repr are
        # unchanged.  ``shape`` keys the plan memo (0 for critical, then
        # workload and width; equal shapes share one tuple) and
        # ``(shape, job_id)`` is the canonical plan order.
        shape = (
            0 if self.job_class == LATENCY_CRITICAL else 1,
            self.profile_name,
            self.n_threads,
        )
        shape = _SHAPES.setdefault(shape, shape)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "sort_key", (shape, self.job_id))

    @property
    def latency_critical(self) -> bool:
        """Whether the job carries the frequency SLA."""
        return self.job_class == LATENCY_CRITICAL

    def profile(self) -> WorkloadProfile:
        """The job's calibrated workload profile."""
        return get_profile(self.profile_name)


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of the arrival stream.

    Defaults describe a small enterprise fleet's day: ~18 jobs/hour on
    average, 60% peak-to-mean diurnal swing, 15% latency-critical jobs.
    The batch pool mixes compute-bound (raytrace, bzip2), bandwidth-bound
    (fft) and memory-latency-bound (mcf) profiles so the advisor gate has
    both malicious and benign co-runner candidates to rule on.
    """

    #: Trace horizon (s).
    duration_seconds: float = DAY_SECONDS

    #: Mean arrival rate (jobs per hour) over the whole horizon.
    jobs_per_hour: float = 18.0

    #: Relative diurnal swing in [0, 1): rate(t) spans
    #: ``mean * (1 ± amplitude)`` across the day.
    diurnal_amplitude: float = 0.6

    #: Phase of the diurnal peak (s into the day); default 14:00.
    peak_time_seconds: float = 14.0 * 3600.0

    #: Probability an arrival is latency-critical.
    lc_fraction: float = 0.15

    #: Catalog profiles latency-critical jobs draw from.
    lc_profiles: Tuple[str, ...] = ("perl", "h264ref")

    #: Catalog profiles batch jobs draw from.
    batch_profiles: Tuple[str, ...] = ("raytrace", "fft", "mcf", "bzip2")

    #: Thread-count choices per class (drawn uniformly).
    lc_threads: Tuple[int, ...] = (1, 2)
    batch_threads: Tuple[int, ...] = (2, 4)

    #: Mean nominal service demand (s) per class (exponential draw,
    #: floored so no job is shorter than one scheduling breath).
    lc_service_mean: float = 900.0
    batch_service_mean: float = 1800.0

    #: Service-time floor (s).
    service_floor: float = 120.0

    #: Rate-surge windows ``(start_seconds, duration_seconds,
    #: multiplier)``: while a window is open the diurnal rate is scaled
    #: by its multiplier (flash crowds above 1, brownout lulls below).
    #: Overlapping windows compound multiplicatively.  Empty by default,
    #: in which case the stream is bit-identical to a build without
    #: surge support.
    surges: Tuple[Tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        # Finiteness first: NaN slips through every ordered comparison
        # below (NaN <= 0 is False), a NaN duration turns the trace
        # generator's termination check into an infinite loop, and a NaN
        # peak phase silently thins the whole trace away.
        for name in ("duration_seconds", "jobs_per_hour", "lc_fraction",
                     "diurnal_amplitude", "peak_time_seconds",
                     "lc_service_mean", "batch_service_mean",
                     "service_floor"):
            if not math.isfinite(getattr(self, name)):
                raise SchedulingError(f"{name} must be finite")
        if self.duration_seconds <= 0:
            raise SchedulingError("duration_seconds must be positive")
        if self.jobs_per_hour <= 0:
            raise SchedulingError("jobs_per_hour must be positive")
        if not 0 <= self.diurnal_amplitude < 1:
            raise SchedulingError("diurnal_amplitude must be in [0, 1)")
        if self.peak_time_seconds < 0:
            raise SchedulingError("peak_time_seconds must be >= 0")
        if not 0 <= self.lc_fraction <= 1:
            raise SchedulingError("lc_fraction must be in [0, 1]")
        # Normalize sequences to tuples so two configs with the same
        # content hash and pickle identically whatever types built them.
        for name in ("lc_profiles", "batch_profiles", "lc_threads",
                     "batch_threads"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.lc_profiles or not self.batch_profiles:
            raise SchedulingError("profile pools must be non-empty")
        known = profile_names()
        for name in self.lc_profiles + self.batch_profiles:
            if name not in known:
                raise SchedulingError(
                    f"unknown workload profile {name!r} "
                    f"(known: {', '.join(sorted(known))})"
                )
        if not self.lc_threads or not self.batch_threads:
            raise SchedulingError("thread pools must be non-empty")
        for threads in self.lc_threads + self.batch_threads:
            if isinstance(threads, bool) or not isinstance(threads, int):
                raise SchedulingError(
                    f"thread choices must be integers, got {threads!r}"
                )
            if threads < 1:
                raise SchedulingError("thread choices must be >= 1")
        if min(self.lc_service_mean, self.batch_service_mean) <= 0:
            raise SchedulingError("service means must be positive")
        if self.service_floor <= 0:
            raise SchedulingError("service_floor must be positive")
        object.__setattr__(
            self,
            "surges",
            tuple(tuple(float(v) for v in surge) for surge in self.surges),
        )
        for surge in self.surges:
            if len(surge) != 3:
                raise SchedulingError(
                    "each surge must be (start_seconds, duration_seconds, "
                    f"multiplier), got {surge!r}"
                )
            start, duration, multiplier = surge
            if not all(math.isfinite(v) for v in surge):
                raise SchedulingError("surge fields must be finite")
            if start < 0:
                raise SchedulingError("surge start_seconds must be >= 0")
            if start >= self.duration_seconds:
                raise SchedulingError(
                    f"surge at t={start:g}s opens at or beyond the "
                    f"{self.duration_seconds:g}s horizon"
                )
            if duration <= 0:
                raise SchedulingError("surge duration_seconds must be positive")
            if multiplier <= 0:
                raise SchedulingError("surge multiplier must be positive")

    def surge_factor(self, t_seconds: float) -> float:
        """Compounded surge multiplier live at ``t_seconds`` (1.0 outside)."""
        factor = 1.0
        for start, duration, multiplier in self.surges:
            if start <= t_seconds < start + duration:
                factor *= multiplier
        return factor

    def rate_at(self, t_seconds: float) -> float:
        """Instantaneous arrival rate (jobs/s) at ``t_seconds``."""
        mean_per_second = self.jobs_per_hour / 3600.0
        phase = 2.0 * math.pi * (t_seconds - self.peak_time_seconds) / DAY_SECONDS
        diurnal = mean_per_second * (
            1.0 + self.diurnal_amplitude * math.cos(phase)
        )
        return diurnal * self.surge_factor(t_seconds)

    @property
    def peak_rate(self) -> float:
        """The thinning envelope: the maximum possible rate (jobs/s).

        The diurnal maximum scaled by the worst-case surge compounding
        (every above-unity multiplier live at once).  A loose envelope
        only costs thinning efficiency, never correctness.
        """
        envelope = 1.0
        for _, _, multiplier in self.surges:
            if multiplier > 1.0:
                envelope *= multiplier
        return (self.jobs_per_hour / 3600.0) * (1.0 + self.diurnal_amplitude) * envelope


def _rate_at_array(config: TrafficConfig, t: "np.ndarray") -> "np.ndarray":
    """Vectorized :meth:`TrafficConfig.rate_at` over an array of times."""
    mean_per_second = config.jobs_per_hour / 3600.0
    phase = 2.0 * np.pi * (t - config.peak_time_seconds) / DAY_SECONDS
    rates = mean_per_second * (1.0 + config.diurnal_amplitude * np.cos(phase))
    for start, duration, multiplier in config.surges:
        rates[(t >= start) & (t < start + duration)] *= multiplier
    return rates


def _candidate_times(
    rng: RandomState, peak: float, duration: float
) -> "np.ndarray":
    """Cumulative exponential-gap candidate times covering ``duration``.

    Gaps are drawn in whole blocks sized from the Poisson expectation
    (plus a six-sigma margin, so one block almost always suffices); the
    block schedule is a pure function of the drawn data, which keeps the
    stream deterministic however many extensions a tail-heavy draw needs.
    """
    expected = peak * duration
    block = int(expected + 6.0 * math.sqrt(expected + 1.0)) + 16
    chunks = []
    total = 0.0
    while True:
        gaps = rng.exponential(scale=1.0 / peak, size=block)
        times = total + np.cumsum(gaps)
        chunks.append(times)
        total = float(times[-1])
        if total >= duration:
            break
        block = max(256, block // 4)
    candidates = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return candidates[candidates < duration]


def generate_trace(config: TrafficConfig, seed: int) -> Tuple[JobSpec, ...]:
    """Materialize the whole arrival stream for one seeded day.

    The stream derives its own seed from ``(seed, "fleet-traffic")`` via
    the same scheme the batch runner uses, so traffic randomness never
    couples to any other consumer of ``seed``.

    Draw order (each one whole-array RNG call): candidate gaps, thinning
    uniforms, class uniforms, then — for every accepted job regardless
    of class, so the consumption pattern never depends on the class
    outcomes — LC pool/thread indices and service demands, batch
    pool/thread indices and service demands.
    """
    rng = RandomState(
        derive_seed(seed, {"stream": "fleet-traffic"}) % (2 ** 32)
    )
    peak = config.peak_rate
    candidates = _candidate_times(rng, peak, config.duration_seconds)
    accept = rng.random_sample(candidates.size)
    kept = candidates[accept * peak <= _rate_at_array(config, candidates)]
    n = kept.size
    if n == 0:
        return ()
    is_lc = rng.random_sample(n) < config.lc_fraction
    lc_profile = rng.randint(0, len(config.lc_profiles), size=n)
    lc_threads = rng.randint(0, len(config.lc_threads), size=n)
    lc_service = rng.exponential(scale=config.lc_service_mean, size=n)
    batch_profile = rng.randint(0, len(config.batch_profiles), size=n)
    batch_threads = rng.randint(0, len(config.batch_threads), size=n)
    batch_service = rng.exponential(scale=config.batch_service_mean, size=n)
    service = np.maximum(
        np.where(is_lc, lc_service, batch_service), config.service_floor
    )
    arrival_ns = np.rint(kept * float(NS_PER_SECOND)).astype(np.int64)
    profile_idx = np.where(is_lc, lc_profile, batch_profile)
    threads_idx = np.where(is_lc, lc_threads, batch_threads)
    lc_profiles, batch_profiles = config.lc_profiles, config.batch_profiles
    lc_thread_pool, batch_thread_pool = config.lc_threads, config.batch_threads
    return tuple(
        JobSpec(
            job_id=job_id,
            arrival_ns=t_ns,
            job_class=LATENCY_CRITICAL if lc else BATCH,
            profile_name=(lc_profiles if lc else batch_profiles)[pool_i],
            n_threads=(lc_thread_pool if lc else batch_thread_pool)[thr_i],
            service_seconds=demand,
        )
        for job_id, (t_ns, lc, pool_i, thr_i, demand) in enumerate(
            zip(
                arrival_ns.tolist(),
                is_lc.tolist(),
                profile_idx.tolist(),
                threads_idx.tolist(),
                service.tolist(),
            )
        )
    )


def constant_trace(
    n_jobs: int,
    profile_name: str = "raytrace",
    n_threads: int = 4,
    service_seconds: float = 1800.0,
    gap_seconds: float = 600.0,
    job_class: str = BATCH,
) -> Tuple[JobSpec, ...]:
    """A deterministic evenly-spaced stream — handy for tests and docs."""
    if n_jobs < 1:
        raise SchedulingError(f"n_jobs must be >= 1, got {n_jobs}")
    return tuple(
        JobSpec(
            job_id=i,
            arrival_ns=int(round(i * gap_seconds * NS_PER_SECOND)),
            job_class=job_class,
            profile_name=profile_name,
            n_threads=n_threads,
            service_seconds=service_seconds,
        )
        for i in range(n_jobs)
    )
