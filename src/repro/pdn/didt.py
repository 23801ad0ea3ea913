"""di/dt (inductive) noise model: typical-case ripple and worst-case droops.

The paper's Sec. 4.3 measures two opposite multicore trends, both of which
this model reproduces:

* **typical-case ripple shrinks** as more cores are active, because
  microarchitectural activity staggers across cores and smooths aggregate
  current (noise smoothing, after Reddi et al. and Miller et al.);
* **worst-case droops grow slightly**, because occasionally the cores'
  current surges align (synchronous behaviour or random alignment).

Magnitudes are workload traits: a workload with bursty pipeline behaviour
(e.g. lu_cb) carries larger single-core ripple and droop than a steady
streaming workload.  The model exposes

``typical_ripple(n)``  – amplitude of the ripple with ``n`` active cores;
``worst_droop(n)``     – magnitude of an aligned droop event;
``sample_events(...)`` – a seeded Poisson draw of droop events over a
                         measurement window, used by sticky-mode CPM reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..config import DidtConfig


@dataclass(frozen=True)
class DroopEvent:
    """One worst-case droop event inside a measurement window."""

    #: Time offset of the event inside the window (s).
    time: float

    #: Depth of the droop below the typical-case floor (V).
    magnitude: float


class DidtNoiseModel:
    """Workload-scaled di/dt noise process.

    Parameters
    ----------
    config:
        Platform-level noise parameters.
    ripple_scale, droop_scale:
        Workload traits multiplying the platform ripple/droop magnitudes;
        1.0 means a raytrace-class workload.
    """

    def __init__(
        self,
        config: DidtConfig,
        ripple_scale: float = 1.0,
        droop_scale: float = 1.0,
    ) -> None:
        if ripple_scale < 0 or droop_scale < 0:
            raise ValueError("noise scales must be >= 0")
        self._config = config
        self._ripple_scale = ripple_scale
        self._droop_scale = droop_scale

    @property
    def config(self) -> DidtConfig:
        """The platform noise parameters."""
        return self._config

    @property
    def ripple_scale(self) -> float:
        """Workload trait multiplying the platform ripple magnitude."""
        return self._ripple_scale

    @property
    def droop_scale(self) -> float:
        """Workload trait multiplying the platform droop magnitude."""
        return self._droop_scale

    def typical_ripple(self, n_active_cores: int) -> float:
        """Typical-case ripple amplitude (V) with ``n_active_cores`` active.

        Per-core ripple adds incoherently, so the chip-level amplitude per
        unit of activity falls off as ``n**-k`` with the configured
        smoothing exponent — zero active cores means no activity-driven
        ripple at all.
        """
        self._check_n(n_active_cores)
        if n_active_cores == 0:
            return 0.0
        smoothing = n_active_cores**-self._config.ripple_smoothing_exponent
        return self._config.ripple_single_core * self._ripple_scale * smoothing

    def worst_droop(self, n_active_cores: int) -> float:
        """Worst-case aligned droop magnitude (V).

        Grows from the single-core value toward ``(1 + alignment_gain)``
        times it as the remaining cores activate: more cores give more
        opportunities for (rare) synchronized current surges.
        """
        self._check_n(n_active_cores)
        if n_active_cores == 0:
            return 0.0
        base = self._config.droop_single_core * self._droop_scale
        if n_active_cores == 1:
            return base
        growth = self._config.droop_alignment_gain * (n_active_cores - 1) / 7.0
        return base * (1.0 + growth)

    def event_rate(self, n_active_cores: int) -> float:
        """Mean worst-case droop events per second."""
        self._check_n(n_active_cores)
        return self._config.droop_rate_per_core * n_active_cores

    def sample_events(
        self,
        n_active_cores: int,
        window: float,
        rng: np.random.Generator,
    ) -> List[DroopEvent]:
        """Draw the droop events inside one measurement window.

        Event count is Poisson with the active-core-scaled rate; each event's
        depth is the worst-case magnitude jittered by ±20% (alignment is
        never perfectly identical twice).
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self._check_n(n_active_cores)
        if n_active_cores == 0:
            return []
        count = int(rng.poisson(self.event_rate(n_active_cores) * window))
        magnitude = self.worst_droop(n_active_cores)
        events = []
        for _ in range(count):
            depth = magnitude * float(rng.uniform(0.8, 1.2))
            events.append(DroopEvent(time=float(rng.uniform(0, window)), magnitude=depth))
        return events

    def worst_in_window(
        self,
        n_active_cores: int,
        window: float,
        rng: np.random.Generator,
    ) -> float:
        """Deepest droop (V) observed in one window; 0 if no event fired."""
        events = self.sample_events(n_active_cores, window, rng)
        if not events:
            return 0.0
        return max(event.magnitude for event in events)

    @staticmethod
    def _check_n(n_active_cores: int) -> None:
        if n_active_cores < 0:
            raise ValueError(
                f"n_active_cores must be >= 0, got {n_active_cores}"
            )
