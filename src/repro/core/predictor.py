"""The MIPS-based adaptive-frequency predictor (Sec. 5.2.1, Fig. 16).

Adaptive guardbanding's frequency depends on chip power (through passive
voltage drop), and chip power tracks aggregate MIPS to first order — so a
single linear model ``f = a + b * chip_MIPS`` predicts the settled
frequency of *any* workload mix from hardware counters alone.  The paper
fits it over SPEC CPU2006, PARSEC and SPLASH-2 at full core count and
reports 0.3% RMSE; the same procedure here lands in the same range.

The model is deliberately tiny: the scheduler evaluates it for every
candidate co-runner combination every scheduling quantum, so closed-form
evaluation speed matters more than the last fraction of accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import ServerConfig
from ..errors import SchedulingError
from ..guardband.controller import GuardbandMode
from ..sim.run import build_server
from ..workloads.catalog import get_profile, profile_names
from ..workloads.scaling import RuntimeModel, SocketShare


@dataclass(frozen=True)
class PredictorSample:
    """One training observation: a workload mix at full utilization."""

    #: Aggregate chip MIPS from the per-core hardware counters.
    chip_mips: float

    #: Settled adaptive-guardbanding frequency (Hz).
    frequency: float

    #: Benchmark (mix) name, for diagnostics.
    workload: str = ""


class MipsFrequencyPredictor:
    """Linear chip-MIPS → frequency model with least-squares fitting."""

    def __init__(self) -> None:
        self._intercept = None
        self._slope = None
        self._samples: List[PredictorSample] = []

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has produced coefficients."""
        return self._intercept is not None

    @property
    def samples(self) -> Tuple[PredictorSample, ...]:
        """The training samples of the last :meth:`fit`."""
        return tuple(self._samples)

    @property
    def intercept(self) -> float:
        """Frequency at zero MIPS (Hz)."""
        self._require_fit()
        return self._intercept

    @property
    def slope(self) -> float:
        """Frequency change per MIPS (Hz per MIPS; negative)."""
        self._require_fit()
        return self._slope

    def fit(self, samples: Sequence[PredictorSample]) -> "MipsFrequencyPredictor":
        """Least-squares fit over the training mixes.

        Returns ``self`` so construction and fitting chain naturally.
        """
        if len(samples) < 2:
            raise SchedulingError(
                f"need at least 2 samples to fit, got {len(samples)}"
            )
        self._samples = list(samples)
        x = np.array([s.chip_mips for s in samples])
        y = np.array([s.frequency for s in samples])
        slope, intercept = np.polyfit(x, y, deg=1)
        self._slope = float(slope)
        self._intercept = float(intercept)
        return self

    def predict(self, chip_mips: float) -> float:
        """Predicted adaptive frequency (Hz) at ``chip_mips``."""
        self._require_fit()
        if chip_mips < 0:
            raise SchedulingError(f"chip_mips must be >= 0, got {chip_mips}")
        return self._intercept + self._slope * chip_mips

    def rmse(self, samples: Sequence[PredictorSample] = None) -> float:
        """Relative root-mean-square error over ``samples``.

        Defaults to the training set — the quantity the paper quotes
        (0.3%).  Relative to the mean observed frequency.
        """
        self._require_fit()
        samples = self._samples if samples is None else list(samples)
        if not samples:
            raise SchedulingError("no samples to evaluate RMSE on")
        y = np.array([s.frequency for s in samples])
        pred = np.array([self.predict(s.chip_mips) for s in samples])
        return float(np.sqrt(np.mean((pred - y) ** 2)) / np.mean(y))

    def max_mips_for(self, frequency: float) -> float:
        """Largest chip MIPS that still predicts at least ``frequency``.

        This is the scheduler's co-runner budget: given the critical
        workload's required frequency, any candidate mix whose total MIPS
        stays below this bound is predicted QoS-safe.
        """
        self._require_fit()
        if self._slope >= 0:
            raise SchedulingError(
                "fitted slope is non-negative; MIPS budget is unbounded"
            )
        return (frequency - self._intercept) / self._slope

    def _require_fit(self) -> None:
        if not self.fitted:
            raise SchedulingError("predictor has not been fitted")


def fit_mips_predictor(
    config: Optional[ServerConfig] = None,
    workloads: Optional[Sequence[str]] = None,
) -> MipsFrequencyPredictor:
    """The Fig. 16 fit: stress all cores of one socket per workload (the
    whole catalog by default, in catalog order) on one reused server in
    overclock mode, and fit the settled frequency on chip MIPS."""
    server = build_server(config)
    runtime = RuntimeModel()
    names = list(workloads) if workloads is not None else profile_names()
    samples = []
    for name in names:
        profile = get_profile(name)
        server.clear()
        server.place(0, profile, server.config.chip.n_cores)
        point = server.operate(GuardbandMode.OVERCLOCK)
        solution = point.socket_point(0).solution
        share = SocketShare.consolidated(
            server.config.chip.n_cores, server.n_sockets
        )
        mips = runtime.effective_mips(
            profile, share, [solution.mean_frequency] * server.n_sockets
        )
        samples.append(
            PredictorSample(
                chip_mips=mips,
                frequency=solution.mean_frequency,
                workload=name,
            )
        )
    return MipsFrequencyPredictor().fit(samples)
