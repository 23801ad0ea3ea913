"""Analysis layer: metrics, fits, and per-figure series builders.

Every paper figure is one entry of :data:`repro.analysis.figures.FIGURES`
(title, builder, table); ``repro figure``/``export``/``report``, the
claims table and the figure benchmarks all read it.  Fig. 5 is
``fig5_undervolt`` and ``fig5_overclock``.  Builders return plain data
(dataclasses of lists), which the examples plot and EXPERIMENTS.md quotes.
"""

from .fitting import LinearFit, fit_linear
from .metrics import (
    edp,
    energy,
    improvement_fraction,
    percent,
)

__all__ = [
    "LinearFit",
    "edp",
    "energy",
    "fit_linear",
    "improvement_fraction",
    "percent",
]
