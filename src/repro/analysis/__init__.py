"""Analysis layer: fits and per-figure series builders.

Every paper figure is one entry of :data:`repro.analysis.figures.FIGURES`
(title, builder, table); ``repro figure``/``export``/``report``, the
claims table and the figure benchmarks all read it.  Fig. 5 is
``fig5_undervolt`` and ``fig5_overclock``.  Builders return plain data
(dataclasses of lists), which the examples plot and EXPERIMENTS.md quotes.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".fitting": ("LinearFit", "fit_linear"),
})
