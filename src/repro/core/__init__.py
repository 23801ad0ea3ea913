"""Adaptive guardband scheduling (AGS) — the paper's contribution.

Two scheduling policies compensate for adaptive guardbanding's system-level
inefficiencies:

* **Loadline borrowing** (:mod:`~repro.core.loadline_borrowing`) for
  lightly-utilized servers: spread active cores across sockets, power-gate
  the rest, and let each socket's firmware undervolt deeper (Sec. 5.1).
* **Adaptive mapping** (:mod:`~repro.core.adaptive_mapping`) for highly
  utilized servers with latency-critical workloads: predict the adaptive
  frequency of candidate co-runner mixes with a MIPS-based linear model and
  swap out malicious co-runners before they break QoS (Sec. 5.2).

The :class:`~repro.core.ags.AdaptiveGuardbandScheduler` facade picks the
policy by utilization, mirroring the two enterprise scenarios of Sec. 5.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".adaptive_mapping": ("AdaptiveMappingScheduler", "MappingDecision"),
    ".ags": ("AdaptiveGuardbandScheduler", "AgsPolicy"),
    ".cluster": ("ClusterScheduler", "Job"),
    ".consolidation": ("ConsolidationScheduler",),
    ".loadline_borrowing": ("LoadlineBorrowingScheduler",),
    ".placement": ("Placement", "ThreadGroup"),
    ".predictor": ("MipsFrequencyPredictor", "PredictorSample"),
    ".qos": ("QosMonitor", "QosSpec"),
})
