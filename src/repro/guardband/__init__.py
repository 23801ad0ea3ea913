"""Adaptive guardband firmware: calibration, the three operating policies,
and the controller facade.

* :mod:`~repro.guardband.calibration` — the CPM calibration procedure.
* :mod:`~repro.guardband.static` — the traditional fixed-voltage guardband.
* :mod:`~repro.guardband.overclock` — CPM→DPLL closed loop at fixed voltage
  (frequency-boosting mode).
* :mod:`~repro.guardband.undervolt` — 32 ms firmware loop that lowers the
  VRM setpoint until the clock just holds the target (power-saving mode).
* :mod:`~repro.guardband.controller` — mode dispatch facade.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".audit": ("AuditReport", "audit_operating_point"),
    ".calibration": ("calibrate_socket", "calibrated_margin"),
    ".capping": ("CapResult", "PowerCapPolicy"),
    ".controller": ("GuardbandController", "GuardbandMode"),
    ".overclock": ("OverclockPolicy",),
    ".parking": ("park_if_fully_gated", "park_voltage"),
    ".static": ("StaticGuardbandPolicy",),
    ".undervolt": ("UndervoltPolicy",),
})
