"""Behavioural model of the POWER7+ die.

Submodules
----------
``timing``   – the Vmin(f) timing wall and margin arithmetic.
``power``    – dynamic CV²f plus leakage power model.
``cpm``      – critical path monitor sensors (margin → 0..11 code).
``dpll``     – per-core slew-limited digital PLL.
``thermal``  – first-order thermal RC model.
``core``     – one core: SMT thread slots, activity, gating state.
``chip``     – the eight-core die tying everything together.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".chip": ("Power7Chip",),
    ".core": ("CoreState", "Power7Core"),
    ".cpm": ("CriticalPathMonitor", "CpmBank"),
    ".dpll": ("DigitalPll",),
    ".dvfs": ("DvfsTable",),
    ".power": ("PowerBreakdown", "PowerModel"),
    ".thermal": ("ThermalModel",),
    ".timing": ("TimingModel",),
    ".vcs": ("VcsDomain",),
})
