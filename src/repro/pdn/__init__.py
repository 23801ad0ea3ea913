"""Power delivery network: VRM, loadline, on-chip IR drop, di/dt noise.

The decomposition of on-chip voltage drop follows the paper's Fig. 8:

``V_transistor = V_vrm_setpoint − loadline − IR drop − di/dt noise``

with the loadline at the VRM, the IR drop across the package and on-chip
grid, and di/dt noise split into a typical-case ripple and rare worst-case
droop events.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".backends": (
        "DEFAULT_BACKEND",
        "PdnBackend",
        "backend_names",
        "get_backend",
        "register_backend",
    ),
    ".decomposition": ("DecomposedDrop", "DropDecomposer"),
    ".delivery": ("DropBreakdown", "PowerDeliveryPath"),
    ".didt": ("DidtNoiseModel", "DroopEvent"),
    ".irdrop": ("IrDropNetwork",),
    ".vrm": ("VoltageRegulatorModule",),
})
