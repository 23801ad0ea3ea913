"""AMESTER-style telemetry: sensors, CPM readers, and the 32 ms poller.

The paper reads its platform through the IBM AMESTER tool at a minimum
sampling interval of 32 ms, with CPMs readable in *sample* mode (an
instantaneous snapshot) or *sticky* mode (the worst — smallest — code seen
in the past window).  This package reproduces those read semantics against
the simulator, so the analysis code consumes the same kind of data the
paper's authors had.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".amester": ("Amester", "TelemetryRecord"),
    ".cpm_reader": ("CpmReadMode", "CpmReader"),
    ".sensors": ("SensorReading", "SocketSensors"),
})
