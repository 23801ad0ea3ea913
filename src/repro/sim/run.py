"""The server factory every measurement path builds its machine with.

Measurements themselves go through :func:`repro.api.measure` (one
placement on one server) and :class:`repro.sim.batch.SweepRunner`
(batched, cached grids); both realize placements with
:func:`repro.sim.batch.settle_task`.
"""

from __future__ import annotations

from typing import Optional

from ..config import ServerConfig
from .server import Power720Server


def build_server(config: Optional[ServerConfig] = None, seed: int = 7) -> Power720Server:
    """A fresh default server (two POWER7+ sockets behind one VRM)."""
    return Power720Server(config=config, seed=seed)
