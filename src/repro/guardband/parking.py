"""Parking policy for fully power-gated chips.

When every core of a chip is power gated, the Vdd rail cannot be actively
managed by the CPM→DPLL loop (no live sensors), but standard DVFS power
management still applies: the rail parks at the lowest DVFS operating point
— enough voltage to keep the nest logic functional at the minimum frequency
and to wake cores — regardless of the guardband mode.  This is the state of
the idle processor in the consolidation baseline of Sec. 5.1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..config import ServerConfig

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..sim.socket import ProcessorSocket, SocketSolution


def park_voltage(config: ServerConfig) -> float:
    """Rail voltage (V) of a fully gated chip: lowest DVFS point.

    Vmin at the minimum frequency plus the full static guardband — parking
    is a safety state, so it keeps the conservative margin.
    """
    return config.chip.vmin(config.chip.f_min) + config.guardband.static_guardband


def fully_gated(socket: "ProcessorSocket") -> bool:
    """Whether every core of the socket is power gated (it parks)."""
    return all(core.gated for core in socket.chip.cores)


def park_if_fully_gated(
    socket: "ProcessorSocket", config: ServerConfig
) -> Optional["SocketSolution"]:
    """Park the socket when all its cores are gated; else return ``None``."""
    if not fully_gated(socket):
        return None
    socket.path.set_voltage(park_voltage(config))
    return socket.solve(frequencies=[config.chip.f_min] * config.chip.n_cores)
