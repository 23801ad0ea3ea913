"""On-chip IR-drop network over the 2x4 core floorplan.

The resistive drop between the package bumps and each core's transistors
has two components the paper's Fig. 7 separates empirically:

* a **global** term — total chip current through the shared package/grid
  resistance drops the whole Vdd plane together, which is why idle cores
  see rising voltage drop when *other* cores are activated;
* a **local** term — each core's own current through its local branch
  resistance, which is why a core's measured drop jumps by ~2% the moment
  that core itself is activated, and couples (attenuated) into floorplan
  neighbours.

:class:`IrDropNetwork` computes the per-core IR drop from per-core
currents using the shared resistance plus a neighbour-coupling weight
matrix built from the floorplan's Manhattan distances.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..config import PdnConfig
from ..floorplan import Floorplan


class IrDropNetwork:
    """Per-core IR drop as a linear map over per-core currents."""

    def __init__(self, config: PdnConfig, floorplan: Floorplan) -> None:
        self._config = config
        self._floorplan = floorplan
        weights = np.asarray(
            floorplan.coupling_weights(config.ir_neighbour_coupling), dtype=float
        )
        # The matrix maps per-core currents (A) to per-core local IR drops
        # (V): a core's own current sees the full branch resistance, and a
        # fraction (decaying geometrically with Manhattan distance) of every
        # other core's current is felt through the shared grid.
        self._local_matrix = config.r_ir_local * weights
        self._n_cores = floorplan.n_cores

    @property
    def n_cores(self) -> int:
        """Number of cores the network spans."""
        return self._n_cores

    def shared_drop(self, total_current: float) -> float:
        """Global grid drop (V) from total chip current."""
        if total_current < 0:
            raise ValueError(f"total_current must be >= 0, got {total_current}")
        return self._config.r_ir_shared * total_current

    def local_drops(self, core_currents: Sequence[float]) -> List[float]:
        """Per-core local IR drop (V) including neighbour coupling."""
        return self.coupled(self.checked_currents(core_currents))

    def checked_currents(self, core_currents: Sequence[float]) -> np.ndarray:
        """``core_currents`` as a float array, checked for width and sign."""
        currents = np.asarray(core_currents, dtype=float)
        if currents.shape != (self._n_cores,):
            raise ValueError(
                f"expected {self._n_cores} core currents, got {currents.shape}"
            )
        if np.any(currents < 0):
            raise ValueError("core currents must be >= 0")
        return currents

    def coupled(self, core_currents: Sequence[float]) -> List[float]:
        """:meth:`local_drops` without the checks, for currents that are
        valid by construction (the socket's fixed point)."""
        return (self._local_matrix @ np.asarray(core_currents, dtype=float)).tolist()

    def core_drops(self, core_currents: Sequence[float]) -> List[float]:
        """Total per-core IR drop: shared grid term plus local term."""
        shared = self.shared_drop(float(np.sum(core_currents)))
        return [shared + local for local in self.local_drops(core_currents)]

    def worst_drop(self, core_currents: Sequence[float]) -> float:
        """Largest per-core IR drop — what limits chip-wide undervolting."""
        return max(self.core_drops(core_currents))
