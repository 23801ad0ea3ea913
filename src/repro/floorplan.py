"""POWER7+ die floorplan: core placement and CPM placement.

The eight cores sit in two rows of four (cores 0–3 on the top row, 4–7 on
the bottom row), matching the physical layout referenced by the paper
(Sec. 4.2, citing Zyuban et al.).  The floorplan provides adjacency used by
the IR-drop network's neighbour coupling, and the canonical placement of the
five CPMs inside each core (one per major unit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Unit names hosting the five per-core CPMs.  The exact units follow the
#: CPM placement discussion in Floyd et al. (IBM JRD 2013): instruction
#: fetch, instruction scheduling, fixed point, vector/scalar, and the L2
#: interface region.
CPM_UNITS: Tuple[str, ...] = ("ifu", "isu", "fxu", "vsu", "l2if")

#: Number of core columns in the 2x4 grid.
GRID_COLUMNS = 4

#: Number of core rows in the 2x4 grid.
GRID_ROWS = 2


@dataclass(frozen=True)
class CorePosition:
    """Grid position of one core on the die."""

    core_id: int
    row: int
    column: int

    def distance_to(self, other: "CorePosition") -> float:
        """Manhattan distance between two cores in grid units."""
        return abs(self.row - other.row) + abs(self.column - other.column)


class Floorplan:
    """Spatial layout of an ``n_cores``-core die in a 2-row grid.

    Parameters
    ----------
    n_cores:
        Number of cores.  The default POWER7+ die has eight; smaller values
        are accepted (cores fill the top row first) so reduced configs can
        be simulated and tested.
    """

    def __init__(self, n_cores: int = 8) -> None:
        if n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {n_cores}")
        # Dies wider than the POWER7+'s 2x4 keep two rows and grow
        # columns (a long slab, like scaled-up server dies).  Widths up
        # to eight keep the canonical 4-column grid, so every historical
        # layout — and every distance-derived IR matrix — is unchanged.
        columns = max(GRID_COLUMNS, -(-n_cores // GRID_ROWS))
        self._n_cores = n_cores
        self._positions = [
            CorePosition(core_id=i, row=i // columns, column=i % columns)
            for i in range(n_cores)
        ]

    @property
    def n_cores(self) -> int:
        """Number of cores in the floorplan."""
        return self._n_cores

    def position(self, core_id: int) -> CorePosition:
        """Grid position of ``core_id``."""
        self._check(core_id)
        return self._positions[core_id]

    def neighbours(self, core_id: int) -> List[int]:
        """Cores physically adjacent (Manhattan distance 1) to ``core_id``."""
        self._check(core_id)
        me = self._positions[core_id]
        return [
            other.core_id
            for other in self._positions
            if other.core_id != core_id and me.distance_to(other) == 1
        ]

    def distance(self, a: int, b: int) -> float:
        """Manhattan distance in grid units between cores ``a`` and ``b``."""
        self._check(a)
        self._check(b)
        return self._positions[a].distance_to(self._positions[b])

    def coupling_weights(self, coupling: float) -> List[List[float]]:
        """Neighbour-coupling weight matrix for the IR-drop network.

        Row ``i`` gives the fraction of core ``j``'s local current whose IR
        drop is felt at core ``i``: 1.0 on the diagonal, ``coupling`` for
        direct neighbours, and ``coupling**distance`` beyond (a geometric
        decay that approximates grid spreading).
        """
        if not 0 <= coupling <= 1:
            raise ValueError(f"coupling must be in [0, 1], got {coupling}")
        return [
            [1.0 if a is b else coupling ** a.distance_to(b) for b in self._positions]
            for a in self._positions
        ]

    def cpm_locations(self, cpms_per_core: int) -> Dict[int, List[str]]:
        """Map core id → list of unit names hosting that core's CPMs."""
        if cpms_per_core < 1:
            raise ValueError("cpms_per_core must be >= 1")
        units = [CPM_UNITS[i % len(CPM_UNITS)] for i in range(cpms_per_core)]
        return {core: list(units) for core in range(self._n_cores)}

    def _check(self, core_id: int) -> None:
        if not 0 <= core_id < self._n_cores:
            raise ValueError(
                f"core_id must be in [0, {self._n_cores}), got {core_id}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Floorplan(n_cores={self._n_cores})"
