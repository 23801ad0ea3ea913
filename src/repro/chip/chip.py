"""The eight-core POWER7+ die: cores + CPM bank + DPLLs + power model.

:class:`Power7Chip` is the structural container.  It owns the occupancy
state (which threads run where, which cores are gated), the sensors and the
actuators.  It deliberately does *not* solve the electrical fixed point —
voltage depends on the delivery path, which belongs to the socket model in
:mod:`repro.sim.socket`.  The chip answers the questions the socket model
asks:

* "given per-core voltages and frequencies, how much power do you draw?"
* "given per-core timing margins, what do your CPMs read?"
* "slew core i's DPLL toward this frequency."
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import ChipConfig
from ..floorplan import Floorplan
from .core import CoreState, HardwareThread, Power7Core
from .cpm import CpmBank
from .dpll import DigitalPll
from .power import PowerBreakdown, PowerModel
from .thermal import ThermalModel
from .timing import TimingModel
from .vcs import VcsDomain


class Power7Chip:
    """Structural model of one POWER7+ die."""

    def __init__(
        self,
        config: Optional[ChipConfig] = None,
        seed: int = 7,
    ) -> None:
        self.config = config or ChipConfig()
        self.floorplan = Floorplan(self.config.n_cores)
        self.timing = TimingModel(self.config)
        self.power_model = PowerModel(self.config)
        self.thermal = ThermalModel()
        self.cpm_bank = CpmBank(self.config, self.floorplan, seed=seed)
        self.vcs = VcsDomain(self.config.vcs)
        self.cores = [Power7Core(self.config, i) for i in range(self.config.n_cores)]
        self.dplls = [DigitalPll(self.config) for _ in range(self.config.n_cores)]

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    @property
    def n_cores(self) -> int:
        """Number of physical cores."""
        return self.config.n_cores

    def core_states(self) -> List[CoreState]:
        """Occupancy snapshot of every core."""
        return [core.state() for core in self.cores]

    def active_core_ids(self) -> List[int]:
        """Ids of cores running at least one thread."""
        return [c.core_id for c in self.cores if c.active]

    def n_active_cores(self) -> int:
        """Number of cores running at least one thread."""
        return len(self.active_core_ids())

    def place_thread(self, core_id: int, thread: HardwareThread) -> None:
        """Pin ``thread`` on ``core_id``."""
        self.cores[core_id].place(thread)

    def clear_threads(self) -> None:
        """Evict every thread from every core."""
        for core in self.cores:
            core.evict()

    def gate_unused(self, keep_on: int) -> None:
        """Gate all empty cores beyond the first ``keep_on`` powered-on ones.

        Mirrors the enterprise policy in Sec. 5.1.1 where a number of cores
        is kept clocked for instant responsiveness and the remainder is put
        into deep sleep.
        """
        if keep_on < 0:
            raise ValueError(f"keep_on must be >= 0, got {keep_on}")
        powered = 0
        for core in self.cores:
            if core.gated:
                continue
            if core.n_threads > 0 or powered < keep_on:
                powered += 1
            else:
                core.gate()

    def ungate_all(self) -> None:
        """Wake every gated core."""
        for core in self.cores:
            if core.gated:
                core.ungate()

    # ------------------------------------------------------------------
    # Sensors and actuators
    # ------------------------------------------------------------------
    def frequencies(self) -> List[float]:
        """Per-core DPLL output frequencies (Hz)."""
        return [dpll.frequency for dpll in self.dplls]

    def set_all_frequencies(self, frequency: float) -> None:
        """Force every DPLL output (mode switches, experiment setup)."""
        for dpll in self.dplls:
            dpll.set_frequency(frequency)

    def power(
        self,
        voltages: Sequence[float],
        temperature: Optional[float] = None,
    ) -> PowerBreakdown:
        """Power drawn at per-core ``voltages`` and current DPLL frequencies."""
        states = self.core_states()
        temp = self.thermal.temperature if temperature is None else temperature
        return self.power_model.chip_power(
            activities=[s.activity for s in states],
            voltages=list(voltages),
            frequencies=self.frequencies(),
            gated=[s.gated for s in states],
            temperature=temp,
        )

    def margins(self, voltages: Sequence[float]) -> List[float]:
        """Per-core timing margin (V) at the given on-chip voltages."""
        if len(voltages) != self.n_cores:
            raise ValueError(
                f"expected {self.n_cores} voltages, got {len(voltages)}"
            )
        return [
            self.timing.margin(v, dpll.frequency)
            for v, dpll in zip(voltages, self.dplls)
        ]

    def cpm_codes(self, voltages: Sequence[float]) -> List[List[int]]:
        """Per-core CPM codes at the given on-chip voltages."""
        codes = []
        for core_id, (v, dpll) in enumerate(zip(voltages, self.dplls)):
            margin = self.timing.margin(v, dpll.frequency)
            codes.append(self.cpm_bank.read_core(core_id, margin, dpll.frequency))
        return codes

    def worst_cpm_codes(self, voltages: Sequence[float]) -> List[int]:
        """Per-core worst (minimum) CPM code — the DPLL loop's input."""
        return [min(core_codes) for core_codes in self.cpm_codes(voltages)]

    def vcs_power(self, temperature: Optional[float] = None) -> float:
        """Vcs (storage) rail power at the current occupancy (W).

        Not part of the paper's "chip power" metric (the Vdd rail), but
        needed for total-processor-power accounting.
        """
        states = self.core_states()
        active = [s for s in states if s.active]
        mean_activity = (
            sum(s.activity for s in active) / len(active) if active else 0.0
        )
        temp = self.thermal.temperature if temperature is None else temperature
        return self.vcs.power(len(active), temp, mean_activity)

    def chip_mips(self) -> float:
        """Aggregate chip MIPS at current occupancy and frequencies.

        MIPS per core = IPC × frequency / 1e6, summed over cores — the
        quantity the paper's Fig. 16 predictor takes as input, accumulated
        from per-core hardware counters.
        """
        total = 0.0
        for core, dpll in zip(self.cores, self.dplls):
            state = core.state()
            total += state.ipc * dpll.frequency / 1e6
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Power7Chip(cores={self.n_cores}, "
            f"active={self.n_active_cores()})"
        )
