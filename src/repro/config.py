"""Configuration dataclasses for the simulated POWER7+ platform.

Every tunable of the model lives here, with defaults calibrated against the
measurements published in the paper (see ``DESIGN.md`` section 4 for the
anchor table).  The configs are plain frozen dataclasses: construct one,
optionally ``dataclasses.replace`` a few fields, and hand it to the model
constructors.  Validation happens eagerly in ``__post_init__``.

The three layers mirror the physical system:

* :class:`ChipConfig` — the POWER7+ die: core count, DVFS range, timing
  model, power model, CPM and DPLL characteristics.
* :class:`PdnConfig` — everything between the VRM and the transistors:
  loadline resistance, on-chip IR-drop network, di/dt noise process.
* :class:`GuardbandConfig` — the firmware: static guardband size,
  calibration target, voltage step and control interval.
* :class:`ServerConfig` — the Power 720 box: number of sockets, peripheral
  power, and one of each config above.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .units import ghz, mhz, mohm, ms, mv, ns


@dataclass(frozen=True)
class VcsConfig:
    """Parameters of the Vcs power domain (on-chip storage structures).

    POWER7+ splits its supply into Vdd (core/cache logic) and Vcs (storage
    arrays) — Sec. 2.1.  Vcs is *not* adaptively managed: the arrays need a
    retention floor, so the rail holds a fixed voltage and its power varies
    only with access activity and temperature.  It is modelled so the
    platform can report total processor power, but it deliberately sits
    outside the guardband control loops, exactly as in the machine.
    """

    #: Fixed Vcs rail voltage (V).
    voltage: float = 1.05

    #: Array leakage at the rail voltage and 35C (W).
    leakage_nominal: float = 9.0

    #: Access-driven dynamic power per active core at full activity (W).
    dynamic_per_core: float = 0.8

    #: Dynamic floor when the chip is idle but clocked (W).
    dynamic_idle: float = 1.2

    #: Leakage multiplier per degree C above 35C.
    temp_coeff: float = 0.010

    def __post_init__(self) -> None:
        if self.voltage <= 0:
            raise ConfigError("Vcs voltage must be positive")
        if self.leakage_nominal < 0 or self.dynamic_per_core < 0:
            raise ConfigError("Vcs power terms must be >= 0")
        if self.dynamic_idle < 0:
            raise ConfigError("Vcs idle dynamic must be >= 0")


@dataclass(frozen=True)
class ChipConfig:
    """Parameters of one POWER7+ die.

    The timing model is the linear relation the paper measures in Fig. 6a:
    the minimum voltage at which the circuit meets timing at frequency ``f``
    is ``vmin_intercept + vmin_slope * f``.  The default slope (0.2 V/GHz)
    reproduces both the ~10% single-core overclocking headroom (Fig. 4a) and
    the ~170 mV margin observed at 2.8 GHz / 940 mV in Fig. 6a.
    """

    #: Number of physical cores on the die.
    n_cores: int = 8

    #: Simultaneous multithreading ways per core (POWER7+ is SMT4).
    smt_ways: int = 4

    #: Lowest DVFS frequency (Hz).
    f_min: float = ghz(2.8)

    #: Nominal (static-guardband target) frequency (Hz).
    f_nominal: float = ghz(4.2)

    #: DVFS/DPLL frequency step (Hz).  The paper reports 28 MHz steps.
    f_step: float = mhz(28)

    #: Hard DPLL ceiling in overclocking mode (Hz).  ~11% above nominal.
    f_ceiling: float = ghz(4.66)

    #: Intercept of the Vmin(f) timing wall (V).
    vmin_intercept: float = 0.210

    #: Slope of the Vmin(f) timing wall (V per Hz).
    vmin_slope: float = 0.200 / ghz(1)

    #: Effective switched capacitance of one fully active core (F).
    #: Chosen so that one raytrace-class core at ~1.22 V / 4.2 GHz adds ~10 W
    #: (Fig. 3a: ~72 W at one active core, ~144 W at eight).
    core_ceff: float = 1.65e-9

    #: Effective switched capacitance of the Vdd-rail uncore logic (F).
    #: Small by design: the big storage arrays live on the separate Vcs
    #: domain (Sec. 2.1), so the measured Vdd rail is core-dominated.
    uncore_ceff: float = 0.9e-9

    #: Fraction of uncore activity attributable to each active core.
    uncore_activity_per_core: float = 0.05

    #: Uncore activity floor when the chip is idle but clocked.
    uncore_activity_idle: float = 0.20

    #: Leakage power of one powered-on core at nominal V and 35C (W).
    #: The Vdd rail is core-dominated: the large L3 sits on the separate
    #: Vcs domain, so most idle Vdd power is gateable core leakage — the
    #: property loadline borrowing's idle-power half depends on (Fig. 12a).
    core_leakage_nominal: float = 6.4

    #: Leakage power of the Vdd-rail uncore logic at nominal V and 35C (W).
    uncore_leakage_nominal: float = 2.0

    #: Voltage exponent of leakage power (P_leak ∝ V**exp).
    leakage_voltage_exponent: float = 3.0

    #: Leakage multiplier per degree C above the reference temperature.
    leakage_temp_coeff: float = 0.010

    #: Reference temperature for the leakage model (C).  The paper's die
    #: runs 27–38C (Sec. 4.1), so nominal leakage is anchored at 35C.
    leakage_temp_ref: float = 35.0

    #: Residual leakage fraction of a power-gated core (header losses).
    power_gate_residual: float = 0.03

    #: Idle (clocked, no work) core activity factor.
    idle_activity: float = 0.10

    #: Number of CPM sensors per core (paper: 5 per core, 40 per chip).
    cpms_per_core: int = 5

    #: CPM edge-detector codes run 0..cpm_code_max (12-position detector).
    cpm_code_max: int = 11

    #: Timing margin represented by one CPM code step at f_nominal (V).
    #: The paper measures ~21 mV/bit (Fig. 6).
    cpm_mv_per_bit: float = mv(21)

    #: Relative sigma of per-CPM sensitivity (process variation, Fig. 6b).
    cpm_sensitivity_sigma: float = 0.12

    #: Relative sigma of per-CPM calibration offset in code units.
    cpm_offset_sigma: float = 0.25

    #: Maximum DPLL slew: fraction of current frequency per slew interval.
    dpll_slew_fraction: float = 0.07

    #: DPLL slew interval (s).  Paper: 7% in under 10 ns.
    dpll_slew_interval: float = ns(10)

    #: The Vcs (storage) domain riding alongside the Vdd rail.
    vcs: "VcsConfig" = field(default_factory=lambda: VcsConfig())

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ConfigError(f"n_cores must be >= 1, got {self.n_cores}")
        if self.smt_ways < 1:
            raise ConfigError(f"smt_ways must be >= 1, got {self.smt_ways}")
        if not self.f_min < self.f_nominal <= self.f_ceiling:
            raise ConfigError(
                "require f_min < f_nominal <= f_ceiling, got "
                f"{self.f_min} / {self.f_nominal} / {self.f_ceiling}"
            )
        if self.f_step <= 0:
            raise ConfigError(f"f_step must be positive, got {self.f_step}")
        if self.vmin_slope <= 0:
            raise ConfigError("vmin_slope must be positive")
        if self.cpm_code_max < 1:
            raise ConfigError("cpm_code_max must be >= 1")
        if self.cpms_per_core < 1:
            raise ConfigError("cpms_per_core must be >= 1")
        if not 0 <= self.power_gate_residual < 1:
            raise ConfigError("power_gate_residual must be in [0, 1)")

    def vmin(self, frequency: float) -> float:
        """Minimum voltage (V) at which the circuit meets timing at ``frequency``."""
        return self.vmin_intercept + self.vmin_slope * frequency

    def fmax_at(self, voltage: float) -> float:
        """Highest frequency (Hz) the circuit can meet timing at ``voltage``."""
        return (voltage - self.vmin_intercept) / self.vmin_slope

    @property
    def n_cpms(self) -> int:
        """Total CPM count on the die (paper: 40)."""
        return self.n_cores * self.cpms_per_core


@dataclass(frozen=True)
class DidtConfig:
    """Parameters of the di/dt (inductive noise) process.

    The paper (Sec. 4.3, Fig. 9) distinguishes *typical-case* ripple, which
    shrinks as activity staggers across more cores, from *worst-case* droops,
    rare alignment events whose magnitude grows slightly with core count.
    """

    #: Typical-case ripple amplitude of one active core at full activity (V).
    ripple_single_core: float = mv(21)

    #: Exponent of the 1/N**k smoothing of typical ripple with active cores.
    ripple_smoothing_exponent: float = 0.45

    #: Worst-case droop magnitude with one active core (V).
    droop_single_core: float = mv(26)

    #: Additional worst-case droop per extra active core, as a fraction of
    #: the single-core droop when all remaining cores are active.  Aligned
    #: multicore surges more than double the single-core droop at eight
    #: active cores — the magnified worst-case noise of Sec. 4.3.
    droop_alignment_gain: float = 0.9

    #: Mean rate of worst-case droop events per active core (events/s).
    #: Deep aligned droops are rare (Sec. 4.3: "such large worst-case
    #: droops occur infrequently") — most 32 ms sticky windows are empty.
    droop_rate_per_core: float = 1.0

    #: Duration of one droop event (s).
    droop_duration: float = 120e-9

    def __post_init__(self) -> None:
        if self.ripple_single_core < 0 or self.droop_single_core < 0:
            raise ConfigError("noise magnitudes must be non-negative")
        if self.ripple_smoothing_exponent < 0:
            raise ConfigError("ripple_smoothing_exponent must be >= 0")
        if self.droop_rate_per_core < 0:
            raise ConfigError("droop_rate_per_core must be >= 0")


@dataclass(frozen=True)
class PdnConfig:
    """Power-delivery parameters between the VRM and one die.

    The passive drop is ``(r_loadline + r_ir_shared) * I_chip`` plus a
    per-core local term ``r_ir_local * I_core`` — this split reproduces the
    paper's observation (Fig. 7) that voltage drop has a chip-wide global
    component plus a localized component that jumps when a specific core is
    activated.
    """

    #: VRM loadline resistance (ohm).  Per-socket delivery path.
    r_loadline: float = mohm(0.24)

    #: Shared on-chip grid resistance seen by total chip current (ohm).
    r_ir_shared: float = mohm(0.10)

    #: Local per-core branch resistance seen by that core's current (ohm).
    r_ir_local: float = mohm(0.70)

    #: Neighbour coupling: fraction of a core's local drop leaking into
    #: adjacent cores of the 2x4 floorplan.
    ir_neighbour_coupling: float = 0.38

    #: VRM output voltage step (V).  POWER7+ VRMs step in 6.25 mV.
    vrm_step: float = mv(6.25)

    #: di/dt noise process parameters.
    didt: DidtConfig = field(default_factory=DidtConfig)

    def __post_init__(self) -> None:
        for name in ("r_loadline", "r_ir_shared", "r_ir_local"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0 <= self.ir_neighbour_coupling <= 1:
            raise ConfigError("ir_neighbour_coupling must be in [0, 1]")
        if self.vrm_step <= 0:
            raise ConfigError("vrm_step must be positive")


@dataclass(frozen=True)
class GuardbandConfig:
    """Firmware-level guardband management parameters.

    ``static_guardband`` is the voltage the traditional (static) policy adds
    on top of the worst-case-stressed Vmin at the target frequency; it covers
    loadline, IR drop, worst-case di/dt, aging and calibration error.  With
    the default chip timing model this puts the static Vdd at
    ``vmin(4.2 GHz) + static_guardband ≈ 1.235 V``, matching Fig. 10b.
    """

    #: Total static guardband above Vmin(f_target) (V).
    static_guardband: float = mv(185)

    #: CPM code the calibration procedure targets (paper: ~2).
    calibration_code: int = 2

    #: Firmware control loop interval (s).  Paper: 32 ms.
    control_interval: float = ms(32)

    #: Undervolting convergence tolerance on frequency (fraction of target).
    frequency_tolerance: float = 0.002

    #: Extra deterministic margin the firmware reserves beyond the CPM
    #: calibration point, covering mechanism nondeterminism (V).
    nondeterminism_margin: float = mv(3)

    def __post_init__(self) -> None:
        if self.static_guardband <= 0:
            raise ConfigError("static_guardband must be positive")
        if self.calibration_code < 0:
            raise ConfigError("calibration_code must be >= 0")
        if self.control_interval <= 0:
            raise ConfigError("control_interval must be positive")


@dataclass(frozen=True)
class ServerConfig:
    """An IBM Power 720 Express (7R2)-class server: two sockets, shared VRM.

    Peripheral power (memory, storage, network, fans) is modelled as a
    constant because the paper holds those components powered throughout
    (Sec. 5.1.1: "Other components such as memory chips and disks are
    powered on steadily throughout our analysis").
    """

    #: Number of processor sockets.
    n_sockets: int = 2

    #: Per-die configuration (identical dies).
    chip: ChipConfig = field(default_factory=ChipConfig)

    #: Per-socket power delivery configuration (identical paths).
    pdn: PdnConfig = field(default_factory=PdnConfig)

    #: Firmware configuration.
    guardband: GuardbandConfig = field(default_factory=GuardbandConfig)

    #: Constant peripheral power for the whole server (W).
    peripheral_power: float = 120.0

    #: Named power-delivery backend (see :mod:`repro.pdn.backends`).
    #: Resolved against the registry when a server is built; unknown
    #: names fail there with the registered names listed.
    pdn_backend: str = "power7"

    def __post_init__(self) -> None:
        if self.n_sockets < 1:
            raise ConfigError(f"n_sockets must be >= 1, got {self.n_sockets}")
        if self.peripheral_power < 0:
            raise ConfigError("peripheral_power must be >= 0")
        if not self.pdn_backend or not isinstance(self.pdn_backend, str):
            raise ConfigError("pdn_backend must be a non-empty string")

    @property
    def total_cores(self) -> int:
        """Total physical cores in the server."""
        return self.n_sockets * self.chip.n_cores

    @property
    def static_vdd(self) -> float:
        """The fixed Vdd used by the static-guardband policy (V)."""
        return self.chip.vmin(self.chip.f_nominal) + self.guardband.static_guardband


def positive_int_from_env(name: str, default: int) -> int:
    """The integer value of environment variable ``name``.

    Unset or empty gives ``default``; anything but an integer >= 1 is a
    :class:`ConfigError` naming the variable.
    """
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {raw!r}")
    return value
