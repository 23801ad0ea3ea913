"""Extension — one simulated day of online AGS fleet scheduling.

Drives the full discrete-event fleet simulator through the default
diurnal arrival trace (4 servers, ~430 jobs, seed 7) and compares three
regimes over the identical schedule:

* **AGS** — online regime switching per server (borrowing / packing /
  QoS mapping), undervolted batch servers, overclocked QoS servers with
  the advisor gate on socket-0 co-location;
* **static guardband** — the very same placements settled without
  adaptive guardbanding (the sweep runner's free static rail);
* **consolidation** — the conventional baseline: pack-first placement
  under the static guardband, no QoS machinery.

This is the paper's system-level claim at fleet scale: AGS strictly
undercuts the static guardband's energy while holding a boost-frequency
SLA the static machine cannot offer at any price.
"""

from conftest import run_once

from repro.fleet import FleetConfig, run_comparison
from repro.fleet.metrics import summarize_by_class
from repro.fleet.traffic import LATENCY_CRITICAL


def test_ext_fleet_day(benchmark, report):
    config = FleetConfig(n_servers=4, seed=7)

    comparison = run_once(benchmark, run_comparison, config)
    ags = comparison.ags
    consolidation = comparison.consolidation

    report.append("")
    report.append("Extension — fleet day (4 servers, diurnal trace, seed 7)")
    report.append(
        f"  jobs: {ags.n_arrivals} arrived, {ags.n_completions} completed, "
        f"{ags.n_running} running, {ags.n_queued} queued at horizon"
    )
    report.append(
        f"  energy: AGS {ags.adaptive_energy_kwh:.2f} kWh, static guardband "
        f"{ags.static_energy_kwh:.2f} kWh ({ags.saving_fraction:.1%} saved), "
        f"consolidation {consolidation.adaptive_energy_kwh:.2f} kWh"
    )
    lc_stats = summarize_by_class(ags).get(LATENCY_CRITICAL)
    if lc_stats:
        report.append(
            f"  QoS: {ags.qos_violations} violation(s) over "
            f"{lc_stats['arrivals']:.0f} latency-critical job(s), "
            f"mean slowdown {lc_stats['mean_slowdown']:.2f}"
        )
    report.append(
        f"  {ags.n_epochs + consolidation.n_epochs} placements settled; "
        f"event log {ags.event_log_hash[:16]}"
    )

    # The acceptance bar: strict energy win over the static guardband,
    # zero QoS violations with the gate on, exact job conservation.
    assert comparison.ags_energy_joules < comparison.static_energy_joules
    assert ags.qos_violations == 0
    assert ags.conserved
    assert consolidation.conserved
