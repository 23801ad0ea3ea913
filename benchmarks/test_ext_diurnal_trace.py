"""Extension — loadline borrowing over a diurnal day.

Weights Fig. 12's raytrace columns (borrowing vs the consolidation
baseline at each active-core count) by a canonical 24-hour demand trace
and integrates the day's energy: the energy-proportionality framing of
the paper's TCO argument (Sec. 3.3).  A reschedule is an hour whose
demand differs from the hour before.
"""

from conftest import run_once

from repro.analysis.figures import diurnal_trace, fig12_borrowing_scaling

HOUR = 3600.0


def test_ext_diurnal_trace(benchmark, report):
    series = run_once(benchmark, fig12_borrowing_scaling)
    trace = diurnal_trace(24, low=1, high=8)
    baseline = [series.baseline_power[demand - 1] for demand in trace]
    ags = [series.borrowing_power[demand - 1] for demand in trace]
    baseline_energy = sum(baseline) * HOUR
    ags_energy = sum(ags) * HOUR
    saving = 1.0 - ags_energy / baseline_energy
    reschedules = 1 + sum(a != b for a, b in zip(trace, trace[1:]))

    report.append("")
    report.append("Extension — diurnal trace (24 h, raytrace, 1-8 threads)")
    for label, demand in (("trough", min(trace)), ("peak  ", max(trace))):
        base_w = series.baseline_power[demand - 1]
        ags_w = series.borrowing_power[demand - 1]
        report.append(
            f"  {label} ({demand} thr): baseline {base_w:.1f} W, "
            f"AGS {ags_w:.1f} W ({1.0 - ags_w / base_w:.1%})"
        )
    report.append(
        f"  day: baseline {baseline_energy / 3.6e6:.2f} kWh, AGS "
        f"{ags_energy / 3.6e6:.2f} kWh ({saving:.1%} saved), "
        f"{reschedules} reschedules"
    )

    assert saving > 0.01
    assert reschedules < len(trace)
