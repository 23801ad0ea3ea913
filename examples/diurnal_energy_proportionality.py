#!/usr/bin/env python3
"""A day in the life of one server: loadline borrowing vs consolidation.

Weights Fig. 12's raytrace columns — chip power under the consolidation
baseline and under loadline borrowing at each active-core count — by a
diurnal demand trace (threads requested per hour), printing the
hour-by-hour power and the day's energy bill: the energy-proportionality
view the paper's TCO argument (Sec. 3.3, citing Barroso & Hölzle)
implies.  A ``*`` marks an hour whose demand changed, i.e. a reschedule.

Run:  python examples/diurnal_energy_proportionality.py
"""

from repro.analysis.figures import diurnal_trace, fig12_borrowing_scaling

HOUR = 3600.0  # hourly intervals


def main() -> None:
    series = fig12_borrowing_scaling(workload="raytrace")
    trace = diurnal_trace(n_intervals=24, low=1, high=8)

    print("Hourly power under a diurnal load (raytrace service)")
    print(f"{'hour':>5} {'demand':>7} {'baseline W':>11} {'AGS W':>7} {'saving':>8}")
    reschedules = 0
    baseline_energy = ags_energy = 0.0
    for hour, demand in enumerate(trace):
        baseline = series.baseline_power[demand - 1]
        ags = series.borrowing_power[demand - 1]
        rescheduled = hour == 0 or demand != trace[hour - 1]
        reschedules += rescheduled
        baseline_energy += baseline
        ags_energy += ags
        marker = "*" if rescheduled else " "
        print(
            f"{hour:>5} {demand:>7} {baseline:>11.1f} {ags:>7.1f} "
            f"{1.0 - ags / baseline:>8.1%} {marker}"
        )
    baseline_energy *= HOUR
    ags_energy *= HOUR

    print()
    print(f"reschedules: {reschedules} (hours whose demand changed)")
    print(
        f"day's chip energy: baseline {baseline_energy / 3.6e6:.2f} kWh, "
        f"AGS {ags_energy / 3.6e6:.2f} kWh "
        f"({1.0 - ags_energy / baseline_energy:.1%} saved)"
    )


if __name__ == "__main__":
    main()
