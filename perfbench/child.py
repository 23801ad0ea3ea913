"""One benchmark repetition in a fresh process: set up, run, check, report.

Run by ``perfbench/run.py`` as ``python -m perfbench.child`` from the
checkout root with ``src`` on ``PYTHONPATH``.  A fresh process per
repetition is what makes every settle cache start empty.  The last
stdout line is one JSON object (see :func:`main`).

Times are CPU seconds of this single-threaded process
(``time.process_time``): on a shared virtual machine the wall clock also
counts the time the host hands the CPU to other guests, which moved the
wall time of identical runs by up to 2x.  Wall seconds are reported
beside them.  The process also times :func:`reference_kernel` right
before and right after the timed call, so the parent can scale its times
by the host's speed at that moment.
"""

import argparse
import json
import os
import resource
import sys
import time

from perfbench.workloads import DEFAULT_SEED, WORKLOADS, check

#: Minimum share of the traced run the spans must account for.
MIN_COVERAGE = 0.95


def reference_kernel() -> float:
    """CPU seconds of a fixed pure-Python kernel (tuple-keyed dict
    traffic, float recurrences, a sort), the host-speed yardstick.

    It shares no code with the program, so a change to the program
    leaves it alone.  The host's speed swung 20% or more over minutes
    even in CPU time; this kernel's time follows those swings.
    """
    start = time.process_time()
    table = {}
    acc = 0.0
    for i in range(120_000):
        key = (i % 977, i % 13)
        x = table.get(key, 0.5)
        for _ in range(8):
            x = x * 0.999 + 0.001 * (x * x - 0.25)
        table[key] = x
        acc += x
    acc += len(sorted(table.items(), key=lambda item: item[1]))
    return time.process_time() - start


def cache_state() -> str:
    """``"cold"`` when no settle cache or fleet memo holds an entry."""
    from repro.fleet import engine, scheduler
    from repro.fleet.settle_cache import fleet_settle_cache
    from repro.sim import batch

    warm = [
        name
        for name, size in (
            ("fleet_settle_cache", len(fleet_settle_cache())),
            ("idle_power_memo", len(engine._idle_power_memo)),
            ("job_rate_memo", len(engine._job_rate_memo)),
            ("plan_memo", len(scheduler._plan_memo)),
            ("freq_memo", len(scheduler._freq_memo)),
            ("predictor_memo", len(scheduler._predictor_memo)),
            ("default_runner", int(batch._default_runner is not None)),
        )
        if size
    ]
    return "cold" if not warm else "warm:" + ",".join(warm)


def layer_metrics(tracer, setup_stats, cpu_s: float, outcome) -> dict:
    """The per-layer table of one traced run (see BENCHMARK.json)."""
    s = tracer.stats
    c = tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "trace.s": s["trace"].total_s,
        "trace.jobs": c.trace_jobs,
        "admit.calls": s["admit"].calls,
        "admit.self_s": s["admit"].self_s,
        "admit.queued_ratio": ratio(c.admit_queued, s["admit"].calls),
        "plan.calls": s["plan"].calls,
        "plan.s": s["plan"].total_s,
        "gate.settle_calls": c.gate_settle_calls,
        "gate.solve_s": c.gate_solve_s,
        "settle.lookup.calls": s["settle.lookup"].calls,
        "settle.lookup.s": s["settle.lookup"].total_s,
        "settle.lookup.hit_ratio": ratio(c.lookup_hits, s["settle.lookup"].calls),
        "settle.store.calls": s["settle.store"].calls,
        "settle.probe_calls": c.probe_calls,
        "runner.calls": s["runner"].calls,
        "runner.self_s": s["runner"].self_s,
        "opcache.calls": s["opcache"].calls,
        "opcache.hit_ratio": ratio(c.opcache_hits, s["opcache"].calls),
        "build.calls": s["build"].calls,
        "build.s": s["build"].total_s,
        "solve.calls": s["solve"].calls,
        "solve.s": s["solve"].total_s,
        "guardband.calls": s["guardband"].calls,
        "guardband.self_s": s["guardband"].self_s,
        # Electrical fixed-point iterations (one PDN solve each) per
        # controller call: the firmware loop's depth.
        "guardband.iters_per_call": ratio(s["pdn"].calls, s["guardband"].calls),
        "chip_power.calls": s["chip_power"].calls,
        "chip_power.s": s["chip_power"].total_s,
        "pdn.calls": s["pdn"].calls,
        "pdn.s": s["pdn"].total_s,
        "powercap.ticks": s["powercap"].calls,
        "powercap.s": s["powercap"].total_s,
        "powercap.throttle_ratio": outcome.throttle_ratio,
        "merge.s": s["merge"].total_s,
        "cell.self_s": s["cell"].self_s,
        "scenario.load_s": setup_stats["scenario.load"].total_s,
        "scenario.lower_s": s["scenario.lower"].total_s,
        "engine.self_s": s["engine"].self_s,
        "coverage_ratio": ratio(tracer.self_time_s(), cpu_s),
        "ags_saving_pct": outcome.ags_saving_pct,
        "qos_violations": outcome.qos_violations,
        "cap_tracking_err_pct": outcome.cap_tracking_err_pct,
        "borrow_gain_pp": outcome.borrow_gain_pp,
    }


def load_failures(workload: str, layers: dict, cpu_s: float, outcome) -> list:
    """Whether a full-scale traced run loaded the layer the workload
    exists for, with the layers' spans accounting for its time."""
    failures = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(f"{workload}: expected {what}")

    expect(
        layers["coverage_ratio"] >= MIN_COVERAGE,
        f"layer spans covering >= {MIN_COVERAGE:.0%} of the run, "
        f"got {layers['coverage_ratio']:.3f}",
    )
    solve_share = layers["solve.s"] / cpu_s
    if workload in ("fleet_cold", "sweep_fig13"):
        expect(solve_share >= 0.70, f"solve >= 70% of the run, got {solve_share:.3f}")
    if workload == "fleet_churn":
        expect(solve_share <= 0.05, f"solve <= 5% of the run, got {solve_share:.3f}")
        hit = layers["settle.lookup.hit_ratio"]
        expect(hit >= 0.99, f"settle hit ratio >= 0.99, got {hit:.4f}")
        expect(outcome.n_queued == 0, f"no backlog, got {outcome.n_queued} queued")
    if workload == "fleet_capped":
        throttle = layers["powercap.throttle_ratio"]
        expect(throttle >= 0.2, f"throttle ratio >= 0.2, got {throttle:.3f}")
        expect(layers["settle.probe_calls"] > 0, "capped probe settles")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    failures = [
        f"environment carries {name}"
        for name in sorted(os.environ)
        if name.startswith("REPRO_")
    ]
    state = cache_state()
    if state != "cold":
        failures.append(f"caches not cold at start: {state}")

    tracer = None
    if args.traced:
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        inputs = workload.setup(args.seed, args.scale)
        # CPU seconds since the process started: interpreter start-up,
        # imports and the workload's set-up.
        setup_s = time.process_time()
        setup_stats = None
        if tracer is not None:
            setup_stats = tracer.stats
            tracer.reset()
        ref_s = reference_kernel()
        start_wall = time.perf_counter()
        start = time.process_time()
        outcome = workload.run(inputs)
        cpu_s = time.process_time() - start
        wall_s = time.perf_counter() - start_wall
        ref_s += reference_kernel()
        layers = None
        if tracer is not None:
            layers = layer_metrics(tracer, setup_stats, cpu_s, outcome)
            failures += [
                f"{workload.name}: no call recorded for {site}"
                for site in tracer.missing_calls(workload.name, setup_stats)
            ]
            if args.scale == "full":
                failures += load_failures(workload.name, layers, cpu_s, outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures += check(workload.name, outcome, args.seed, args.scale)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": args.traced,
        "cache_state": state,
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcome": outcome.simulated(),
        "layers": layers,
        "failures": failures,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
