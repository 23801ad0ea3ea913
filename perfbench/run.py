"""The repository benchmark: one workload, measured for a fixed time.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload fleet_cold --seed 7 --seconds 30 --trace 0

Each repetition runs in a fresh single process (``perfbench/child.py``)
with every ``REPRO_*`` variable stripped, so settle caches start empty
and no environment knob changes the path measured.  Repetitions run
while another fits in ``--seconds`` (at least :data:`MIN_REPS`).

``--trace 0`` prints the end-to-end metrics: medians over repetitions of
run time, set-up time, settle throughput and peak memory.  Times are CPU
seconds of the single-threaded repetition process, scaled to a host of
reference speed (see :func:`scaled`).  The raw CPU and wall medians are
printed beside them as comments, and so are the simulated results (AGS
saving, QoS violations, cap tracking error, Fig. 13 borrowing gain).
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer table of the traced ones (medians), after checking that
tracing left the simulated outcome unchanged.

Every repetition is checked: golden block (capped), job conservation,
and identical simulated output across the repetitions of one seed (and
the pinned digest under the default seed).  Every run also replays the
default seed once at tiny scale, untimed, against its pinned digest, so
a change in simulated behaviour fails whatever seed is measured.  Any
failure exits non-zero.  The last stdout line is the JSON result.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("fleet_cold", "fleet_churn", "fleet_capped", "sweep_fig13")
DEFAULT_SEED = 7
#: Minimum timed repetitions (untraced; traced runs pair each with a
#: traced one), whatever ``--seconds`` says.
MIN_REPS = {0: 3, 1: 2}
#: Per-repetition ceiling (s); a stuck repetition counts as failed.
CHILD_TIMEOUT_S = 120.0
#: CPU seconds of the two reference-kernel calls on the reference host,
#: a 2-vCPU x86_64 virtual machine with Python 3.11 at a quiet moment.
REFERENCE_S = 0.35


def child_env() -> dict:
    """The parent environment minus ``REPRO_*``, pinned to one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def host_fingerprint(env: dict) -> dict:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version or "unavailable",
        "machine": platform.machine(),
    }


def run_child(env: dict, workload: str, seed: int, scale: str, traced: bool):
    """One repetition; returns its report dict, or ``None`` on a crash."""
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload, "--seed", str(seed), "--scale", scale,
    ]
    if traced:
        command.append("--traced")
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"repetition timed out after {CHILD_TIMEOUT_S:g} s\n")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.stderr.write(f"repetition exited with code {proc.returncode}\n")
        return None
    return json.loads(lines[-1])


def measure(env, workload, seed, seconds, traced_pairs, scale):
    """Repeat while another repetition fits in ``seconds``.

    A repetition starts only if one of the median length seen so far
    still ends before the deadline, so a run lasts about ``seconds``
    whatever the repetition length.

    Returns ``(untraced, traced, checks_only, crashed)``; ``checks_only``
    holds the untimed tiny default-seed replay.
    """
    untraced, traced, checks_only, crashed = [], [], [], 0
    report = run_child(env, workload, DEFAULT_SEED, "tiny", traced=False)
    if report is None:
        crashed += 1
    else:
        checks_only.append(report)
    deadline = time.monotonic() + seconds
    min_reps = MIN_REPS[int(traced_pairs)]
    lengths = []
    while len(untraced) + crashed < min_reps or (
        time.monotonic() + median(lengths) <= deadline
    ):
        started = time.monotonic()
        report = run_child(env, workload, seed, scale, traced=False)
        if report is None:
            crashed += 1
        else:
            untraced.append(report)
        if traced_pairs:
            report = run_child(env, workload, seed, scale, traced=True)
            if report is None:
                crashed += 1
            else:
                traced.append(report)
        lengths.append(time.monotonic() - started)
    return untraced, traced, checks_only, crashed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument(
        "--scale", default="full", choices=("full", "tiny"),
        help="tiny shrinks every input (the benchmark's own smoke tests)",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"no program to measure: {SRC}/repro is missing\n")
        return 2

    env = child_env()
    print("# host: " + json.dumps(host_fingerprint(env), sort_keys=True))
    untraced, traced, checks_only, crashed = measure(
        env, args.workload, args.seed, args.seconds, args.trace == 1, args.scale
    )
    reports = untraced + traced
    failed = crashed
    for report in reports + checks_only:
        failed += bool(report["failures"])
        for failure in report["failures"]:
            sys.stderr.write(f"FAIL (seed {report['seed']}): {failure}\n")
    # Determinism and zero perturbation: every repetition of one seed,
    # traced or not, must simulate the identical day.
    outcomes = {json.dumps(r["outcome"], sort_keys=True) for r in reports}
    if len(outcomes) > 1:
        sys.stderr.write("FAIL: repetitions disagree on the simulated outcome\n")
        failed += len(reports)
    states = sorted({r["cache_state"] for r in reports + checks_only})
    print(f"# cache at start of every repetition: {','.join(states) or 'n/a'}")
    print(
        f"# repetitions: {len(untraced)} untraced, {len(traced)} traced, "
        f"{len(checks_only)} default-seed check, {crashed} crashed"
    )
    if untraced:
        print("# simulated: " + simulated_summary(untraced[0]["outcome"]))
        for key in ("cpu_s", "wall_s", "ref_s"):
            value = median([r[key] for r in untraced])
            print(f"# raw {key} (median): {value:.4f} s")

    correct = failed == 0 and bool(untraced) and (args.trace == 0 or bool(traced))
    metrics = {}
    if correct:
        metrics = (
            declared("end_to_end", end_to_end(untraced))
            if args.trace == 0
            else declared("per_layer", per_layer(untraced, traced))
        )
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    attempted = max(1, len(reports) + len(checks_only) + crashed)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


#: Fig. 13's mean borrowing-over-consolidation power improvement in the
#: paper (percentage points); the simulator has not been checked against
#: hardware, so this is context, not a target.
PAPER_BORROW_GAIN_PP = 6.2


def simulated_summary(outcome: dict) -> str:
    return (
        f"ags_saving_pct={outcome['ags_saving_pct']:.4f} % "
        f"qos_violations={outcome['qos_violations']} "
        f"cap_tracking_err_pct={outcome['cap_tracking_err_pct']:.4f} % "
        f"borrow_gain_pp={outcome['borrow_gain_pp']:.4f} pp "
        f"(paper: {PAPER_BORROW_GAIN_PP} pp; model unvalidated against hardware)"
    )


def scaled(report: dict, key: str) -> float:
    """A repetition's CPU time ``key`` on a host of reference speed.

    The effective speed of a shared host's CPU swung by 20% and more
    over minutes, in CPU time as in wall time, and moved the medians of
    whole runs with it.  The repetition times a fixed kernel right
    before and after its timed call, and the ratio to that kernel's
    time on the reference host cancels the swing: on eight identical
    runs it cut the quartile spread from 21% to 5%.
    """
    return report[key] * REFERENCE_S / report["ref_s"]


def end_to_end(reports) -> dict:
    return {
        "run_s": median([scaled(r, "cpu_s") for r in reports]),
        "setup_s": median([scaled(r, "setup_s") for r in reports]),
        "epochs_per_s": median(
            [r["outcome"]["n_epochs"] / scaled(r, "cpu_s") for r in reports]
        ),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
    }


def per_layer(untraced, traced) -> dict:
    values = {
        name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]
    }
    values["trace_overhead_ratio"] = median(
        [scaled(r, "cpu_s") for r in traced]
    ) / median([scaled(r, "cpu_s") for r in untraced])
    return values


def declared(section: str, values: dict) -> dict:
    """``values`` as BENCHMARK.json declares them: every name, its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


if __name__ == "__main__":
    sys.exit(main())
