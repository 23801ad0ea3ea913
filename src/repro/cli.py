"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``workloads``
    List the benchmark catalog with its calibrated traits.
``measure``
    Measure one workload at one placement under one guardband mode.
``sweep``
    The Fig. 3/4-style core-scaling sweep for one workload.
``figure``
    Regenerate one of the paper's figures and print its table; the names
    are the keys of ``repro.analysis.figures.FIGURES``.
``audit``
    Reliability-audit a settled operating point.
``fleet``
    Simulate a fleet day: online AGS scheduling vs the static-guardband
    and consolidation baselines.
``metrics``
    Summarize a ``--metrics-out`` snapshot (or re-render it as
    Prometheus text).
``chaos``
    Run one fleet scenario twice — fault-free, then under a seeded
    fault plan — and print the degradation report (see
    ``docs/RESILIENCE.md``).  ``chaos campaign`` instead drives every
    catalog scenario under a seeded randomized plan with the strict
    invariant watchdog armed and prints the degradation matrix.
``scenario``
    Run, list, validate or golden-check declarative scenario files
    (see ``docs/SCENARIOS.md`` and the catalog under ``scenarios/``).

Every subcommand accepts the shared options ``--seed``, ``--debug``,
``--metrics-out`` and ``--trace-spans`` (hoisted into one parent
parser).  ``--metrics-out`` and ``--trace-spans`` enable the
zero-perturbation observability layer for the run and write its
registry snapshot / span JSONL on exit; see ``docs/OBSERVABILITY.md``.
The batch-runner options sit only where they are read: ``sweep``,
``figure``, ``fleet`` and ``chaos`` take ``--cache-dir`` and
``--timings``, and only ``sweep`` and ``figure`` take ``--workers``
(fleet settles are one-task batches, which never reach a pool).

Simulator errors (:class:`~repro.errors.ReproError` subclasses) exit
with a one-line ``error: <Type>: <message>`` on stderr and a distinct
nonzero code per error family; ``--debug`` re-raises the full
traceback instead.

Every command prints plain text tables; nothing writes to disk unless
``--trace-out``, ``--cache-dir``, ``--metrics-out`` or ``--trace-spans``
asks for it.
"""

from __future__ import annotations

import argparse
import math
import sys
import tomllib
from typing import List, Optional

from . import __version__
from .analysis.figures import FIGURES, text_table
from .api import measure
from .config import ServerConfig
from .errors import (
    CalibrationError,
    ConfigError,
    ConvergenceError,
    FaultError,
    ReproError,
    ScenarioError,
    SchedulingError,
    SensorError,
    SweepError,
    WatchdogError,
    WorkloadError,
)
from .guardband import GuardbandMode, audit_operating_point
from .obs import Observability, install, load_metrics, observability
from .sim.batch import SweepRunner, set_default_runner
from .sim.cache import OperatingPointCache
from .sim.run import build_server
from .workloads import all_profiles, get_profile

#: Exit code per simulator error family, checked subclass-before-base
#: (``SweepError``, ``FaultError``, ``ScenarioError`` and
#: ``WatchdogError`` must precede ``ReproError``).  Codes 0-2 are
#: reserved: success, generic failure, argparse usage.  Codes 3-11 were
#: assigned before ``ScenarioError`` existed; the base-class catch-all
#: keeps 11, so new families append past it.  The registry test
#: (``tests/test_error_contracts.py``) asserts every ``ReproError``
#: subclass maps to a distinct code — extend this table when adding an
#: error family.
ERROR_EXIT_CODES = (
    (WorkloadError, 3),
    (ConfigError, 4),
    (SchedulingError, 5),
    (ConvergenceError, 6),
    (CalibrationError, 7),
    (SensorError, 8),
    (SweepError, 9),
    (FaultError, 10),
    (ScenarioError, 12),
    (WatchdogError, 13),
    (ReproError, 11),
)

#: Metric families the ``metrics`` subcommand rolls up as resilience.
RESILIENCE_FAMILIES = (
    "faults_injected_total",
    "fallback_transitions_total",
    "tasks_retried_total",
    "fallback_static_seconds",
)


#: Numeric options validated uniformly after parsing, keyed by argparse
#: ``dest``.  Validation deliberately happens *post-parse* rather than in
#: ``type=`` callbacks: argparse turns a type failure into a usage dump
#: with exit code 2, whereas an out-of-range value is a simulator
#: configuration error and must exit like one — a single ``error:`` line
#: with the :class:`ConfigError` code.  Keeping the tables here (next to
#: the shared parent parser) means every subcommand gets the same rules.
_POSITIVE_INT_OPTIONS = (
    "workers", "servers", "threads", "smt", "shards", "cell_servers",
)
_NONNEGATIVE_INT_OPTIONS = ("crash_server", "corrupt_server", "corrupt_socket")
_POSITIVE_FLOAT_OPTIONS = (
    "duration", "rate", "power_cap", "power_budget",
    "cap_interval", "cap_gain",
)
_FRACTION_OPTIONS = ("lc_fraction",)
_NONNEGATIVE_FLOAT_OPTIONS = (
    "crash_at", "repair_after", "corrupt_at", "corrupt_for",
)


def _option_name(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def validate_numeric_args(args: argparse.Namespace) -> None:
    """Reject out-of-range or non-finite numeric options uniformly.

    NaN deserves special mention: it slips through every ordered
    comparison (``nan <= 0`` is False), and a NaN ``--duration`` used to
    hang the trace generator forever.  Finiteness is checked explicitly.
    """
    for dest in _POSITIVE_INT_OPTIONS:
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            raise ConfigError(f"{_option_name(dest)} must be >= 1, got {value}")
    for dest in _NONNEGATIVE_INT_OPTIONS:
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            raise ConfigError(f"{_option_name(dest)} must be >= 0, got {value}")
    for dest in _POSITIVE_FLOAT_OPTIONS:
        value = getattr(args, dest, None)
        if value is None:
            continue
        if not math.isfinite(value) or value <= 0:
            raise ConfigError(
                f"{_option_name(dest)} must be a positive finite number, "
                f"got {value}"
            )
    for dest in _FRACTION_OPTIONS:
        value = getattr(args, dest, None)
        if value is None:
            continue
        if not math.isfinite(value) or not 0 <= value <= 1:
            raise ConfigError(
                f"{_option_name(dest)} must be in [0, 1], got {value}"
            )
    for dest in _NONNEGATIVE_FLOAT_OPTIONS:
        value = getattr(args, dest, None)
        if value is None:
            continue
        if not math.isfinite(value) or value < 0:
            raise ConfigError(
                f"{_option_name(dest)} must be a non-negative finite "
                f"number, got {value}"
            )


def _common_options() -> argparse.ArgumentParser:
    """The parent parser every subcommand inherits.

    The deterministic ``--seed``, ``--debug`` and the observability
    switches (``--metrics-out``/``--trace-spans``).
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=7, help="die/traffic seed (default 7)"
    )
    common.add_argument(
        "--debug",
        action="store_true",
        help="re-raise simulator errors with the full traceback instead of "
        "the one-line stderr summary",
    )
    obs = common.add_argument_group("observability")
    obs.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="enable the metrics registry for this run and write its JSON "
        "snapshot to PATH (summarize with `repro metrics PATH`)",
    )
    obs.add_argument(
        "--trace-spans",
        metavar="PATH",
        default=None,
        help="enable span tracing for this run and write the spans as "
        "canonical JSONL to PATH",
    )
    return common


def _runner_options(workers: bool) -> argparse.ArgumentParser:
    """The batch-runner options, for the subcommands that read them.

    A subcommand without them rejects them as unknown (exit 2) rather
    than silently ignoring them.
    """
    options = argparse.ArgumentParser(add_help=False)
    runner = options.add_argument_group("batch runner")
    if workers:
        runner.add_argument(
            "--workers",
            type=int,
            default=1,
            help="process-pool width for independent sweep points "
            "(default 1: in-process, bit-identical to the parallel "
            "schedule)",
        )
    runner.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist settles as checksummed JSON under DIR and reuse them "
        "across invocations: the sweep's operating points (sweep, "
        "figure) or the fleet settle cache (fleet, chaos run)",
    )
    runner.add_argument(
        "--timings",
        action="store_true",
        help="print cache hit rates after the run (sweep and figure also "
        "print per-task wall times)",
    )
    return options


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Adaptive guardband scheduling on a simulated POWER7+ "
            "(MICRO 2015 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    common = [_common_options()]
    with_sweep_runner = common + [_runner_options(workers=True)]
    with_settle_cache = common + [_runner_options(workers=False)]

    commands.add_parser(
        "workloads", parents=common, help="list the benchmark catalog"
    )

    measure_cmd = commands.add_parser(
        "measure", parents=common, help="measure one workload placement"
    )
    measure_cmd.add_argument("workload", help="benchmark name, e.g. raytrace")
    measure_cmd.add_argument(
        "-n", "--threads", type=int, default=1, help="thread count (default 1)"
    )
    measure_cmd.add_argument(
        "-m",
        "--mode",
        choices=[m.value for m in GuardbandMode if m is not GuardbandMode.STATIC],
        default=GuardbandMode.UNDERVOLT.value,
        help="adaptive mode to compare against the static guardband",
    )
    measure_cmd.add_argument(
        "--smt", type=int, default=1, help="threads stacked per core (default 1)"
    )

    sweep_cmd = commands.add_parser(
        "sweep",
        parents=with_sweep_runner,
        help="core-scaling sweep (Figs. 3/4)",
    )
    sweep_cmd.add_argument("workload")
    sweep_cmd.add_argument(
        "-m",
        "--mode",
        choices=[m.value for m in GuardbandMode if m is not GuardbandMode.STATIC],
        default=GuardbandMode.UNDERVOLT.value,
    )

    figure = commands.add_parser(
        "figure", parents=with_sweep_runner, help="regenerate a paper figure"
    )
    figure.add_argument("name", choices=FIGURES)

    audit = commands.add_parser(
        "audit",
        parents=common,
        help="reliability-audit a settled operating point",
    )
    audit.add_argument("workload")
    audit.add_argument("-n", "--threads", type=int, default=8)
    audit.add_argument(
        "-m",
        "--mode",
        choices=[m.value for m in GuardbandMode],
        default=GuardbandMode.UNDERVOLT.value,
    )

    fleet = commands.add_parser(
        "fleet",
        parents=with_settle_cache,
        help="simulate a day of job arrivals across a fleet of servers",
    )
    fleet.add_argument(
        "--servers", type=int, default=4, help="fleet size (default 4)"
    )
    fleet.add_argument(
        "--duration",
        type=float,
        default=86_400.0,
        help="trace horizon in seconds (default 86400: one day)",
    )
    fleet.add_argument(
        "--rate",
        type=float,
        default=18.0,
        help="mean arrival rate in jobs/hour (default 18)",
    )
    fleet.add_argument(
        "--lc-fraction",
        type=float,
        default=0.15,
        help="fraction of arrivals that are latency-critical (default 0.15)",
    )
    fleet.add_argument(
        "--shards",
        type=int,
        default=1,
        help="worker processes for sharded execution (default 1); any "
        "value produces the identical event log and hash",
    )
    fleet.add_argument(
        "--cell-servers",
        type=int,
        default=None,
        metavar="N",
        help="partition the fleet into independent cells of N servers "
        "(default: one cell spanning the whole fleet); the cell layout, "
        "unlike --shards, is part of the run's identity",
    )
    fleet.add_argument(
        "--no-advisor-gate",
        action="store_true",
        help="disable the colocation-advisor QoS gate (ablation)",
    )
    fleet.add_argument(
        "--power-cap",
        type=float,
        default=None,
        metavar="WATTS",
        help="enforce a per-server power cap: throttled epochs walk down "
        "the DVFS table until the settled server power fits",
    )
    fleet.add_argument(
        "--power-budget",
        type=float,
        default=None,
        metavar="WATTS",
        help="track a fleet-wide power budget with the integral power-cap "
        "coordinator (decomposed per cell when --cell-servers is set)",
    )
    fleet.add_argument(
        "--cap-interval",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="seconds between coordinator ticks (default 60)",
    )
    fleet.add_argument(
        "--cap-gain",
        type=float,
        default=0.5,
        help="coordinator integral gain in (0, 2] (default 0.5)",
    )
    fleet.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the AGS run's structured event log as JSONL to PATH",
    )

    commands.add_parser(
        "selfcheck",
        parents=common,
        help="check the model against every paper claim (analysis/claims.py)",
    )

    commands.add_parser(
        "report",
        parents=common,
        help="run the full evaluation and print a markdown report",
    )

    export = commands.add_parser(
        "export",
        parents=common,
        help="regenerate one figure's data and print it as JSON",
    )
    export.add_argument("name", choices=FIGURES)

    chaos = commands.add_parser(
        "chaos",
        parents=with_settle_cache,
        help="run a fleet scenario fault-free and degraded; report the delta",
    )
    chaos.add_argument(
        "action",
        nargs="?",
        choices=("run", "campaign"),
        default="run",
        help="run (default): one ad-hoc fleet day under the flag-built "
        "plan; campaign: every catalog scenario under a seeded "
        "randomized fault plan with the strict invariant watchdog "
        "armed, printing the degradation matrix",
    )
    chaos.add_argument(
        "--smoke",
        action="store_true",
        help="campaign only: shrink every scenario's traffic to smoke "
        "scale so the whole catalog finishes in CI time",
    )
    chaos.add_argument(
        "--dir",
        dest="catalog_dir",
        metavar="DIR",
        default=None,
        help="campaign only: catalog directory (default: the repo's "
        "scenarios/ directory)",
    )
    chaos.add_argument(
        "--servers", type=int, default=2, help="fleet size (default 2)"
    )
    chaos.add_argument(
        "--duration",
        type=float,
        default=14_400.0,
        help="trace horizon in seconds (default 14400: four hours)",
    )
    chaos.add_argument(
        "--rate",
        type=float,
        default=18.0,
        help="mean arrival rate in jobs/hour (default 18)",
    )
    chaos.add_argument(
        "--lc-fraction",
        type=float,
        default=0.15,
        help="fraction of arrivals that are latency-critical (default 0.15)",
    )
    chaos.add_argument(
        "--crash-server",
        type=int,
        default=1,
        help="server id to crash (default 1)",
    )
    chaos.add_argument(
        "--crash-at",
        type=float,
        default=None,
        metavar="SECONDS",
        help="crash time (default: a quarter into the horizon)",
    )
    chaos.add_argument(
        "--repair-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="repair delay after the crash (default: a quarter horizon)",
    )
    chaos.add_argument(
        "--no-crash",
        action="store_true",
        help="drop the server crash from the plan",
    )
    chaos.add_argument(
        "--corrupt-server",
        type=int,
        default=0,
        help="server whose CPM stream gets pinned (default 0)",
    )
    chaos.add_argument(
        "--corrupt-socket",
        type=int,
        default=0,
        help="socket whose CPM stream gets pinned (default 0)",
    )
    chaos.add_argument(
        "--corrupt-at",
        type=float,
        default=None,
        metavar="SECONDS",
        help="corruption onset (default: 30%% into the horizon)",
    )
    chaos.add_argument(
        "--corrupt-for",
        type=float,
        default=None,
        metavar="SECONDS",
        help="corruption window length (default: a fifth of the horizon)",
    )
    chaos.add_argument(
        "--no-corrupt",
        action="store_true",
        help="drop the CPM corruption from the plan",
    )
    chaos.add_argument(
        "--kill-job",
        type=int,
        action="append",
        default=None,
        metavar="JOB_ID",
        help="kill this running job halfway through (repeatable)",
    )
    chaos.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the injector's jitter stream (default 0)",
    )

    scenario = commands.add_parser(
        "scenario",
        parents=common,
        help="run, list, validate or golden-check declarative scenarios",
    )
    scenario.add_argument(
        "action",
        choices=("run", "list", "validate", "check"),
        help="run: execute scenario files and print summaries; list: show "
        "the catalog; validate: parse and validate files without running; "
        "check: run under each scenario's pinned seed and adjudicate its "
        "golden assertions",
    )
    scenario.add_argument(
        "files",
        nargs="*",
        metavar="FILE",
        help="scenario TOML file(s); for 'check' and 'list' the shipped "
        "catalog is the default",
    )
    scenario.add_argument(
        "--dir",
        dest="catalog_dir",
        metavar="DIR",
        default=None,
        help="catalog directory for 'list'/'check' (default: the repo's "
        "scenarios/ directory)",
    )
    scenario.add_argument(
        "--shards",
        type=int,
        default=1,
        help="worker processes for sharded execution (default 1); any "
        "value produces the identical event log and hash",
    )
    scenario.add_argument(
        "--skip-slow",
        action="store_true",
        help="skip scenarios tagged 'slow' (the fast regression loop)",
    )
    scenario.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="override a scenario document key for 'run', e.g. "
        "--set policy.pdn_backend=flexwatts or "
        "--set policy.fleet_power_budget_w=1100 (repeatable; golden "
        "blocks are dropped when any override is applied)",
    )
    scenario.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the run's structured event log as JSONL to PATH "
        "('run' with a single file only)",
    )

    metrics = commands.add_parser(
        "metrics",
        parents=common,
        help="summarize a --metrics-out snapshot file",
    )
    metrics.add_argument("path", help="JSON snapshot written by --metrics-out")
    metrics.add_argument(
        "--prometheus",
        action="store_true",
        help="print Prometheus text exposition instead of the summary table",
    )
    return parser


def exit_code_for(exc: ReproError) -> int:
    """The CLI exit code for one simulator error (subclass-first)."""
    for error_type, code in ERROR_EXIT_CODES:
        if isinstance(exc, error_type):
            return code
    return 1  # pragma: no cover - table ends with the base class


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "workloads": _cmd_workloads,
        "measure": _cmd_measure,
        "sweep": _cmd_sweep,
        "figure": _cmd_figure,
        "audit": _cmd_audit,
        "fleet": _cmd_fleet,
        "selfcheck": _cmd_selfcheck,
        "report": _cmd_report,
        "export": _cmd_export,
        "metrics": _cmd_metrics,
        "chaos": _cmd_chaos,
        "scenario": _cmd_scenario,
    }[args.command]
    try:
        validate_numeric_args(args)
        return _run_handler(handler, args)
    except ReproError as exc:
        if getattr(args, "debug", False):
            raise
        message = str(exc).splitlines()[0] if str(exc) else "(no detail)"
        print(
            f"error: {type(exc).__name__}: {message}", file=sys.stderr
        )
        return exit_code_for(exc)


def _run_handler(handler, args: argparse.Namespace) -> int:
    """Run one command, wiring up observability when asked for."""
    metrics_out = getattr(args, "metrics_out", None)
    trace_spans = getattr(args, "trace_spans", None)
    if not metrics_out and not trace_spans:
        return handler(args)
    # Either observability switch turns the layer on for the whole run;
    # outputs are written after the handler finishes, whatever its exit
    # code, and the previous process-wide handle is always restored.
    previous = install(Observability(enabled=True))
    try:
        code = handler(args)
        obs = observability()
        if metrics_out:
            obs.metrics.write_json(metrics_out)
            print(f"wrote {len(obs.metrics)} metric families to {metrics_out}")
        if trace_spans:
            obs.tracer.write_jsonl(trace_spans)
            print(f"wrote {len(obs.tracer.spans)} spans to {trace_spans}")
    finally:
        install(previous)
    return code


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _cmd_workloads(args: argparse.Namespace) -> int:
    print(
        f"{'name':>16} {'suite':>10} {'act':>5} {'ipc':>5} {'mem':>5} "
        f"{'bw':>5} {'share':>6} {'scalable':>9}"
    )
    for p in all_profiles():
        print(
            f"{p.name:>16} {p.suite:>10} {p.activity:>5.2f} {p.ipc:>5.2f} "
            f"{p.memory_intensity:>5.2f} {p.bandwidth_demand:>5.1f} "
            f"{p.sharing_intensity:>6.2f} {str(p.scalable):>9}"
        )
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    profile = get_profile(args.workload)
    mode = GuardbandMode(args.mode)
    result = measure(
        profile,
        mode=mode,
        n_threads=args.threads,
        threads_per_core=args.smt,
        seed=args.seed,
    )
    s0s = result.static.point.socket_point(0)
    s0a = result.adaptive.point.socket_point(0)
    print(f"{profile.name}: {args.threads} thread(s), mode={mode.value}")
    print(f"  static:   {s0s.chip_power:7.1f} W at {s0s.frequency/1e6:.0f} MHz")
    print(
        f"  adaptive: {s0a.chip_power:7.1f} W at {s0a.frequency/1e6:.0f} MHz "
        f"(undervolt {s0a.undervolt*1000:.1f} mV)"
    )
    if mode is GuardbandMode.UNDERVOLT:
        saving = 1 - s0a.chip_power / s0s.chip_power
        print(f"  power saving: {saving:.1%}")
    else:
        print(f"  frequency boost: {result.frequency_boost_fraction:.1%}")
        print(f"  speedup: {result.speedup_fraction:.1%}")
    return 0


def _runner_from_args(args: argparse.Namespace) -> SweepRunner:
    """Build the batch runner the command's options describe."""
    return SweepRunner(
        max_workers=args.workers,
        cache=OperatingPointCache(disk_dir=args.cache_dir),
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    profile = get_profile(args.workload)
    mode = GuardbandMode(args.mode)
    runner = _runner_from_args(args)
    core_counts = range(1, ServerConfig().chip.n_cores + 1)
    results = runner.core_scaling_sweep(profile, mode, core_counts)
    print(f"{profile.name}, mode={mode.value}")
    print(f"{'cores':>6} {'static W':>9} {'adaptive W':>11} {'metric':>8}")
    for n, result in zip(core_counts, results):
        s0s = result.static.point.socket_point(0)
        s0a = result.adaptive.point.socket_point(0)
        if mode is GuardbandMode.UNDERVOLT:
            metric = f"{1 - s0a.chip_power / s0s.chip_power:7.1%}"
        else:
            metric = f"{result.frequency_boost_fraction:7.1%}"
        print(f"{n:>6} {s0s.chip_power:>9.1f} {s0a.chip_power:>11.1f} {metric:>8}")
    if args.timings:
        print()
        print(runner.reports[-1].summary())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    figure = FIGURES[args.name]
    # The figure builders pick up the process-wide default runner; swap in
    # one configured from the command's options for the duration.
    runner = _runner_from_args(args)
    previous = set_default_runner(runner)
    try:
        result = figure.build(None)
    finally:
        set_default_runner(previous)
    print(figure.title)
    print(text_table(*figure.table(result)))
    if args.timings:
        print()
        print(runner.timings_summary())
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    profile = get_profile(args.workload)
    server = build_server(seed=args.seed)
    mode = GuardbandMode(args.mode)
    result = measure(profile, mode=mode, n_threads=args.threads, server=server)
    solution = result.adaptive.point.socket_point(0).solution
    report = audit_operating_point(
        server.sockets[0],
        solution,
        server.config,
        frequency_is_servoed=(mode is GuardbandMode.OVERCLOCK),
    )
    print(
        f"audit: {profile.name}, {args.threads} thread(s), mode={mode.value}"
    )
    print(f"{'core':>5} {'typ slack mV':>13} {'droop slack mV':>15} {'CPM':>4} {'ok':>3}")
    for f in report.findings:
        print(
            f"{f.core_id:>5} {f.typical_slack*1000:>13.1f} "
            f"{f.droop_slack*1000:>15.1f} {f.worst_cpm_code:>4} "
            f"{'yes' if f.passed else 'NO':>3}"
        )
    print("PASSED" if report.passed else "FAILED")
    return 0 if report.passed else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .fleet import FleetConfig, TrafficConfig, run_comparison
    from .fleet.metrics import summarize_by_class
    from .fleet.settle_cache import fleet_settle_cache_dir
    from .fleet.traffic import LATENCY_CRITICAL
    from .sim.cache import canonical_json

    traffic = TrafficConfig(
        duration_seconds=args.duration,
        jobs_per_hour=args.rate,
        lc_fraction=args.lc_fraction,
    )
    config = FleetConfig(
        n_servers=args.servers,
        traffic=traffic,
        seed=args.seed,
        power_cap_w=args.power_cap,
        fleet_power_budget_w=args.power_budget,
        cap_interval_seconds=args.cap_interval,
        cap_gain=args.cap_gain,
    )
    if args.shards > 1 and args.timings:
        raise ConfigError(
            "--timings reports this process's settle cache; pool workers' "
            "counters do not reach it, so it cannot be combined with "
            "--shards > 1"
        )
    gate = not args.no_advisor_gate
    with fleet_settle_cache_dir(args.cache_dir) as settle_cache:
        comparison = run_comparison(
            config,
            n_shards=args.shards,
            cell_servers=args.cell_servers,
            advisor_gate=gate,
        )
    ags = comparison.ags
    consolidation = comparison.consolidation
    hours = args.duration / 3600.0
    cells = ""
    if args.shards > 1 or args.cell_servers is not None:
        from .fleet.shard import build_cells

        widths = [
            cell.config.n_servers
            for cell in build_cells([(config, args.cell_servers, "")])
        ]
        last = f" (last {widths[-1]})" if widths[-1] != widths[0] else ""
        cells = (
            f", {len(widths)} cell(s) x {widths[0]} server(s){last} "
            f"over {args.shards} shard(s)"
        )
    print(
        f"fleet: {args.servers} server(s), {hours:g} h, seed {args.seed}, "
        f"advisor gate {'on' if gate else 'OFF'}{cells}"
    )
    print(
        f"jobs: {ags.n_arrivals} arrived, {ags.n_completions} completed, "
        f"{ags.n_running} running, {ags.n_queued} queued at horizon "
        f"({'conserved' if ags.conserved else 'NOT CONSERVED'})"
    )
    print(
        f"energy: AGS {ags.adaptive_energy_kwh:.3f} kWh | "
        f"static guardband {ags.static_energy_kwh:.3f} kWh | "
        f"consolidation {consolidation.adaptive_energy_kwh:.3f} kWh"
    )
    print(
        f"AGS saving: {comparison.saving_vs_static:.1%} vs static guardband, "
        f"{comparison.saving_vs_consolidation:.1%} vs consolidation "
        f"(which cannot meet the boost SLA at all)"
    )
    print(
        f"qos: {ags.qos_violations} violation(s); "
        f"SLA {config.required_frequency/1e6:.0f} MHz on "
        "latency-critical sockets"
    )
    for job_class, stats in summarize_by_class(ags).items():
        tag = "LC" if job_class == LATENCY_CRITICAL else job_class
        print(
            f"  {tag}: {stats['arrivals']:.0f} job(s), "
            f"mean latency {stats['mean_latency_s']:.0f} s, "
            f"mean slowdown {stats['mean_slowdown']:.2f}"
        )
        print(
            f"      latency p50/p95/p99: {stats['p50_latency_s']:.0f}/"
            f"{stats['p95_latency_s']:.0f}/{stats['p99_latency_s']:.0f} s, "
            f"slowdown p50/p95/p99: {stats['p50_slowdown']:.2f}/"
            f"{stats['p95_slowdown']:.2f}/{stats['p99_slowdown']:.2f}"
        )
    if args.power_cap is not None:
        print(
            f"power cap: {args.power_cap:g} W/server enforced, "
            f"{ags.cap_throttle_epochs} throttled epoch(s)"
        )
    if args.power_budget is not None:
        print(
            f"power budget: {ags.cap_budget_w:g} W fleet-wide, "
            f"steady measured {ags.cap_measured_steady_w:.1f} W "
            f"(tracking error {ags.cap_tracking_error:.1%}), "
            f"{ags.powercap_ticks} coordinator tick(s), "
            f"{ags.cap_throttle_epochs} throttled epoch(s)"
        )
    print(
        f"epochs: {ags.n_epochs} (AGS) + {consolidation.n_epochs} "
        "(consolidation) placements settled"
    )
    print(f"event log: {ags.event_log_hash} ({len(ags.events)} entries)")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            for entry in ags.events:
                handle.write(canonical_json(entry) + "\n")
        print(f"wrote {len(ags.events)} events to {args.trace_out}")
    if args.timings:
        print()
        print(f"settle cache: {settle_cache.stats.summary()}")
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from .analysis.claims import check_claims

    verdicts = check_claims(progress=lambda msg: print(f"  measuring {msg}..."))
    print()
    for verdict in verdicts:
        print(verdict)
    passed = all(verdict.passed for verdict in verdicts)
    print()
    print("SELFCHECK PASSED" if passed else "SELFCHECK FAILED")
    return 0 if passed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import generate_report

    print(generate_report(progress=lambda m: print(f"<!-- measuring {m} -->")))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .analysis.export import export_figure

    print(export_figure(args.name))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import chaos_plan, run_chaos
    from .fleet import FleetConfig, TrafficConfig
    from .fleet.settle_cache import fleet_settle_cache_dir

    if args.action == "campaign":
        return _cmd_chaos_campaign(args)
    traffic = TrafficConfig(
        duration_seconds=args.duration,
        jobs_per_hour=args.rate,
        lc_fraction=args.lc_fraction,
    )
    config = FleetConfig(
        n_servers=args.servers, traffic=traffic, seed=args.seed
    )
    plan = chaos_plan(
        args.duration,
        crash_server=None if args.no_crash else args.crash_server,
        crash_at_seconds=args.crash_at,
        repair_after_seconds=args.repair_after,
        corrupt_server=None if args.no_corrupt else args.corrupt_server,
        corrupt_socket=args.corrupt_socket,
        corrupt_at_seconds=args.corrupt_at,
        corrupt_for_seconds=args.corrupt_for,
        kill_jobs=tuple(args.kill_job or ()),
        seed=args.fault_seed,
    )
    if plan.is_empty:
        raise FaultError(
            "the chaos plan is empty: --no-crash and --no-corrupt with no "
            "--kill-job leaves nothing to inject"
        )
    with fleet_settle_cache_dir(args.cache_dir) as settle_cache:
        report = run_chaos(config, plan, runner=SweepRunner())
    print(report.render())
    if args.timings:
        print()
        print(f"settle cache: {settle_cache.stats.summary()}")
    return 0


def _cmd_chaos_campaign(args: argparse.Namespace) -> int:
    """Every catalog scenario under seeded randomized faults."""
    from .faults.campaign import run_campaign
    from .scenarios import load_catalog

    if args.cache_dir is not None or args.timings:
        raise ConfigError(
            "--cache-dir and --timings apply to 'chaos run'; 'chaos "
            "campaign' does not read them"
        )
    scenarios = load_catalog(args.catalog_dir)
    report = run_campaign(
        scenarios=scenarios,
        seed=args.fault_seed,
        smoke=args.smoke,
        strict=True,
        progress=lambda name: print(f"  campaigning {name}..."),
    )
    print(report.render())
    return 0 if report.passed else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .scenarios import (
        catalog_paths,
        check_result,
        codec,
        load_catalog,
        run_scenario,
    )
    from .sim.cache import canonical_json

    if args.overrides and args.action != "run":
        raise ScenarioError("--set only applies to 'scenario run'")
    if args.action == "list":
        scenarios = (
            tuple(codec.load(path) for path in args.files)
            if args.files
            else load_catalog(args.catalog_dir)
        )
        print(f"{'name':>28} {'servers':>8} {'hours':>6} {'golden':>7}  description")
        for s in scenarios:
            hours = s.traffic.duration_seconds / 3600.0
            tags = f" [{', '.join(s.tags)}]" if s.tags else ""
            print(
                f"{s.name:>28} {s.topology.n_servers:>8} {hours:>6g} "
                f"{'yes' if not s.golden.is_empty else 'no':>7}  "
                f"{s.description}{tags}"
            )
        return 0

    if args.action == "validate":
        if not args.files:
            raise ScenarioError("scenario validate needs at least one FILE")
        for path in args.files:
            scenario = codec.load(path)
            print(
                f"{path}: ok ({scenario.name}: "
                f"{scenario.topology.n_servers} server(s) in "
                f"{len(scenario.topology.groups)} group(s), "
                f"{len(scenario.faults.windows)} fault window(s))"
            )
        return 0

    if args.action == "run":
        if not args.files:
            raise ScenarioError("scenario run needs at least one FILE")
        if args.trace_out and len(args.files) > 1:
            raise ScenarioError("--trace-out needs exactly one FILE")
        for path in args.files:
            scenario = codec.load(path)
            if args.overrides:
                scenario = _apply_scenario_overrides(
                    scenario, args.overrides
                )
            result = run_scenario(
                scenario, seed=args.seed, n_shards=args.shards
            )
            _print_scenario_result(result, seed=args.seed)
            if args.trace_out:
                with open(args.trace_out, "w", encoding="utf-8") as handle:
                    for entry in result.fleet.events:
                        handle.write(canonical_json(entry) + "\n")
                print(
                    f"wrote {len(result.fleet.events)} events to "
                    f"{args.trace_out}"
                )
        return 0

    # action == "check": pinned seeds, golden adjudication.
    if args.files:
        scenarios = tuple(codec.load(path) for path in args.files)
    else:
        scenarios = load_catalog(args.catalog_dir)
    checkable = [s for s in scenarios if not s.golden.is_empty]
    skipped_golden = len(scenarios) - len(checkable)
    if args.skip_slow:
        skipped_slow = sum(1 for s in checkable if s.is_slow)
        checkable = [s for s in checkable if not s.is_slow]
    else:
        skipped_slow = 0
    if not checkable:
        raise ScenarioError("no scenarios with golden blocks to check")
    failed = False
    for scenario in checkable:
        result = run_scenario(scenario, n_shards=args.shards)
        verdict = check_result(result)
        status = "ok" if verdict.passed else "FAILED"
        print(f"{scenario.name}: {status}")
        for failure in verdict.failures:
            print(f"  {failure}")
        failed = failed or not verdict.passed
    notes = []
    if skipped_slow:
        notes.append(f"{skipped_slow} slow scenario(s) skipped")
    if skipped_golden:
        notes.append(f"{skipped_golden} without goldens skipped")
    summary = f"checked {len(checkable)} scenario(s)"
    if notes:
        summary += " (" + ", ".join(notes) + ")"
    print(summary)
    return 1 if failed else 0


def _parse_override_value(raw: str):
    """KEY=VALUE values: a TOML array, int, float, bool word, or string."""
    if raw.startswith("["):
        try:
            return tomllib.loads(f"value = {raw}")["value"]
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(f"--set value {raw!r}: {exc}") from exc
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _apply_scenario_overrides(scenario, overrides):
    """Rebuild a scenario with dotted-key document overrides applied.

    Overrides go through the document round trip (dump, patch, reload),
    so every patched value passes the same strict codec validation a
    hand-edited TOML file would.  Any override invalidates the golden
    block — the pinned assertions describe the unpatched scenario — so
    goldens are dropped.
    """
    from .scenarios import codec

    document = codec.scenario_to_document(scenario)
    document.pop("golden", None)
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ScenarioError(
                f"--set needs KEY=VALUE, got {item!r}"
            )
        parts = key.split(".")
        table = document
        for part in parts[:-1]:
            node = table.setdefault(part, {})
            if not isinstance(node, dict):
                raise ScenarioError(
                    f"--set {key}: {part!r} is not a table"
                )
            table = node
        table[parts[-1]] = _parse_override_value(raw)
    return codec.scenario_from_document(document)


def _print_scenario_result(result, seed: int) -> None:
    scenario = result.scenario
    fleet = result.fleet
    hours = scenario.traffic.duration_seconds / 3600.0
    print(
        f"scenario {scenario.name}: {scenario.topology.n_servers} server(s) "
        f"in {len(scenario.topology.groups)} group(s), {hours:g} h, "
        f"policy {scenario.policy.policy}, seed {seed}"
    )
    if scenario.description:
        print(f"  {scenario.description}")
    print(
        f"jobs: {fleet.n_arrivals} arrived, {fleet.n_completions} completed, "
        f"{fleet.n_running} running, {fleet.n_queued} queued "
        f"({'conserved' if fleet.conserved else 'NOT CONSERVED'})"
    )
    print(
        f"energy: adaptive {fleet.adaptive_energy_kwh:.3f} kWh vs static "
        f"{fleet.static_energy_kwh:.3f} kWh "
        f"(saving {fleet.saving_fraction:.1%})"
    )
    print(
        f"qos: {fleet.qos_violations} violation(s); faults: "
        f"{fleet.n_server_crashes} crash(es), {fleet.n_job_kills} kill(s), "
        f"{fleet.n_requeues} requeue(s), "
        f"{fleet.total_fallback_seconds:.0f} fallback socket-second(s)"
    )
    if scenario.policy.server_power_cap_w is not None:
        print(
            f"power cap: {scenario.policy.server_power_cap_w:g} W per "
            f"server enforced; {fleet.cap_throttle_epochs} throttled "
            f"epoch(s), {result.cap_exceeded_epochs} epoch(s) still over "
            "(best-effort floor)"
        )
    if scenario.policy.fleet_power_budget_w is not None:
        print(
            f"power budget: {fleet.cap_budget_w:g} W fleet-wide, steady "
            f"measured {fleet.cap_measured_steady_w:.1f} W (tracking "
            f"error {fleet.cap_tracking_error:.1%}), "
            f"{fleet.powercap_ticks} coordinator tick(s)"
        )
    for group in result.groups:
        print(
            f"  group {group.name}: {group.servers} server(s), "
            f"age {group.age_years:g} y, {group.n_arrivals} arrival(s), "
            f"{group.adaptive_energy_kwh:.3f} kWh, "
            f"{group.qos_violations} violation(s), "
            f"{group.fallback_seconds:.0f} fallback s"
        )
    if result.retries:
        recoveries = ", ".join(
            f"cell {r.cell_index} attempt {r.attempt} ({r.reason} -> "
            f"{r.recovered_via})"
            for r in result.retries
        )
        print(f"shard recoveries: {recoveries}")
    print(f"event log: {fleet.event_log_hash} ({len(fleet.events)} entries)")


def _cmd_metrics(args: argparse.Namespace) -> int:
    try:
        registry = load_metrics(args.path)
    except (OSError, ValueError) as exc:
        print(
            f"error: cannot read metrics snapshot {args.path}: {exc}",
            file=sys.stderr,
        )
        return 1
    if args.prometheus:
        print(registry.render_text(), end="")
        return 0
    print(f"metrics snapshot: {args.path} ({len(registry)} families)")
    for family in registry.families():
        print(f"{family.name} ({family.kind})")
        for label_values, child in family.children():
            labels = (
                "{" + ", ".join(
                    f"{n}={v}"
                    for n, v in zip(family.label_names, label_values)
                ) + "}"
                if family.label_names
                else ""
            )
            if family.kind == "histogram":
                print(
                    f"  {labels or '(all)'}: count {child.count}, "
                    f"sum {child.sum:.6g}, mean {child.mean:.6g}"
                )
            else:
                print(f"  {labels or '(all)'}: {child.value:.6g}")
    _print_resilience_summary(registry)
    return 0


def _print_resilience_summary(registry) -> None:
    """Roll up the fault/fallback/retry families, when any were recorded."""
    present = {
        family.name: family
        for family in registry.families()
        if family.name in RESILIENCE_FAMILIES
    }
    if not present:
        return
    print()
    print("resilience summary")
    family = present.get("faults_injected_total")
    if family is not None:
        total = sum(child.value for _, child in family.children())
        by_kind = ", ".join(
            f"{values[0]} x{child.value:g}"
            for values, child in sorted(family.children())
        )
        print(f"  faults injected: {total:g} ({by_kind})")
    family = present.get("fallback_transitions_total")
    if family is not None:
        # Label order is (direction, layer, reason).
        entered = sum(
            child.value
            for values, child in family.children()
            if values[0] == "enter"
        )
        exited = sum(
            child.value
            for values, child in family.children()
            if values[0] == "exit"
        )
        print(
            f"  fallback transitions: {entered:g} entered, {exited:g} exited"
            + (" (still in fallback)" if entered > exited else "")
        )
    family = present.get("tasks_retried_total")
    if family is not None:
        by_layer = ", ".join(
            f"{values[0]} x{child.value:g}"
            for values, child in sorted(family.children())
        )
        print(f"  tasks retried: {by_layer}")
    family = present.get("fallback_static_seconds")
    if family is not None:
        for _, child in family.children():
            if child.count:
                print(
                    f"  static-fallback dwell: {child.count} window(s), "
                    f"total {child.sum:.0f} s, mean {child.mean:.0f} s"
                )


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
