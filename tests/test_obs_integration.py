"""The zero-perturbation contract and the end-to-end observability wiring.

The load-bearing guarantee: enabling full instrumentation must not change
a single simulated decision.  The fleet engine's event log hashes every
event into a SHA-256 run identity, so "bit-identical event log" is a
one-line assertion.
"""

import json

import pytest

from repro.fleet import FleetConfig, FleetSimulation, TrafficConfig
from repro.obs import Observability, install, observability
from repro.sim.batch import SweepRunner
from repro.sim.cache import OperatingPointCache


@pytest.fixture
def restored_observability():
    """Install a fresh enabled Observability; always restore after."""
    obs = Observability(enabled=True)
    previous = install(obs)
    try:
        yield obs
    finally:
        install(previous)


def _fleet_result():
    config = FleetConfig(
        n_servers=2,
        traffic=TrafficConfig(duration_seconds=7200.0),
        seed=7,
    )
    runner = SweepRunner(max_workers=1, cache=OperatingPointCache())
    return FleetSimulation(config, runner=runner).run()


class TestZeroPerturbation:
    def test_instrumented_fleet_run_is_bit_identical(self):
        from repro.fleet.engine import clear_fleet_memos

        baseline = _fleet_result()
        # Settle cold again, so the instrumented day solves sockets too.
        clear_fleet_memos()
        obs = Observability(enabled=True)
        previous = install(obs)
        try:
            instrumented = _fleet_result()
        finally:
            install(previous)
        assert instrumented.event_log_hash == baseline.event_log_hash
        assert len(instrumented.events) == len(baseline.events)
        # ... and the instrumentation actually ran.
        assert "fleet_epochs_total" in obs.metrics
        assert obs.tracer.find("fleet.run")
        # Twin sockets were reused under instrumentation, and the log
        # above is still the uninstrumented one.
        solves = obs.metrics.get("socket_solves_total")
        outcomes = {labels: child.value for labels, child in solves.children()}
        assert outcomes[("solved",)] > 0
        assert outcomes[("reused",)] > 0

    def test_cli_level_zero_perturbation(self, capsys, tmp_path):
        from repro.cli import main

        argv = ["fleet", "--servers", "2", "--duration", "3600"]

        def run_hash(extra):
            assert main(argv + extra) == 0
            out = capsys.readouterr().out
            return next(
                line for line in out.splitlines()
                if line.startswith("event log:")
            )

        plain = run_hash([])
        instrumented = run_hash(
            ["--metrics-out", str(tmp_path / "m.json"),
             "--trace-spans", str(tmp_path / "s.jsonl")]
        )
        assert plain == instrumented


class TestFleetInstrumentation:
    def test_fleet_metrics_and_spans_populate(self, restored_observability):
        # A warm process can satisfy the whole day from the settle memo,
        # which (correctly) skips the guardband/opcache layers — this
        # test is about what a cold run emits.
        from repro.fleet.engine import clear_fleet_memos

        clear_fleet_memos()
        result = _fleet_result()
        obs = restored_observability
        arrived = obs.metrics.get("fleet_jobs_arrived_total")
        total = sum(child.value for _, child in arrived.children())
        assert total == result.n_arrivals
        assert obs.metrics.get("fleet_epochs_total") is not None
        assert obs.metrics.get("fleet_power_cycles_total") is not None
        assert obs.metrics.get("guardband_operate_total") is not None
        assert obs.metrics.get("opcache_lookups_total") is not None
        # the run span covers the whole horizon on the simulation clock
        (run_span,) = obs.tracer.find("fleet.run")
        assert run_span.start_sim_ns == 0
        assert run_span.end_sim_ns == 7200 * 10**9
        # epoch spans nest under the run span
        epochs = obs.tracer.find("fleet.epoch")
        assert epochs
        assert all(s.parent_id == run_span.span_id for s in epochs)

    def test_latency_histogram_counts_completions(self, restored_observability):
        result = _fleet_result()
        family = restored_observability.metrics.get("fleet_job_latency_seconds")
        total = sum(child.count for _, child in family.children())
        assert total == result.n_completions


class TestObservabilityHandle:
    def test_disabled_handle_records_nothing(self):
        obs = Observability(enabled=False)
        obs.count("x_total")
        obs.gauge("g", 1.0)
        obs.observe("h", 1.0)
        with obs.span("a") as span:
            span.annotate(k=1)
        assert len(obs.metrics) == 0
        assert len(obs.tracer) == 0

    def test_enabled_handle_records(self):
        obs = Observability(enabled=True)
        obs.count("x_total", 2, kind="a")
        obs.gauge("g", 3.0)
        obs.observe("h", 0.5)
        with obs.span("a"):
            pass
        assert obs.metrics.get("x_total").labels(kind="a").value == 2.0
        assert obs.metrics.get("g").value == 3.0
        ((_, histogram),) = obs.metrics.get("h").children()
        assert histogram.count == 1
        assert [s.name for s in obs.tracer.spans] == ["a"]

    def test_install_swaps_and_restores(self):
        mine = Observability(enabled=True)
        previous = install(mine)
        try:
            assert observability() is mine
        finally:
            install(previous)
        assert observability() is previous

    def test_install_none_resets_to_disabled(self):
        previous = install(None)
        try:
            assert observability().enabled is False
        finally:
            install(previous)


class TestCliObservabilityOutputs:
    def test_sweep_metrics_out_snapshot_loads(self, capsys, tmp_path):
        from repro.cli import main
        from repro.obs import load_metrics

        path = tmp_path / "m.json"
        assert main(["sweep", "raytrace", "--metrics-out", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        registry = load_metrics(str(path))
        assert registry.get("sweep_batches_total") is not None
        assert registry.get("guardband_operate_total") is not None

    def test_fleet_trace_spans_jsonl(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "spans.jsonl"
        assert main(
            ["fleet", "--servers", "2", "--duration", "3600",
             "--trace-spans", str(path)]
        ) == 0
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records
        names = {r["name"] for r in records}
        assert "fleet.run" in names
        assert "fleet.epoch" in names

    def test_global_handle_is_restored_after_cli_run(self, capsys, tmp_path):
        from repro.cli import main

        before = observability()
        main(["measure", "raytrace", "--metrics-out", str(tmp_path / "m.json")])
        capsys.readouterr()
        assert observability() is before
