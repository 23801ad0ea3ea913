"""Start-up census: the modules a fresh process loads, and when.

A fleet or sweep process should import only what its run reaches, and
nothing while the run is timed.  Each probe runs in a fresh interpreter:
this one has imported most of the package long before these tests.
"""

import json
import subprocess
import sys
import textwrap

#: Modules that only the facade, the CLI, tests, examples or a process
#: pool use; a fleet process must not load them at import.
NOT_ON_THE_FLEET_PATH = (
    "repro.api",
    "repro.analysis",
    "repro.core.cluster",
    "repro.sim.engine",
    "repro.telemetry.amester",
    "repro.faults.campaign",
    "repro.faults.report",
    "repro.guardband.audit",
    "multiprocessing",
    "concurrent.futures.process",
)


def _probe(code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_repro_loads_no_simulator_module():
    loaded = _probe(
        """
        import json, sys
        import repro
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
        """
    )
    assert loaded == ["repro", "repro.lazy"]


def test_import_fleet_loads_only_what_a_run_reaches():
    loaded = _probe(
        """
        import json, sys
        import repro.fleet
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert not set(NOT_ON_THE_FLEET_PATH) & set(loaded)
    assert not [m for m in loaded if m.startswith("repro.analysis")]


def test_fleet_day_imports_nothing_while_it_runs():
    """A day with latency-critical jobs reaches the advisor gate, whose
    predictor fit (Fig. 16's) must not import anything mid-run."""
    report = _probe(
        """
        import json, sys
        from repro.fleet import (
            AGS_POLICY, FleetConfig, FleetSimulation, TrafficConfig,
        )
        from repro.fleet import scheduler

        config = FleetConfig(
            n_servers=1,
            traffic=TrafficConfig(
                duration_seconds=1800.0, jobs_per_hour=120.0, lc_fraction=0.5
            ),
            seed=7,
        )
        sim = FleetSimulation(config, AGS_POLICY)
        before = set(sys.modules)
        sim.run()
        print(json.dumps({
            "added": sorted(set(sys.modules) - before),
            "fits": len(scheduler._predictor_memo),
        }))
        """
    )
    assert report["fits"] == 1
    assert report["added"] == []
