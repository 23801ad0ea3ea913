"""The sweep runner's failure manifest, carried by :class:`SweepError`."""

import functools
import multiprocessing
import os

import pytest

from repro.errors import SweepError
from repro.guardband import GuardbandMode
from repro.obs import Observability, install, observability
from repro.sim import batch
from repro.sim.batch import (
    SweepRunner,
    SweepTask,
    TaskFailure,
    core_scaling_tasks,
)
from repro.sim.cache import OperatingPointCache
from repro.workloads import get_profile


def good_task():
    return SweepTask.consolidated(
        get_profile("raytrace"), 1, GuardbandMode.UNDERVOLT
    )


def poisoned_task():
    # More threads than the server has hardware slots: the worker's
    # ``place`` raises SchedulingError — a per-task failure, not a crash.
    return SweepTask.consolidated(
        get_profile("raytrace"), 999, GuardbandMode.UNDERVOLT
    )


class TestFailureManifest:
    def test_error_carries_the_manifest(self):
        with pytest.raises(SweepError) as exc:
            SweepRunner().run([good_task(), poisoned_task()])
        (failure,) = exc.value.failures
        assert isinstance(failure, TaskFailure)
        assert failure.index == 1
        assert failure.label == poisoned_task().label()
        assert failure.error_type == "SchedulingError"
        # An exception is never retried: a pure task fails every time.
        assert failure.attempts == 1

    def test_strict_raises_with_manifest_after_caching_successes(self):
        cache = OperatingPointCache()
        runner = SweepRunner(cache=cache)
        with pytest.raises(SweepError) as exc:
            runner.run([good_task(), poisoned_task()])
        assert len(exc.value.failures) == 1
        assert exc.value.failures[0].error_type == "SchedulingError"
        assert "SchedulingError" in str(exc.value)
        # The sibling that succeeded was cached before the raise.
        replay = SweepRunner(cache=cache).run([good_task()])
        assert replay.n_from_cache == 1

    def test_all_good_batch_has_empty_manifest(self):
        report = SweepRunner().run([good_task()])
        assert report.n_executed == 1
        assert all(result is not None for result in report.results)

    def test_summary_names_failures(self):
        with pytest.raises(SweepError) as exc:
            SweepRunner().run([good_task(), poisoned_task()])
        summary = str(exc.value)
        assert "1 of 2 sweep task(s) failed" in summary
        assert poisoned_task().label() in summary
        assert "SchedulingError" in summary

    def test_failure_describe_mentions_attempts(self):
        failure = TaskFailure(
            index=0, label="x", error_type="E", error="m", attempts=3
        )
        assert "after 3 attempts" in failure.describe()


_execute_task = batch._execute_task


def _die_once(marker, payload, *attempt):
    """``_execute_task``, except that the pool worker settling
    ``raytrace:n3`` dies with ``os._exit`` the first time (``marker``
    records that it did)."""
    if (
        multiprocessing.parent_process() is not None
        and payload[2].label().startswith("raytrace:n3:")
        and not os.path.exists(marker)
    ):
        open(marker, "w").close()
        os._exit(17)
    return _execute_task(payload, *attempt)


@pytest.mark.chaos
@pytest.mark.usefixtures("require_pools")
class TestWorkerDeath:
    """A sweep survives a pool worker dying, like a sharded fleet run.

    The dead worker breaks its pool, so every task still unfinished in
    it fails; they re-run on a fresh pool and the batch completes with
    the results an in-process run gives.
    """

    def test_killed_worker_is_rerun_bit_identical(self, tmp_path, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched worker entry point needs fork")
        tasks = core_scaling_tasks(
            get_profile("raytrace"), GuardbandMode.UNDERVOLT
        )
        assert len(tasks) == 8
        expected = SweepRunner(max_workers=1).run_results(tasks)
        marker = str(tmp_path / "killed")
        monkeypatch.setattr(
            batch, "_execute_task", functools.partial(_die_once, marker)
        )
        previous = install(Observability(enabled=True))
        try:
            report = SweepRunner(max_workers=2).run(tasks)
            retried = observability().metrics.get("tasks_retried_total")
        finally:
            install(previous)
        assert os.path.exists(marker)  # the worker really died
        assert report.used_processes
        assert list(report.results) == expected
        assert retried.labels(layer="sweep").value == 1
