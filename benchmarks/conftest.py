"""Shared infrastructure for the figure-reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures and
appends a paper-vs-measured comparison to a session report, printed in the
terminal summary (so it survives pytest's output capturing).  The figure
benchmark (``test_figures.py``) builds each figure through the session
:class:`FigureSet` and reports and asserts that figure's claims from
``repro.analysis.claims``.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.analysis.claims import claims_of
from repro.analysis.figures import FigureSet
from repro.sim.batch import SweepRunner, set_default_runner
from repro.sim.cache import OperatingPointCache

_REPORT: List[str] = []

#: One operating-point cache for the whole benchmark session: the figure
#: builders overlap heavily (Fig. 3 ⊂ Fig. 5; Fig. 7/9 reuse Fig. 5's
#: static points), so later benchmarks replay earlier settles from memory.
_RUNNER = SweepRunner(cache=OperatingPointCache())


@pytest.fixture
def report():
    """Append-only list of report lines, printed at session end."""
    return _REPORT


@pytest.fixture(scope="session")
def claim_figures():
    """Every figure the claims read, each built at most once per session."""
    return FigureSet()


def check_claims_of(report, figure_set, figure):
    """Append the verdict of every claim on ``figure``; assert they hold."""
    verdicts = [claim.check(figure_set) for claim in claims_of(figure)]
    report.extend(f"  {verdict}" for verdict in verdicts)
    failed = [str(verdict) for verdict in verdicts if not verdict.passed]
    assert not failed, failed


@pytest.fixture(scope="session", autouse=True)
def shared_sweep_runner():
    """Route every figure builder through the session-shared runner."""
    previous = set_default_runner(_RUNNER)
    yield _RUNNER
    set_default_runner(previous)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    stats = _RUNNER.cache.stats
    if stats.lookups:
        terminalreporter.write_sep("=", "operating-point cache")
        terminalreporter.write_line(stats.summary())
    if not _REPORT:
        return
    terminalreporter.write_sep("=", "paper vs measured")
    for line in _REPORT:
        terminalreporter.write_line(line)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a figure builder exactly once under the benchmark clock.

    The builders are deterministic and some take seconds; one round keeps
    the full suite fast while still recording wall time per figure.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
