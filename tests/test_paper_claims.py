"""The paper's headline claims, asserted from the one claims table.

Every value and band lives in :mod:`repro.analysis.claims`; this module
only measures each claim on the default platform (each figure built once
for the module), renders every figure's table from the same builds,
checks the sign claims on other chips, and checks that EXPERIMENTS.md
quotes what the table measures.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import figures
from repro.analysis.claims import CLAIMS
from repro.analysis.figures import FIGURES, FigureSet, markdown_table, text_table
from repro.chip.aging import AgingModel, aged_server_config
from repro.config import ServerConfig
from repro.sim.batch import SweepRunner

#: Figures that take seconds to build (transient-heavy QoS and colocation).
SLOW_FIGURES = {"fig15", "fig16", "fig17"}

EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def _marks(figure):
    return pytest.mark.slow if figure in SLOW_FIGURES else ()


def _params(claims):
    return [
        pytest.param(claim, id=claim.id, marks=_marks(claim.figure))
        for claim in claims
    ]


@pytest.fixture(scope="module")
def figure_set():
    return FigureSet()


@pytest.mark.parametrize("claim", _params(CLAIMS))
def test_claim_holds_on_the_default_platform(claim, figure_set):
    verdict = claim.check(figure_set)
    assert verdict.passed, str(verdict)


@pytest.mark.parametrize(
    "key", [pytest.param(key, marks=_marks(key)) for key in FIGURES]
)
def test_every_figure_renders_in_both_formats(key, figure_set):
    header, rows = FIGURES[key].table(figure_set[key])
    assert rows
    assert all(isinstance(cell, str) for row in [header, *rows] for cell in row)
    assert all(len(row) == len(header) for row in rows), key
    text = text_table(header, rows).splitlines()
    assert len(text) == len(rows) + 1
    assert len({len(line) for line in text}) == 1  # aligned columns
    markdown = markdown_table(header, rows).splitlines()
    assert len(markdown) == len(rows) + 2
    assert {line.count("|") for line in markdown} == {len(header) + 1}


class TestTable:
    def test_ids_are_unique_and_every_band_is_an_interval(self):
        assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)
        assert {claim.figure for claim in CLAIMS} == set(FIGURES)
        for claim in CLAIMS:
            lo = -float("inf") if claim.lo is None else claim.lo
            hi = float("inf") if claim.hi is None else claim.hi
            assert lo < hi and (claim.lo, claim.hi) != (None, None), claim.id

    def test_figures_do_not_import_the_table(self):
        """perfbench imports ``repro`` and the figure builders; the table
        must stay off that path."""
        probe = (
            "import sys, repro, repro.analysis.figures; "
            "print('repro.analysis.claims' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"


#: The sign claims that must hold on every chip, not only the default one.
SIGN_CLAIMS = ("fig3.saving_decay", "fig12.beats_baseline", "fig12.gain_growth")

VARIANTS = [
    (backend, years)
    for backend in ("power7", "flexwatts")
    for years in (None, 6.0, 10.0)
]


@pytest.mark.parametrize(
    "backend, years",
    VARIANTS,
    ids=[f"{b}-{'new' if y is None else f'{y:g}y'}" for b, y in VARIANTS],
)
def test_sign_claims_hold_across_backends_and_aging(backend, years):
    """The adaptive benefit decays with cores and borrowing beats
    consolidation at eight cores on every PDN backend, new and aged."""
    config = ServerConfig(pdn_backend=backend)
    if years is not None:
        config = aged_server_config(config, AgingModel(), years)
    variant = FigureSet(config)
    # Every Fig. 3 and Fig. 12 claim measures, although the aged baselines
    # sit at ~0% (a ratio over them reads inf); only the signs must hold.
    verdicts = {
        claim.id: claim.check(variant)
        for claim in CLAIMS
        if claim.figure in ("fig3", "fig12")
    }
    for claim_id in SIGN_CLAIMS:
        assert verdicts[claim_id].passed, str(verdicts[claim_id])


def test_die_seed_moves_no_claim():
    """Calibration anchors every die (Sec. 2.2): the die seed changes no
    Fig. 3 or Fig. 12 value at all."""
    built = [
        (
            figures.fig3_core_scaling_power(runner=SweepRunner(seed_root=seed)),
            figures.fig12_borrowing_scaling(runner=SweepRunner(seed_root=seed)),
        )
        for seed in (7, 11, 19)
    ]
    assert built[0] == built[1] == built[2]


# ----------------------------------------------------------------------
# EXPERIMENTS.md quotes what the table measures
# ----------------------------------------------------------------------
_NUMBER = re.compile(r"[-−]?\d+(?:\.\d+)?k?")


def _bold_measured_cells(label: str):
    """The bold measured cells of every EXPERIMENTS.md row named ``label``."""
    cells = []
    for line in EXPERIMENTS.read_text().splitlines():
        parts = [p.strip() for p in line.strip().strip("|").split("|")]
        if line.startswith("|") and parts[0] == label and parts[-1].startswith("**"):
            cells.append(parts[-1].strip("*"))
    return cells


def _quotes(cell: str, measured: float) -> bool:
    """Whether some number in ``cell`` equals ``measured`` at its precision."""
    for token in _NUMBER.findall(cell):
        token = token.replace("−", "-")
        scale = 1000.0 if token.endswith("k") else 1.0
        digits = token.rstrip("k")
        decimals = len(digits.partition(".")[2])
        if float(f"{measured / scale:.{decimals}f}") == float(digits):
            return True
    return False


@pytest.mark.parametrize(
    "claim", _params([claim for claim in CLAIMS if claim.row is not None])
)
def test_experiments_quotes_the_measured_value(claim, figure_set):
    cells = _bold_measured_cells(claim.row)
    assert len(cells) == 1, f"EXPERIMENTS.md rows named {claim.row!r}: {cells}"
    measured = claim.check(figure_set).measured
    assert _quotes(cells[0], measured), (
        f"{claim.id}: EXPERIMENTS.md row {claim.row!r} reads {cells[0]!r}, "
        f"the table measures {measured:.4g}"
    )
