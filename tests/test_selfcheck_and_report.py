"""The calibration self-check and the markdown report generator."""

import dataclasses

import pytest

from repro.analysis.claims import CLAIMS, Claim, Verdict, check_claims
from repro.analysis.report import generate_report
from repro.config import PdnConfig, ServerConfig


class TestVerdict:
    CLAIM = Claim("x.y", "Fig. 0", "x", "10", 8.0, 12.0, float)
    ABOVE = Claim("x.y", "Fig. 0", "x", "10", 8.0, None, float)
    BELOW = Claim("x.y", "Fig. 0", "x", "10", None, 8.0, float)

    def test_pass_inside_band(self):
        assert Verdict(self.CLAIM, 11.0).passed
        assert Verdict(self.ABOVE, 1e9).passed

    def test_fail_outside_band(self):
        """Bands are open: the edges fail."""
        for measured in (13.0, 12.0, 8.0):
            assert not Verdict(self.CLAIM, measured).passed
        assert not Verdict(self.BELOW, 8.0).passed

    def test_str_contains_verdict(self):
        line = str(Verdict(self.CLAIM, 13.0))
        assert line.startswith("[FAIL] x: expected 8–12 (paper 10), measured 13.00")
        assert "(Fig. 0)" in line


@pytest.mark.slow
class TestSelfCheck:
    def test_detuned_platform_fails(self):
        """Tripling the loadline must blow several anchors — the check is
        actually sensitive to the calibration.  (Every claim holding on the
        default platform is tests/test_paper_claims.py.)"""
        base = PdnConfig()
        config = ServerConfig(
            pdn=dataclasses.replace(base, r_loadline=base.r_loadline * 3)
        )
        messages = []
        verdicts = check_claims(config, progress=messages.append)
        assert [v.claim for v in verdicts] == list(CLAIMS)
        assert not all(v.passed for v in verdicts)
        # One progress line per figure: each builder ran once.
        assert len(messages) == len(set(messages)) == len({c.figure for c in CLAIMS})


@pytest.mark.slow
class TestReport:
    @pytest.fixture(scope="class")
    def report_text(self):
        return generate_report()

    def test_contains_every_section(self, report_text):
        for section in ("Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 9",
                        "Fig. 12", "Fig. 14", "Fig. 16", "Fig. 17"):
            assert section in report_text

    def test_is_markdown_tables(self, report_text):
        assert report_text.count("|---|") >= 5

    def test_quotes_paper_values(self, report_text):
        assert "| claim | paper | band | measured | verdict |" in report_text
        assert "| MIPS predictor RMSE (%) | 0.3% |" in report_text
        for claim in CLAIMS:
            assert f"| {claim.quantity} | {claim.paper} | {claim.band} |" in report_text

    def test_mentions_all_corunners(self, report_text):
        for level in ("light", "medium", "heavy"):
            assert level in report_text
