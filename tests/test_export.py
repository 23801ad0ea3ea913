"""JSON export of figure data."""

import json

import pytest

from repro.analysis.export import export_figure, figure_data
from repro.analysis.figures import FIGURES
from repro.errors import ReproError


class TestFigureData:
    def test_fig3_structure(self):
        data = figure_data("fig3")
        assert data["figure"] == "fig3"
        series = data["data"]
        assert series["core_counts"] == list(range(1, 9))
        assert len(series["static_power"]) == 8
        assert series["mode"] == "undervolt"

    def test_fig15_points(self):
        data = figure_data("fig15")
        points = data["data"]
        assert len(points) == 16
        assert {"n_coremark", "n_other", "other", "coremark_frequency"} <= set(
            points[0]
        )

    def test_fig16_predictor_properties_exported(self):
        data = figure_data("fig16")
        assert "relative_rmse" in data["data"]
        predictor = data["data"]["predictor"]
        assert predictor["slope"] < 0
        assert predictor["fitted"] is True

    def test_unknown_figure_rejected(self):
        with pytest.raises(ReproError):
            figure_data("fig99")


class TestExportFigure:
    @pytest.mark.parametrize("name", ["fig3", "fig12", "fig15"])
    def test_round_trips_through_json(self, name):
        text = export_figure(name)
        parsed = json.loads(text)
        assert parsed["figure"] == name

    def test_cli_export(self, capsys):
        from repro.cli import main

        assert main(["export", "fig3"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["figure"] == "fig3"

    def test_every_exportable_name_has_builder(self):
        for name, figure in FIGURES.items():
            # Resolution only; heavy figures are exercised elsewhere.
            assert name.startswith("fig")
            assert callable(figure.build)
