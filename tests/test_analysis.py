"""Linear fitting."""

import pytest

from repro.analysis import fit_linear


class TestFitLinear:
    def test_exact_line(self):
        fit = fit_linear([0, 1, 2, 3], [1, 3, 5, 7])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.rmse == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_linear([0, 1], [1, 3])
        assert fit.predict(5) == pytest.approx(11.0)

    def test_noisy_data_r_squared_below_one(self):
        fit = fit_linear([0, 1, 2, 3], [1, 3.5, 4.5, 7])
        assert 0.9 < fit.r_squared < 1.0
        assert fit.rmse > 0

    def test_relative_rmse(self):
        fit = fit_linear([0, 1, 2, 3], [1, 3.5, 4.5, 7])
        assert fit.relative_rmse(4.0) == pytest.approx(fit.rmse / 4.0)

    def test_relative_rmse_rejects_zero_reference(self):
        fit = fit_linear([0, 1], [1, 3])
        with pytest.raises(ValueError):
            fit.relative_rmse(0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_linear([1, 2], [1, 2, 3])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            fit_linear([1], [2])

    def test_rejects_degenerate_x(self):
        with pytest.raises(ValueError):
            fit_linear([2, 2, 2], [1, 2, 3])
