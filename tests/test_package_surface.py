"""Package surface: error hierarchy, exports, version."""

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in ("ConfigError", "ConvergenceError", "CalibrationError",
                     "SchedulingError", "SensorError", "WorkloadError"):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_repro_error_is_exception(self):
        assert issubclass(errors.ReproError, Exception)

    def test_catching_base_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.SchedulingError("x")


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_quickstart_surface(self):
        """The README's quickstart imports must exist."""
        from repro import (  # noqa: F401
            GuardbandMode,
            build_server,
            get_profile,
            measure,
        )


class TestSubpackageExports:
    @pytest.mark.parametrize(
        "module_name",
        ["repro.chip", "repro.pdn", "repro.guardband", "repro.workloads",
         "repro.sim", "repro.core", "repro.telemetry", "repro.analysis"],
    )
    def test_all_lists_resolve(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_figures_module_exports(self):
        from repro.analysis import figures

        for name in figures.__all__:
            assert hasattr(figures, name), name
