"""Package surface: error hierarchy, exports, version."""

import importlib
import re
import sys
import types

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


PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.chip",
    "repro.core",
    "repro.faults",
    "repro.fleet",
    "repro.guardband",
    "repro.obs",
    "repro.pdn",
    "repro.scenarios",
    "repro.sim",
    "repro.telemetry",
    "repro.workloads",
]


def _defining_modules(name, value):
    """The ``repro`` modules that define ``name`` as ``value``: a class's
    or function's own module, else every non-package module binding it."""
    if isinstance(value, (type, types.FunctionType)):
        return [sys.modules[value.__module__]]
    return [
        module
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro.")
        and module is not None
        and not hasattr(module, "__path__")
        and vars(module).get(name) is value
    ]


class TestSubpackageExports:
    @pytest.mark.parametrize("module_name", PACKAGES)
    def test_all_lists_resolve(self, module_name):
        """Each export is the object its defining module binds."""
        package = importlib.import_module(module_name)
        for name in package.__all__:
            if name == "__version__":
                continue
            value = getattr(package, name)
            modules = _defining_modules(name, value)
            assert modules, f"{module_name}.{name} has no defining module"
            for module in modules:
                assert getattr(module, name) is value, f"{module_name}.{name}"

    @pytest.mark.parametrize("module_name", PACKAGES)
    def test_dir_lists_every_export(self, module_name):
        package = importlib.import_module(module_name)
        assert set(package.__all__) <= set(dir(package))

    @pytest.mark.parametrize("module_name", PACKAGES)
    def test_unknown_name_names_the_package(self, module_name):
        package = importlib.import_module(module_name)
        with pytest.raises(AttributeError, match=re.escape(repr(module_name))):
            getattr(package, "no_such_export")

    def test_from_import_of_a_submodule(self):
        from repro.fleet import shard

        assert shard is sys.modules["repro.fleet.shard"]

    def test_star_import_resolves_every_name(self):
        namespace = {}
        exec("from repro.sim import *", namespace)
        assert set(importlib.import_module("repro.sim").__all__) <= set(namespace)

    def test_figures_module_exports(self):
        from repro.analysis import figures

        for name in figures.__all__:
            assert hasattr(figures, name), name
