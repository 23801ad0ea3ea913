"""Catalog discovery: the named scenario files shipped under ``scenarios/``.

The catalog is plain files, not registered Python — adding a scenario is
writing a TOML file, and every tool (CLI ``list``/``check``, the tests,
the chaos campaign) discovers the same set by globbing the directory.  The
default directory is resolved relative to the repository root (the
parent of ``src/``), so the CLI works from any working directory inside
a checkout while still honoring an explicit ``--dir``.
"""

from __future__ import annotations

import glob
import os
from typing import List, Optional, Tuple

from ..errors import ScenarioError
from . import codec
from .model import Scenario

#: Catalog directory name at the repository root.
CATALOG_DIRNAME = "scenarios"


def default_catalog_dir() -> str:
    """The shipped catalog directory (repo-root ``scenarios/``)."""
    package_dir = os.path.dirname(os.path.abspath(__file__))
    # src/repro/scenarios -> repo root is three levels up.
    root = os.path.dirname(os.path.dirname(os.path.dirname(package_dir)))
    return os.path.join(root, CATALOG_DIRNAME)


def catalog_paths(directory: Optional[str] = None) -> Tuple[str, ...]:
    """The catalog's scenario files, sorted by name."""
    directory = directory or default_catalog_dir()
    if not os.path.isdir(directory):
        raise ScenarioError(
            f"scenario catalog directory not found: {directory}"
        )
    return tuple(sorted(glob.glob(os.path.join(directory, "*.toml"))))


def load_catalog(directory: Optional[str] = None) -> Tuple[Scenario, ...]:
    """Parse every catalog scenario (name-sorted, names checked unique)."""
    scenarios: List[Scenario] = []
    for path in catalog_paths(directory):
        scenarios.append(codec.load(path))
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        seen = sorted(
            {name for name in names if names.count(name) > 1}
        )
        raise ScenarioError(
            f"duplicate scenario name(s) in catalog: {', '.join(seen)}"
        )
    return tuple(scenarios)


def find_scenario(
    name: str, directory: Optional[str] = None
) -> Scenario:
    """The catalog scenario called ``name``."""
    scenarios = load_catalog(directory)
    for scenario in scenarios:
        if scenario.name == name:
            return scenario
    raise ScenarioError(
        f"no catalog scenario named {name!r} "
        f"(available: {', '.join(s.name for s in scenarios)})"
    )
