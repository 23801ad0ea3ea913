"""Shared fixtures for the repro test suite."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.config import ChipConfig, PdnConfig, ServerConfig
from repro.sim.run import build_server
from repro.workloads import get_profile


@pytest.fixture
def chip_config() -> ChipConfig:
    """The default chip configuration."""
    return ChipConfig()


@pytest.fixture
def pdn_config() -> PdnConfig:
    """The default power-delivery configuration."""
    return PdnConfig()


@pytest.fixture
def server_config() -> ServerConfig:
    """The default two-socket server configuration."""
    return ServerConfig()


@pytest.fixture
def server(server_config):
    """A fresh default server."""
    return build_server(server_config)


@pytest.fixture
def raytrace():
    """The raytrace profile — the paper's running example."""
    return get_profile("raytrace")


@pytest.fixture
def lu_cb():
    """The lu_cb profile — the paper's overclocking example."""
    return get_profile("lu_cb")


def _pools_available() -> bool:
    """Whether this sandbox permits process pools at all."""
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(abs, -1).result(timeout=60) == 1
    except (OSError, NotImplementedError):
        return False


@pytest.fixture(scope="session")
def require_pools() -> None:
    """Skip the requesting test when the sandbox refuses process pools."""
    if not _pools_available():
        pytest.skip("sandbox refuses process pools")
