"""Pluggable power-delivery backends: one registry, many PDN models.

The simulator's electrical core is :class:`~repro.pdn.delivery.
PowerDeliveryPath` — VRM rail, loadline, IR grid, di/dt noise.  Until
now the POWER7+ loadline model was hard-wired into
:class:`~repro.sim.server.Power720Server`.  FlexWatts (PAPERS.md) makes
the case that the delivery network itself is a design variable: hybrid
on-board/on-chip regulation trades loadline resistance against local
conversion loss.  To compare delivery models *inside one scenario*, the
PDN is now a named backend resolved through this registry.

A backend is anything implementing :class:`PdnBackend`: a ``name`` and a
``build_path`` hook that constructs the delivery path for one socket.
``ServerConfig.pdn_backend`` selects the backend by name; the scenario
policy key ``policy.pdn_backend`` and the ``measure(pdn_backend=...)``
facade kwarg thread down to it.

Two backends ship in-tree:

``power7``
    The paper's POWER7+ loadline model, bit-identical to the previously
    hard-wired path.  This is the default; every existing golden hash
    is pinned against it.

``flexwatts``
    A simplified FlexWatts-style hybrid: an on-board regulation stage
    close to the socket cuts the effective loadline resistance roughly
    in half, at the cost of a higher shared-grid resistance (the board
    VR's output network sits in the shared path) and slightly stronger
    neighbour coupling.  It reuses the same electrical solver — only
    the :class:`~repro.config.PdnConfig` resistances differ — so it is
    exactly as deterministic as the default.

Unknown names raise :class:`~repro.errors.ConfigError` listing what is
registered, so a typo in a scenario file fails loudly at build time.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Tuple

from ..config import PdnConfig
from ..errors import ConfigError
from ..floorplan import Floorplan
from .delivery import PowerDeliveryPath
from .vrm import VoltageRegulatorModule


@dataclasses.dataclass(frozen=True)
class PdnBackend:
    """A named power-delivery model.

    ``transform`` maps the server's :class:`PdnConfig` to the effective
    electrical configuration this backend simulates; ``build_path``
    constructs the per-socket delivery path from it.  Keeping the
    transform explicit (rather than an opaque builder) means a backend
    is introspectable: ``backend.effective_config(cfg)`` shows exactly
    which resistances a scenario ran with.
    """

    #: Registry key; also what ``ServerConfig.pdn_backend`` names.
    name: str

    #: One-line description surfaced in error messages and docs.
    description: str

    #: PdnConfig → effective PdnConfig for this delivery model.
    transform: Callable[[PdnConfig], PdnConfig]

    def effective_config(self, config: PdnConfig) -> PdnConfig:
        """The electrical configuration this backend actually simulates."""
        return self.transform(config)

    def build_vrm(
        self, config: PdnConfig, n_rails: int
    ) -> VoltageRegulatorModule:
        """Construct the shared VRM under this backend.

        The VRM owns the loadline drop, so it must see the same
        effective configuration as the per-socket paths.
        """
        return VoltageRegulatorModule(
            self.effective_config(config), n_rails=n_rails
        )

    def build_path(
        self,
        config: PdnConfig,
        floorplan: Floorplan,
        vrm: VoltageRegulatorModule,
        rail: int,
    ) -> PowerDeliveryPath:
        """Construct one socket's delivery path under this backend."""
        return PowerDeliveryPath(
            self.effective_config(config), floorplan, vrm, rail
        )


_REGISTRY: Dict[str, PdnBackend] = {}

#: Name of the backend every config defaults to.
DEFAULT_BACKEND = "power7"


def register_backend(backend: PdnBackend) -> PdnBackend:
    """Add ``backend`` to the registry (last registration wins)."""
    if not backend.name:
        raise ConfigError("PDN backend name must be a non-empty string")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> PdnBackend:
    """Resolve a backend by name; unknown names list what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ConfigError(
            f"unknown PDN backend {name!r}; registered backends: {known}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def _power7_transform(config: PdnConfig) -> PdnConfig:
    # The POWER7+ loadline model *is* the PdnConfig — identity.
    return config


def _flexwatts_transform(config: PdnConfig) -> PdnConfig:
    # Hybrid on-board VR: the regulation point moves next to the socket,
    # halving the effective loadline the cores see.  The board VR's
    # output network now sits in the shared path (higher r_ir_shared)
    # and couples the sockets slightly more strongly.  Local per-core
    # grid and di/dt behaviour are unchanged — same die, same grid.
    return dataclasses.replace(
        config,
        r_loadline=config.r_loadline * 0.5,
        r_ir_shared=config.r_ir_shared * 1.6,
        ir_neighbour_coupling=min(1.0, config.ir_neighbour_coupling * 1.15),
    )


POWER7_BACKEND = register_backend(
    PdnBackend(
        name="power7",
        description="POWER7+ loadline model (paper default)",
        transform=_power7_transform,
    )
)

FLEXWATTS_BACKEND = register_backend(
    PdnBackend(
        name="flexwatts",
        description=(
            "simplified FlexWatts-style hybrid: on-board VR halves the "
            "loadline, shared-grid resistance and coupling rise"
        ),
        transform=_flexwatts_transform,
    )
)
