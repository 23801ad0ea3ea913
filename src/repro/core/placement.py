"""Placement data structures shared by the AGS schedulers.

A :class:`Placement` says, for each socket, which workloads run how many
threads, and how many cores stay powered on.  Schedulers *produce*
placements; :meth:`Placement.apply` realizes one on a server.  Keeping the
decision and the actuation separate makes scheduler policies trivially
testable without touching the electrical model.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

from ..errors import SchedulingError
from ..workloads.profile import WorkloadProfile
from ..workloads.scaling import SocketShare

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..sim.server import Power720Server


#: Instance-``__dict__`` slot of a :func:`cached_hash` value.
_HASH_SLOT = "_cached_hash"


def cached_hash(cls):
    """Make a frozen dataclass compute its hash once per instance.

    The generated ``__hash__`` re-hashes every field (a nested
    placement's groups and profiles, a policy's enums) on every dict
    probe, and the fleet memos probe the same keys over and over.  The
    cached value *is* the default, ``hash(tuple of the hashed fields)``,
    so set and dict behaviour cannot change; equality stays field-wise.
    It is never pickled: string hashes are salted per process, so a
    value carried into a spawned worker would be wrong there.  Apply
    above ``@dataclass(frozen=True)``.
    """
    names = tuple(
        field.name
        for field in dataclasses.fields(cls)
        if (field.compare if field.hash is None else field.hash)
    )

    def __hash__(self) -> int:
        state = self.__dict__
        value = state.get(_HASH_SLOT)
        if value is None:
            value = hash(tuple([getattr(self, name) for name in names]))
            state[_HASH_SLOT] = value
        return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop(_HASH_SLOT, None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@dataclass(frozen=True)
class ThreadGroup:
    """``n_threads`` threads of one workload on one socket."""

    profile: WorkloadProfile
    n_threads: int

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise SchedulingError(
                f"n_threads must be >= 1, got {self.n_threads}"
            )


@cached_hash
@dataclass(frozen=True)
class Placement:
    """A complete scheduling decision for the server."""

    #: Per-socket tuples of thread groups.
    groups: Tuple[Tuple[ThreadGroup, ...], ...]

    #: Per-socket count of cores to keep powered on (rest power-gated).
    #: ``None`` disables gating entirely.
    keep_on: Tuple[int, ...] = None

    #: Maximum SMT threads stacked per core during placement.
    threads_per_core: int = 1

    def __post_init__(self) -> None:
        if self.keep_on is not None and len(self.keep_on) != len(self.groups):
            raise SchedulingError(
                "keep_on must have one entry per socket: "
                f"{len(self.keep_on)} vs {len(self.groups)} sockets"
            )

    @property
    def n_sockets(self) -> int:
        """Number of sockets the placement spans."""
        return len(self.groups)

    def threads_on(self, socket_id: int) -> int:
        """Total threads placed on one socket."""
        return sum(g.n_threads for g in self.groups[socket_id])

    @property
    def total_threads(self) -> int:
        """Total threads across the server."""
        return sum(self.threads_on(s) for s in range(self.n_sockets))

    def share_of(self, workload: str) -> SocketShare:
        """Per-socket thread counts of one workload (for runtime models)."""
        counts = []
        for socket_groups in self.groups:
            counts.append(
                sum(g.n_threads for g in socket_groups if g.profile.name == workload)
            )
        if sum(counts) == 0:
            raise SchedulingError(f"workload {workload!r} is not in this placement")
        return SocketShare(tuple(counts))

    def workloads(self) -> Sequence[str]:
        """Names of all workloads in the placement (deduplicated, ordered)."""
        seen = []
        for socket_groups in self.groups:
            for group in socket_groups:
                if group.profile.name not in seen:
                    seen.append(group.profile.name)
        return tuple(seen)

    def apply(self, server: "Power720Server") -> None:
        """Realize the placement: clear, place every group, gate spares."""
        if self.n_sockets != server.n_sockets:
            raise SchedulingError(
                f"placement spans {self.n_sockets} sockets, server has "
                f"{server.n_sockets}"
            )
        server.clear()
        for socket_id, socket_groups in enumerate(self.groups):
            for group in socket_groups:
                server.place(
                    socket_id,
                    group.profile,
                    group.n_threads,
                    threads_per_core=self.threads_per_core,
                )
        if self.keep_on is not None:
            server.gate_unused(list(self.keep_on))
