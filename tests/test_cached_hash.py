"""Cached key hashes: the contract the fleet memos rely on.

:func:`repro.core.placement.cached_hash` makes :class:`Placement` and
:class:`FleetPolicy` hash once per instance.  The value must be exactly
the dataclass default (so every set and dict behaves as before), equal
values must hash equal, and the cache must never travel through pickle:
string hashes are salted per process, so a spawned worker would inherit
a value that is wrong there.  The key-completeness checks make sure a
placement that differs in any one field never shares a fleet settle key,
in memory or on disk, and that neither a sweep point key nor a fleet
settle key is shared by two settles that differ in one server-config
leaf field, the mode, ``f_target`` or the die seed.
"""

import copy
import dataclasses
import math
import pickle
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chip.aging import AgingModel, aged_server_config
from repro.config import ServerConfig
from repro.core import placement as placement_module
from repro.core.placement import Placement, ThreadGroup
from repro.fleet import FleetConfig, engine
from repro.fleet.engine import FleetSimulation
from repro.fleet.scheduler import FleetPolicy
from repro.fleet.settle_cache import FleetSettleCache
from repro.guardband import GuardbandMode
from repro.guardband.capping import cap_walk_frequencies
from repro.sim.batch import SweepRunner, SweepTask, config_fingerprint
from repro.workloads import get_profile

PROFILES = ("raytrace", "fft", "mcf", "bzip2")

socket_groups = st.lists(
    st.builds(
        ThreadGroup,
        st.sampled_from(PROFILES).map(get_profile),
        st.integers(1, 8),
    ),
    max_size=3,
).map(tuple)

placements = st.builds(
    Placement,
    groups=st.tuples(socket_groups, socket_groups),
    keep_on=st.none() | st.tuples(st.integers(0, 8), st.integers(0, 8)),
    threads_per_core=st.integers(1, 4),
)

policies = st.builds(
    FleetPolicy,
    name=st.text(max_size=8),
    adaptive=st.booleans(),
    advisor_gate=st.booleans(),
    batch_mode=st.sampled_from(GuardbandMode),
    qos_mode=st.sampled_from(GuardbandMode),
)

keys = placements | policies


def _field_tuple(value):
    return tuple(
        getattr(value, field.name) for field in dataclasses.fields(value)
    )


def _fresh_twin(value):
    return type(value)(**{
        field.name: getattr(value, field.name)
        for field in dataclasses.fields(value)
    })


def _cached(value):
    return placement_module._HASH_SLOT in vars(value)


class TestCachedHashContract:
    @given(keys)
    def test_hash_is_the_dataclass_default(self, value):
        assert not _cached(value)
        expected = hash(_field_tuple(value))
        assert hash(value) == expected
        assert _cached(value)
        assert hash(value) == expected

    @given(keys)
    def test_equal_values_hash_equal(self, value):
        hash(value)
        twin = _fresh_twin(value)
        assert twin == value and twin is not value
        assert not _cached(twin)
        assert hash(twin) == hash(value)
        assert {value: "hit"}[twin] == "hit"

    @given(keys)
    def test_the_cache_is_never_pickled(self, value):
        hash(value)
        state = value.__getstate__()
        assert placement_module._HASH_SLOT not in state
        for clone in (
            pickle.loads(pickle.dumps(value)),
            copy.copy(value),
            copy.deepcopy(value),
        ):
            assert not _cached(clone)
            assert clone == value
            assert hash(clone) == hash(value)

    def test_fields_stay_frozen(self):
        value = Placement(groups=((ThreadGroup(get_profile("fft"), 2),), ()))
        hash(value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.threads_per_core = 2


def _worker_rehash(value):
    """Inside a spawned worker: arrived cached?  Hashes with its salt?"""
    arrived_cached = _cached(value)
    return hash(value) == hash(_field_tuple(value)), arrived_cached


@pytest.mark.usefixtures("require_pools")
def test_a_spawned_worker_rehashes_with_its_own_salt():
    value = Placement(
        groups=((ThreadGroup(get_profile("raytrace"), 2),), ()),
        keep_on=(1, 0),
    )
    policy = FleetPolicy("ags", True, True, GuardbandMode.UNDERVOLT,
                         GuardbandMode.OVERCLOCK)
    hash(value), hash(policy)
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        for sent in (value, policy):
            matches, arrived_cached = pool.submit(
                _worker_rehash, sent
            ).result(timeout=120)
            assert matches
            assert not arrived_cached


# ----------------------------------------------------------------------
# Key completeness: one differing field, two settle keys
# ----------------------------------------------------------------------
class _KeyRecorder:
    """Settle-cache stand-in: records each lookup key, answers a hit."""

    def __init__(self):
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        return object()


def _settle_key(sim, placement, mode=GuardbandMode.UNDERVOLT, f_target=None):
    recorder = _KeyRecorder()
    with mock.patch.object(engine, "fleet_settle_cache", lambda: recorder):
        sim._settle(placement, mode, f_target)
    (key,) = recorder.keys
    return key


def _one_field_variants(value):
    """Copies of ``value`` that differ in exactly one field."""
    socket_id = 0 if value.groups[0] else 1
    group = value.groups[socket_id][0]
    other = next(name for name in PROFILES if name != group.profile.name)

    def with_first_group(replacement):
        groups = list(value.groups)
        groups[socket_id] = (replacement,) + groups[socket_id][1:]
        return dataclasses.replace(value, groups=tuple(groups))

    keep_on = (
        (1, 1) if value.keep_on is None
        else (value.keep_on[0] + 1, value.keep_on[1])
    )
    return {
        "profile": with_first_group(
            ThreadGroup(get_profile(other), group.n_threads)
        ),
        "n_threads": with_first_group(
            ThreadGroup(group.profile, group.n_threads + 1)
        ),
        "keep_on": dataclasses.replace(value, keep_on=keep_on),
        "threads_per_core": dataclasses.replace(
            value, threads_per_core=value.threads_per_core + 1
        ),
    }


@pytest.fixture(scope="module")
def sim():
    return FleetSimulation(FleetConfig(n_servers=1), trace=())


class TestSettleKeyCompleteness:
    @settings(max_examples=50, deadline=None)
    @given(placements.filter(lambda p: p.groups[0] or p.groups[1]))
    def test_one_differing_field_never_shares_a_key(self, sim, value):
        base = _settle_key(sim, value)
        for field_name, variant in _one_field_variants(value).items():
            key = _settle_key(sim, variant)
            assert key != base, field_name
            assert (
                FleetSettleCache._file_name(key)
                != FleetSettleCache._file_name(base)
            ), field_name

    @given(placements.filter(lambda p: p.groups[0] or p.groups[1]))
    def test_equal_placements_share_a_key(self, sim, value):
        key = _settle_key(sim, value)
        twin_key = _settle_key(sim, _fresh_twin(value))
        assert twin_key == key
        assert (
            FleetSettleCache._file_name(twin_key)
            == FleetSettleCache._file_name(key)
        )


# ----------------------------------------------------------------------
# Key completeness: the rest of the key (server config, mode, f_target)
# ----------------------------------------------------------------------
def _leaves(value, path=()):
    """``(path, value)`` of every non-dataclass field, depth first."""
    for field in dataclasses.fields(value):
        leaf = getattr(value, field.name)
        if dataclasses.is_dataclass(leaf):
            yield from _leaves(leaf, path + (field.name,))
        else:
            yield path + (field.name,), leaf


def _with_leaf(value, path, leaf):
    head, *rest = path
    if rest:
        leaf = _with_leaf(getattr(value, head), rest, leaf)
    return dataclasses.replace(value, **{head: leaf})


def _nudged(leaf):
    """A different, still valid value of the same type."""
    if isinstance(leaf, str):
        return "flexwatts" if leaf == "power7" else "power7"
    if isinstance(leaf, int):
        return leaf + 1
    if isinstance(leaf, float):
        return math.nextafter(leaf, math.inf)
    raise TypeError(f"no nudge for a {type(leaf).__name__} leaf")


def _one_leaf_variants(config):
    return {
        ".".join(path): _with_leaf(config, path, _nudged(leaf))
        for path, leaf in _leaves(config)
    }


server_configs = st.builds(
    lambda backend, age: (
        ServerConfig(pdn_backend=backend)
        if age is None
        else aged_server_config(ServerConfig(pdn_backend=backend), AgingModel(), age)
    ),
    st.sampled_from(["power7", "flexwatts"]),
    st.none() | st.floats(min_value=0.5, max_value=10.0),
)

MENU = cap_walk_frequencies(ServerConfig())
f_targets = st.none() | st.sampled_from(MENU)
adaptive_modes = st.sampled_from([GuardbandMode.UNDERVOLT, GuardbandMode.OVERCLOCK])
KEY_PLACEMENT = Placement(
    groups=(
        (ThreadGroup(get_profile("raytrace"), 4),),
        (ThreadGroup(get_profile("fft"), 2),),
    ),
    keep_on=(4, 2),
)


def _sweep_keys(config, mode, f_target, seed=7):
    """The sweep runner's point key of every mode a task needs."""
    task = SweepTask.scheduled(
        KEY_PLACEMENT, get_profile("raytrace"), mode, f_target=f_target
    )
    return SweepRunner()._point_keys(config_fingerprint(config), task, seed)


def _fleet_key(config, mode, f_target, seed=7):
    sim = FleetSimulation(
        FleetConfig(n_servers=1, server_config=config, seed=seed), trace=()
    )
    return _settle_key(sim, KEY_PLACEMENT, mode, f_target)


def _assert_keys_apart(key, other, what):
    assert key != other, what
    assert FleetSettleCache._file_name(key) != FleetSettleCache._file_name(other), what


class TestRestOfKeyCompleteness:
    def test_every_leaf_is_nudged(self):
        variants = _one_leaf_variants(ServerConfig())
        assert len(variants) == len(list(_leaves(ServerConfig()))) > 40
        for name, variant in variants.items():
            assert variant != ServerConfig(), name

    @settings(max_examples=15, deadline=None)
    @given(server_configs, adaptive_modes, f_targets)
    def test_one_config_leaf_never_shares_a_key(self, config, mode, f_target):
        sweep = _sweep_keys(config, mode, f_target)
        fleet = _fleet_key(config, mode, f_target)
        for name, variant in _one_leaf_variants(config).items():
            variant_sweep = _sweep_keys(variant, mode, f_target)
            for mode_value, key in sweep.items():
                assert variant_sweep[mode_value] != key, (name, mode_value)
            _assert_keys_apart(_fleet_key(variant, mode, f_target), fleet, name)

    @settings(max_examples=15, deadline=None)
    @given(server_configs)
    def test_mode_and_f_target_never_share_a_key(self, config):
        seen_sweep = {}
        seen_fleet = {}
        for f_target in (None,) + MENU:
            undervolt = _sweep_keys(config, GuardbandMode.UNDERVOLT, f_target)
            overclock = _sweep_keys(config, GuardbandMode.OVERCLOCK, f_target)
            # The static half is shared on purpose: it does not depend on
            # which adaptive mode it is paired against.
            assert undervolt["static"] == overclock["static"]
            for key in (
                undervolt["static"], undervolt["undervolt"], overclock["overclock"]
            ):
                assert key not in seen_sweep, (f_target, seen_sweep.get(key))
                seen_sweep[key] = f_target
            for mode in GuardbandMode:
                key = _fleet_key(config, mode, f_target)
                assert key not in seen_fleet, (mode, f_target, seen_fleet.get(key))
                seen_fleet[key] = (mode, f_target)
        names = {FleetSettleCache._file_name(key) for key in seen_fleet}
        assert len(names) == len(seen_fleet)

    @given(server_configs, adaptive_modes, f_targets)
    @settings(max_examples=15, deadline=None)
    def test_the_die_seed_never_shares_a_key(self, config, mode, f_target):
        for mode_value, key in _sweep_keys(config, mode, f_target, seed=7).items():
            assert _sweep_keys(config, mode, f_target, seed=11)[mode_value] != key
        _assert_keys_apart(
            _fleet_key(config, mode, f_target, seed=11),
            _fleet_key(config, mode, f_target, seed=7),
            "seed",
        )
