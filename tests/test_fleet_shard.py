"""Sharded fleet execution: cell assembly, fault routing, digest identity.

The load-bearing property: the merged event-log SHA-256 depends only on
the *cell partition*, never on how many shard processes (or sweep workers)
executed it.  These tests run the same day under every shard/worker
combination and assert one digest.
"""

import dataclasses
import gc
import hashlib
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultError, SchedulingError
from repro.faults.plan import FaultPlan
from repro.faults.spec import (
    CacheCorruptionFault,
    CpmStuckFault,
    JobKillFault,
    ServerCrashFault,
)
from repro.fleet import FleetConfig, TrafficConfig
from repro.fleet import metrics, shard
from repro.fleet.engine import FleetSimulation
from repro.fleet.scheduler import AGS_POLICY
from repro.fleet.shard import (
    ENV_SHARD_FAULT,
    MAX_SHARD_RETRIES,
    _merged_stream,
    _simulate_cell,
    build_cells,
    merge_cell_results,
    run_cell_specs,
    run_sharded,
)
from repro.fleet.traffic import generate_trace
from repro.sim.cache import canonical_json

#: Short but non-trivial day: queueing, completions, and power cycling
#: all occur, so the logs exercise every event kind.
DURATION = 2 * 3600.0


@pytest.fixture(scope="module")
def config():
    return FleetConfig(
        n_servers=8,
        traffic=TrafficConfig(
            duration_seconds=DURATION, jobs_per_hour=200, lc_fraction=0.2
        ),
        seed=5,
    )


def _cut(n_servers, cell_servers, plan=None):
    """The homogeneous cells ``run_sharded`` builds for one fleet."""
    return build_cells(
        [(FleetConfig(n_servers=n_servers), cell_servers, "")], plan
    )


class TestCellLayout:
    """The fixed partition :func:`build_cells` cuts."""

    def test_even_partition(self):
        cells = _cut(8, 2)
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert [c.config.n_servers for c in cells] == [2, 2, 2, 2]
        assert [c.offset for c in cells] == [0, 2, 4, 6]

    def test_ragged_tail_cell(self):
        cells = _cut(10, 4)
        assert [c.config.n_servers for c in cells] == [4, 4, 2]

    def test_single_cell_when_wider_than_fleet(self):
        (cell,) = _cut(4, 100)
        assert cell.config.n_servers == 4
        (whole,) = _cut(4, None)
        assert whole == cell

    def test_job_routing_covers_every_cell(self):
        plan = FaultPlan(
            specs=tuple(
                JobKillFault(start_seconds=1.0, job_id=j) for j in range(8)
            )
        )
        cells = _cut(8, 2, plan)
        for cell in cells:
            assert [s.job_id % 4 for s in cell.fault_plan.specs] == [
                cell.index
            ] * 2

    def test_server_routing(self):
        plan = FaultPlan(
            specs=tuple(
                ServerCrashFault(start_seconds=1.0, server_id=server)
                for server in (0, 7, 9)
            )
        )
        cells = _cut(10, 4, plan)
        assert [
            [s.server_id for s in c.fault_plan.specs] for c in cells
        ] == [[0], [3], [1]]
        out_of_range = FaultPlan(
            specs=(ServerCrashFault(start_seconds=1.0, server_id=10),)
        )
        with pytest.raises(SchedulingError):
            _cut(10, 4, out_of_range)

    def test_rejects_bad_shapes(self):
        with pytest.raises(SchedulingError):
            _cut(0, 1)
        with pytest.raises(SchedulingError):
            _cut(4, 0)
        with pytest.raises(SchedulingError):
            build_cells([])


class TestFaultRouting:
    def test_crash_spec_remaps_to_cell_local_id(self):
        plan = FaultPlan(
            specs=(
                ServerCrashFault(
                    start_seconds=10.0, server_id=5, repair_seconds=60.0
                ),
            )
        )
        cells = _cut(8, 2, plan)
        assert [c.index for c in cells if c.fault_plan] == [2]
        spec = cells[2].fault_plan.specs[0]
        assert spec.server_id == 1  # global 5 → cell 2, local 1
        assert spec.repair_seconds == 60.0

    def test_job_kill_routes_by_job_id(self):
        plan = FaultPlan(specs=(JobKillFault(start_seconds=5.0, job_id=7),))
        cells = _cut(8, 2, plan)
        assert [c.index for c in cells if c.fault_plan] == [7 % 4]

    def test_socket_fault_remaps_server_keeps_socket(self):
        plan = FaultPlan(
            specs=(
                CpmStuckFault(
                    start_seconds=1.0,
                    duration_seconds=10.0,
                    server_id=6,
                    socket_id=1,
                ),
            )
        )
        spec = _cut(8, 2, plan)[3].fault_plan.specs[0]
        assert spec.server_id == 0
        assert spec.socket_id == 1

    def test_cache_corruption_reaches_every_cell(self):
        tear = CacheCorruptionFault(start_seconds=0.0, every_n=3)
        cells = _cut(8, 2, FaultPlan(specs=(tear,), seed=4))
        assert all(c.fault_plan == FaultPlan((tear,), 4) for c in cells)

    def test_standalone_specs_are_rejected_under_sharding(self):
        plan = FaultPlan(
            specs=(CpmStuckFault(start_seconds=1.0, server_id=None),)
        )
        with pytest.raises(FaultError, match="cpm_stuck: standalone"):
            _cut(8, 2, plan)

    def test_single_cell_passes_the_plan_through_untouched(self):
        plan = FaultPlan(
            specs=(
                CpmStuckFault(start_seconds=1.0, server_id=3),
                JobKillFault(start_seconds=2.0, job_id=5),
                ServerCrashFault(start_seconds=3.0, server_id=0),
            ),
            seed=9,
        )
        (cell,) = _cut(4, 4, plan)
        assert cell.fault_plan == plan


@st.composite
def _groups_and_plans(draw):
    """Random server groups plus a plan over their global server ids."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    groups = [
        (
            FleetConfig(n_servers=size),
            draw(st.one_of(st.none(), st.integers(1, 7))),
            f"g{index}",
        )
        for index, size in enumerate(sizes)
    ]
    n_servers = sum(sizes)
    times = st.sampled_from([0.0, 60.0, 120.0, 600.0])
    # At most one crash per server keeps live counts in [0, size].
    crashed = draw(
        st.lists(st.integers(0, n_servers - 1), unique=True, max_size=4)
    )
    specs = [
        ServerCrashFault(
            start_seconds=draw(times),
            server_id=server,
            repair_seconds=draw(st.sampled_from([None, 60.0, 300.0])),
        )
        for server in crashed
    ]
    specs += draw(
        st.lists(
            st.builds(
                CpmStuckFault,
                start_seconds=times,
                server_id=st.integers(0, n_servers - 1),
            )
            | st.builds(
                JobKillFault, start_seconds=times, job_id=st.integers(0, 50)
            ),
            max_size=6,
        )
    )
    plan = FaultPlan(specs=tuple(draw(st.permutations(specs))), seed=3)
    budget = draw(st.floats(100.0, 5000.0, allow_nan=False))
    return groups, plan, budget


class TestBuildCellsProperties:
    @settings(max_examples=150, deadline=None)
    @given(_groups_and_plans())
    def test_routing_and_budget_shares(self, drawn):
        groups, plan, budget = drawn
        cells = build_cells(groups, plan, budget)
        n_cells = len(cells)
        # Fixed width per group; only a group's last cell is narrower.
        for config, cell_servers, label in groups:
            widths = [c.config.n_servers for c in cells if c.label == label]
            width = cell_servers or config.n_servers
            assert sum(widths) == config.n_servers
            assert all(w == width for w in widths[:-1])
            assert 0 < widths[-1] <= width

        def owner(spec):
            if isinstance(spec, JobKillFault):
                return spec.job_id % n_cells
            (cell,) = [
                c for c in cells
                if c.offset <= spec.server_id < c.offset + c.config.n_servers
            ]
            return cell.index

        # Each cell holds exactly its specs, in plan order, and offset +
        # local id gives back every server-scoped spec's global id.
        for cell in cells:
            specs = cell.fault_plan.specs if cell.fault_plan else ()
            rebased = [
                spec
                if isinstance(spec, JobKillFault)
                else dataclasses.replace(
                    spec, server_id=cell.offset + spec.server_id
                )
                for spec in specs
            ]
            assert rebased == [
                spec for spec in plan.specs if owner(spec) == cell.index
            ]
            assert all(
                0 <= spec.server_id < cell.config.n_servers
                for spec in specs
                if not isinstance(spec, JobKillFault)
            )

        # At every schedule instant the live cells' budgets sum to the
        # fleet budget (the initial split sums to it bit-exactly).
        assert sum(c.config.fleet_power_budget_w for c in cells) == budget
        crashes = plan.of_type(ServerCrashFault)
        instants = sorted(
            {t for c in cells for t, _ in c.config.fleet_power_budget_schedule}
        )
        for at in instants:
            in_force, live = [], []
            for cell in cells:
                due = [
                    w for t, w in cell.config.fleet_power_budget_schedule
                    if t <= at
                ]
                in_force.append(
                    due[-1] if due else cell.config.fleet_power_budget_w
                )
                down = sum(
                    1
                    for crash in crashes
                    if owner(crash) == cell.index
                    and crash.start_seconds <= at
                    and (
                        crash.repair_seconds is None
                        or crash.start_seconds + crash.repair_seconds > at
                    )
                )
                live.append(cell.config.n_servers - down)
            assert sum(
                w for w, n in zip(in_force, live) if n > 0
            ) == pytest.approx(budget, rel=1e-12)


class TestStandaloneSpecs:
    """A standalone spec configures the measure-path injector, which no
    fleet runs: the fleet must refuse it rather than run fault-free."""

    PLAN = FaultPlan(
        specs=(CpmStuckFault(start_seconds=1.0, server_id=None, code=0),)
    )

    def test_fleet_simulation_rejects_standalone_specs(self, config):
        with pytest.raises(FaultError, match="cpm_stuck: standalone"):
            FleetSimulation(config, fault_plan=self.PLAN)

    def test_single_cell_run_sharded_rejects_standalone_specs(self, config):
        with pytest.raises(FaultError, match="cpm_stuck: standalone"):
            run_sharded(config, fault_plan=self.PLAN)


class TestDigestIdentity:
    def test_single_cell_equals_the_plain_simulation(self, config):
        plain = FleetSimulation(config).run()
        sharded = run_sharded(config, n_shards=1)
        assert sharded.event_log_hash == plain.event_log_hash
        assert (
            sharded.adaptive_energy_joules == plain.adaptive_energy_joules
        )
        assert sharded.static_energy_joules == plain.static_energy_joules
        assert len(sharded.events) == len(plain.events)
        assert sharded.job_records == plain.job_records

    @pytest.mark.slow
    def test_digest_is_invariant_across_shards_and_workers(self, config):
        """The acceptance matrix: shards 1/2/4 x workers 1/2, one hash."""
        outcomes = {}
        for n_shards in (1, 2, 4):
            for workers in (1, 2):
                result = run_sharded(
                    config,
                    n_shards=n_shards,
                    cell_servers=2,
                    workers=workers,
                )
                outcomes[(n_shards, workers)] = result
        digests = {r.event_log_hash for r in outcomes.values()}
        assert len(digests) == 1, f"split digests: {digests}"
        energies = {
            r.adaptive_energy_joules for r in outcomes.values()
        }
        assert len(energies) == 1
        assert all(r.conserved for r in outcomes.values())

    def test_shard_count_does_not_change_the_digest(self, config):
        """The quick (not slow) core of the matrix: 1 vs 2 shards."""
        one = run_sharded(config, n_shards=1, cell_servers=4)
        two = run_sharded(config, n_shards=2, cell_servers=4)
        assert one.event_log_hash == two.event_log_hash
        assert one.n_completions == two.n_completions

    def test_cell_layout_is_part_of_the_identity(self, config):
        """Different cell widths are different runs — by design."""
        wide = run_sharded(config, n_shards=1, cell_servers=8)
        narrow = run_sharded(config, n_shards=1, cell_servers=2)
        assert wide.event_log_hash != narrow.event_log_hash

    def test_merged_log_reads_as_one_fleet(self, config):
        result = run_sharded(config, n_shards=2, cell_servers=2)
        server_ids = {
            entry["server_id"]
            for entry in result.events
            if "server_id" in entry
        }
        assert server_ids  # the day touched servers at all
        assert max(server_ids) >= 2  # beyond cell 0's local range
        assert all(0 <= s < config.n_servers for s in server_ids)
        times = [entry["time_ns"] for entry in result.events]
        assert times == sorted(times)


def _former_cell(cell, trace):
    """A cell's result and lines as the former ``_simulate_cell`` built them.

    Verbatim reference: the engine worked in cell-local server ids, and
    after the run every log entry was copied, remapped by the cell
    offset and rendered again, and records and fallback dwell were
    remapped the same way.
    """
    result = FleetSimulation(
        cell.config, AGS_POLICY, trace=trace, fault_plan=cell.fault_plan
    ).run()
    offset = cell.offset
    lines = []
    for entry in result.events:
        if "server_id" in entry:
            entry = dict(entry)
            entry["server_id"] += offset
        lines.append((entry["time_ns"], canonical_json(entry)))
    records = tuple(
        dataclasses.replace(
            record,
            server_id=(
                None if record.server_id is None else record.server_id + offset
            ),
        )
        for record in result.job_records
    )
    fallback = tuple(
        (server_id + offset, socket_id, seconds)
        for server_id, socket_id, seconds in result.fallback_seconds
    )
    result = dataclasses.replace(
        result, events=(), job_records=records, fallback_seconds=fallback
    )
    return result, lines


def _assert_cells_render_as_before(config, cell_servers, plan=None):
    """Every cell's lines, records and fallback dwell equal the former
    remapped ones; returns the lines and fallback dwell of all cells."""
    cells = build_cells(
        [(config, cell_servers, "")], plan, config.fleet_power_budget_w
    )
    assert len(cells) >= 2 and cells[-1].offset > 0
    jobs = generate_trace(config.traffic, config.seed)
    rendered, fallback = [], []
    for cell in cells:
        trace = tuple(
            job for job in jobs if job.job_id % len(cells) == cell.index
        )
        result, lines = _simulate_cell(cell, AGS_POLICY, trace, 1)
        former, former_lines = _former_cell(cell, trace)
        assert lines == former_lines
        assert result.job_records == former.job_records
        assert result.fallback_seconds == former.fallback_seconds
        if cell.offset:
            # The per-cell hash is now over global ids; nothing reads it.
            assert result.event_log_hash != former.event_log_hash
        rendered.extend(line for _, line in lines)
        fallback.extend(result.fallback_seconds)
    return rendered, fallback


class TestOneRender:
    """A cell's engine logs global server ids and renders each entry
    once; the lines must stay byte-equal to the former remap-and-render
    pass, so every merged digest holds."""

    def test_churn_cells_render_as_before(self):
        config = FleetConfig(
            n_servers=8,
            traffic=TrafficConfig(
                duration_seconds=DURATION,
                jobs_per_hour=100.0,
                lc_fraction=0.0,
                batch_profiles=("raytrace",),
                batch_threads=(2,),
            ),
            seed=7,
        )
        _assert_cells_render_as_before(config, 4)

    def test_budgeted_cells_render_as_before(self):
        config = FleetConfig(
            n_servers=4,
            traffic=TrafficConfig(
                duration_seconds=3600.0, jobs_per_hour=120.0, lc_fraction=0.15
            ),
            seed=7,
            fleet_power_budget_w=550.0,
        )
        lines, _ = _assert_cells_render_as_before(config, 2)
        assert any('"cap_throttled":true' in line for line in lines)

    def test_each_entry_is_rendered_once(self, config, monkeypatch):
        calls = []

        def counting(value):
            calls.append(value)
            return canonical_json(value)

        monkeypatch.setattr(metrics, "canonical_json", counting)
        result = run_sharded(config, n_shards=1, cell_servers=2)
        assert len(calls) == len(result.events) > 0

    def test_digest_hashes_the_lines(self, config):
        sim = FleetSimulation(config, server_offset=3)
        result = sim.run()
        expected = hashlib.sha256(
            "".join(line + "\n" for line in sim.log.lines()).encode("utf-8")
        ).hexdigest()
        assert sim.log.digest() == expected == result.event_log_hash
        assert [line for _, line in sim.log.timed_lines()] == sim.log.lines()

    def test_merged_digest_hashes_the_merged_lines(self, config):
        """The merge hashes its lines in chunks; a log longer than one
        chunk hashes the same bytes as its JSONL text."""
        busy = dataclasses.replace(
            config,
            traffic=dataclasses.replace(config.traffic, jobs_per_hour=400),
        )
        result = run_sharded(busy, n_shards=1, cell_servers=2)
        assert len(result.events) > metrics.DIGEST_CHUNK_LINES
        expected = hashlib.sha256(
            "".join(canonical_json(e) + "\n" for e in result.events).encode("utf-8")
        ).hexdigest()
        assert result.event_log_hash == expected

    def test_offset_shifts_every_returned_server_id(self, config):
        local = FleetSimulation(config).run()
        shifted = FleetSimulation(config, server_offset=3).run()
        assert [r.server_id for r in shifted.job_records] == [
            None if r.server_id is None else r.server_id + 3
            for r in local.job_records
        ]
        assert [e.get("server_id") for e in shifted.events] == [
            e["server_id"] + 3 if "server_id" in e else None
            for e in local.events
        ]


@pytest.mark.chaos
class TestOneRenderFaulted:
    def test_faulted_cells_render_as_before(self, config):
        plan = FaultPlan(
            specs=(
                ServerCrashFault(
                    start_seconds=600.0, server_id=5, repair_seconds=1200.0
                ),
                JobKillFault(start_seconds=1800.0, job_id=3),
                CpmStuckFault(
                    start_seconds=300.0,
                    socket_id=0,
                    server_id=6,
                    code=0,
                    duration_seconds=900.0,
                ),
            )
        )
        lines, fallback = _assert_cells_render_as_before(config, 4, plan)
        for kind in ("server_crash", "job_kill", "fallback_enter"):
            assert any(f'"kind":"{kind}"' in line for line in lines), kind
        # Server 6 sits in the second cell (offset 4): its dwell is
        # reported under its global id.
        assert [entry[:2] for entry in fallback] == [(6, 0)]


def _merged_both_ways(config, cell_servers, plan=None):
    """One sharded day merged from the cells' own entries, plus the
    parse of the merged canonical lines those entries must equal."""
    cells = build_cells(
        [(config, cell_servers, "")], plan, config.fleet_power_budget_w
    )
    jobs = generate_trace(config.traffic, config.seed)
    results, lines = {}, {}
    for cell in cells:
        trace = tuple(
            job for job in jobs if job.job_id % len(cells) == cell.index
        )
        results[cell.index], lines[cell.index] = _simulate_cell(
            cell, AGS_POLICY, trace, 1, keep_events=True
        )
    carried = merge_cell_results(config, AGS_POLICY, results, lines)
    bare = merge_cell_results(
        config, AGS_POLICY, results, lines, keep_events=False
    )
    assert dataclasses.replace(carried, events=()) == bare
    parsed = [json.loads(line) for *_, line in _merged_stream(lines)]
    return carried, parsed


class TestMergeKeepsCellEntries:
    """A cell's entries ride beside its lines, so the merge parses
    nothing; the kept entries must equal the parsed lines, and render
    (``--trace-out``) to the same bytes the digest hashed."""

    def _check(self, carried, parsed):
        assert carried.events and list(carried.events) == parsed
        rendered = "".join(canonical_json(e) + "\n" for e in carried.events)
        assert (
            hashlib.sha256(rendered.encode("utf-8")).hexdigest()
            == carried.event_log_hash
        )

    def test_churn_cells(self):
        config = FleetConfig(
            n_servers=8,
            traffic=TrafficConfig(
                duration_seconds=DURATION,
                jobs_per_hour=100.0,
                lc_fraction=0.0,
                batch_profiles=("raytrace",),
                batch_threads=(2,),
            ),
            seed=7,
        )
        self._check(*_merged_both_ways(config, 8))
        self._check(*_merged_both_ways(config, 4))

    def test_budgeted_cells(self):
        config = FleetConfig(
            n_servers=4,
            traffic=TrafficConfig(
                duration_seconds=3600.0, jobs_per_hour=120.0, lc_fraction=0.15
            ),
            seed=7,
            fleet_power_budget_w=550.0,
        )
        carried, parsed = _merged_both_ways(config, 2)
        self._check(carried, parsed)
        assert any(e.get("cap_throttled") for e in carried.events)

    def test_by_cell_results_stay_stripped(self, config):
        outcome = run_cell_specs(
            build_cells([(config, 2, "")]), AGS_POLICY, n_shards=1
        )
        assert outcome.merged.events
        assert all(not r.events for r in outcome.by_cell.values())

    def test_pool_cells_match_in_process_cells(self, config):
        one = run_sharded(config, n_shards=1, cell_servers=2)
        two = run_sharded(config, n_shards=2, cell_servers=2)
        assert one.events == two.events and one == two

    @pytest.mark.chaos
    def test_faulted_multi_cell_day(self, config):
        plan = FaultPlan(
            specs=(
                ServerCrashFault(
                    start_seconds=600.0, server_id=5, repair_seconds=1200.0
                ),
                JobKillFault(start_seconds=1800.0, job_id=3),
                CpmStuckFault(
                    start_seconds=300.0,
                    socket_id=0,
                    server_id=6,
                    code=0,
                    duration_seconds=900.0,
                ),
            )
        )
        carried, parsed = _merged_both_ways(config, 4, plan)
        self._check(carried, parsed)
        kinds = {entry["kind"] for entry in carried.events}
        assert {"server_crash", "job_kill", "fallback_enter"} <= kinds


class TestEngineLifetime:
    """A finished cell's engine, with its log and records, is freed by
    reference counting as ``_simulate_cell`` returns: it sits in no
    reference cycle, so peak memory never waits on a cyclic GC pass."""

    @pytest.mark.parametrize(
        "faulted", [False, pytest.param(True, marks=pytest.mark.chaos)]
    )
    def test_engine_is_freed_without_the_cyclic_gc(
        self, config, monkeypatch, faulted
    ):
        engines = []

        class Watched(FleetSimulation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(weakref.ref(self))

        monkeypatch.setattr(shard, "FleetSimulation", Watched)
        plan = None
        budget_w = None
        if faulted:
            budget_w = 500.0
            plan = FaultPlan(
                specs=(
                    ServerCrashFault(
                        start_seconds=600.0, server_id=0, repair_seconds=600.0
                    ),
                    JobKillFault(start_seconds=1800.0, job_id=4),
                    CpmStuckFault(
                        start_seconds=300.0,
                        socket_id=0,
                        server_id=1,
                        duration_seconds=900.0,
                    ),
                )
            )
        cell = build_cells([(config, 2, "")], plan, budget_w)[0]
        trace = tuple(
            job for job in generate_trace(config.traffic, config.seed)
            if job.job_id % 4 == 0
        )
        gc.collect()
        gc.disable()
        try:
            result, lines = _simulate_cell(cell, AGS_POLICY, trace, 1)
            assert len(engines) == 1
            assert engines[0]() is None
        finally:
            gc.enable()
        assert result.n_completions > 0 and lines
        if faulted:
            assert result.n_server_crashes == 1
            assert result.powercap_ticks > 0


@pytest.mark.chaos
class TestShardedChaos:
    def test_conservation_under_sharded_crash_and_repair(self, config):
        plan = FaultPlan(
            specs=(
                ServerCrashFault(
                    start_seconds=600.0, server_id=1, repair_seconds=1200.0
                ),
                ServerCrashFault(start_seconds=900.0, server_id=6),
                JobKillFault(start_seconds=1800.0, job_id=3),
            )
        )
        results = [
            run_sharded(
                config, n_shards=shards, cell_servers=2, fault_plan=plan
            )
            for shards in (1, 2)
        ]
        assert results[0].event_log_hash == results[1].event_log_hash
        for result in results:
            assert result.conserved
            assert result.n_server_crashes == 2
            assert result.n_requeues >= 1

    def test_out_of_range_server_is_rejected_before_running(self, config):
        plan = FaultPlan(
            specs=(ServerCrashFault(start_seconds=1.0, server_id=99),)
        )
        with pytest.raises(SchedulingError):
            run_sharded(config, n_shards=1, cell_servers=2, fault_plan=plan)


def _cells_for(config):
    return build_cells([(config, 2, "")])


@pytest.mark.chaos
@pytest.mark.usefixtures("require_pools")
class TestShardCrashRecovery:
    """Worker death never fails the run or moves its digest.

    The kill hook (:data:`~repro.fleet.shard.ENV_SHARD_FAULT`) makes the
    pool worker about to simulate a chosen cell die with ``os._exit`` on
    a chosen attempt — a deterministic stand-in for an OOM kill.  The
    recovery contract: failed cells re-execute (fresh pool, then
    in-process), the retry manifest names them, and the merged SHA-256
    is bit-identical to an unfaulted run.
    """

    def test_killed_worker_recovers_bit_identical(
        self, config, monkeypatch
    ):
        baseline = run_cell_specs(_cells_for(config), AGS_POLICY, n_shards=2)
        assert baseline.retries == ()
        monkeypatch.setenv(ENV_SHARD_FAULT, "kill:cell=1,attempt=0")
        recovered = run_cell_specs(
            _cells_for(config), AGS_POLICY, n_shards=2
        )
        assert (
            recovered.merged.event_log_hash
            == baseline.merged.event_log_hash
        )
        assert recovered.merged.job_records == baseline.merged.job_records
        # The kill takes down the whole batch, so every cell sharing the
        # dead worker re-executes; cell 1 is among them, on attempt 1,
        # recovered on a fresh pool.
        assert recovered.retries
        by_cell = {r.cell_index: r for r in recovered.retries}
        assert by_cell[1].attempt == 1
        assert by_cell[1].reason == "broken_pool"
        assert by_cell[1].recovered_via == "fresh_pool"

    def test_repeated_kills_fall_back_in_process(self, config, monkeypatch):
        baseline = run_cell_specs(_cells_for(config), AGS_POLICY, n_shards=2)
        # Kill cell 1's worker on every fresh-pool attempt (0, 1, 2);
        # the hook never fires in the parent, so the in-process last
        # resort always completes.
        for attempt in range(MAX_SHARD_RETRIES + 1):
            monkeypatch.setenv(
                ENV_SHARD_FAULT, f"kill:cell=1,attempt={attempt}"
            )
            recovered = run_cell_specs(
                _cells_for(config), AGS_POLICY, n_shards=2
            )
            assert (
                recovered.merged.event_log_hash
                == baseline.merged.event_log_hash
            )

    def test_scenario_result_carries_the_manifest(self, monkeypatch):
        from repro.scenarios import (
            Scenario,
            ServerGroupSpec,
            TopologySpec,
            run_scenario,
        )

        scenario = Scenario(
            name="shard_recovery_probe",
            seed=5,
            traffic=TrafficConfig(
                duration_seconds=3600.0, jobs_per_hour=60.0,
                lc_fraction=0.2,
            ),
            topology=TopologySpec(
                groups=(
                    ServerGroupSpec(
                        name="rack", servers=4, cell_servers=2
                    ),
                )
            ),
        )
        clean = run_scenario(scenario, n_shards=2)
        assert clean.retries == ()
        monkeypatch.setenv(ENV_SHARD_FAULT, "kill:cell=0,attempt=0")
        faulted = run_scenario(scenario, n_shards=2)
        assert faulted.retries
        assert 0 in {r.cell_index for r in faulted.retries}
        assert (
            faulted.fleet.event_log_hash == clean.fleet.event_log_hash
        )
