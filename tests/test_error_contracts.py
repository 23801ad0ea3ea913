"""Error-path contracts: typed errors end-to-end, CLI exit codes.

Satellite of the fault-injection PR: every documented failure mode must
surface as its :class:`~repro.errors.ReproError` subclass through the
public API, and the CLI must map each family to a one-line stderr
message with a distinct nonzero exit code (full traceback behind
``--debug``).
"""

import dataclasses

import pytest

from repro.api import measure
from repro.cli import ERROR_EXIT_CODES, exit_code_for, main
from repro.config import PdnConfig, ServerConfig
from repro.core.placement import Placement
from repro.errors import (
    CalibrationError,
    ConfigError,
    ConvergenceError,
    FaultError,
    ReproError,
    SchedulingError,
    SensorError,
    SweepError,
    WorkloadError,
)
from repro.faults import (
    CalibrationFault,
    FaultPlan,
    LoadlineExcursionFault,
    injected,
)
from repro.guardband import GuardbandMode
from repro.guardband.calibration import calibrate_socket
from repro.sim.run import build_server
from repro.workloads import get_profile


class TestErrorPaths:
    def test_pathological_loadline_raises_convergence_error(self):
        pdn = dataclasses.replace(PdnConfig(), r_loadline=0.050)
        config = ServerConfig(pdn=pdn)
        server = build_server(config)
        server.place(0, get_profile("lu_cb"), 8)
        socket = server.sockets[0]
        socket.path.set_voltage(config.static_vdd)
        with pytest.raises(ConvergenceError):
            socket.solve(frequencies=[4.2e9] * 8)

    def test_injected_loadline_excursion_raises_convergence_error(self):
        # The same starvation, reached through the fault layer: a huge
        # loadline excursion on an otherwise healthy config.
        plan = FaultPlan(
            specs=(LoadlineExcursionFault(socket_id=0, factor=200.0),)
        )
        with pytest.raises(ConvergenceError):
            measure("lu_cb", n_threads=8, fault_plan=plan)

    def test_injected_calibration_failure_raises_typed_error(self):
        server = build_server()
        server.place(0, get_profile("raytrace"), 2)
        plan = FaultPlan(specs=(CalibrationFault(socket_id=0),))
        with injected(plan):
            with pytest.raises(CalibrationError):
                calibrate_socket(
                    server.sockets[0].chip,
                    server.config.guardband,
                    socket_id=0,
                )

    def test_impossible_placement_raises_scheduling_error(self):
        with pytest.raises(SchedulingError):
            measure("raytrace", n_threads=999)

    def test_conflicting_variants_raise_scheduling_error(self):
        placement = Placement(groups=((), ()))
        with pytest.raises(SchedulingError):
            measure(
                "raytrace",
                placement=(1, 1),
                schedule=placement,
                mode=GuardbandMode.UNDERVOLT,
            )


class TestCliErrorMapping:
    def test_every_family_has_a_distinct_code(self):
        codes = [code for _, code in ERROR_EXIT_CODES]
        assert len(codes) == len(set(codes))
        assert all(code >= 3 for code in codes)

    def test_subclasses_resolve_before_the_base(self):
        assert exit_code_for(WorkloadError("x")) == 3
        assert exit_code_for(ConfigError("x")) == 4
        assert exit_code_for(SchedulingError("x")) == 5
        assert exit_code_for(ConvergenceError("x")) == 6
        assert exit_code_for(CalibrationError("x")) == 7
        assert exit_code_for(SensorError("x")) == 8
        assert exit_code_for(SweepError("x")) == 9
        assert exit_code_for(FaultError("x")) == 10
        assert exit_code_for(ReproError("x")) == 11

    def test_cli_prints_one_line_and_exits_nonzero(self, capsys):
        code = main(["measure", "nosuchthing"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == (
            "error: WorkloadError: unknown benchmark 'nosuchthing'\n"
        )

    def test_cli_scheduling_error_exit_code(self, capsys):
        code = main(["measure", "raytrace", "-n", "999"])
        assert code == 5
        assert capsys.readouterr().err.startswith("error: SchedulingError:")

    def test_cli_fault_error_from_empty_chaos_plan(self, capsys):
        code = main(
            ["chaos", "--no-crash", "--no-corrupt", "--duration", "60"]
        )
        assert code == 10
        assert capsys.readouterr().err.startswith("error: FaultError:")

    def test_debug_reraises_with_traceback(self):
        with pytest.raises(WorkloadError):
            main(["measure", "nosuchthing", "--debug"])

    def test_chaos_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["chaos"])
        assert args.action == "run"
        assert args.servers == 2
        assert args.duration == 14_400.0
        assert args.crash_server == 1
        assert args.corrupt_socket == 0
        assert args.fault_seed == 0
        assert args.kill_job is None
        assert args.smoke is False
        assert args.debug is False

    def test_chaos_campaign_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["chaos", "campaign", "--smoke"])
        assert args.action == "campaign"
        assert args.smoke is True
        assert args.catalog_dir is None


class TestExitCodeRegistry:
    """Every error family has its own exit code — and always will.

    The registry walk keeps the contract honest for subclasses added
    later: a new ``ReproError`` family that nobody maps gets the base
    class's catch-all 11, and two families sharing a code would make
    CI exit statuses ambiguous.  Both drift modes fail here first.
    """

    @staticmethod
    def _all_repro_error_classes():
        found = set()
        frontier = [ReproError]
        while frontier:
            cls = frontier.pop()
            found.add(cls)
            frontier.extend(cls.__subclasses__())
        return found

    def test_every_subclass_resolves_to_a_distinct_family_code(self):
        # Each family maps to its own code; an unregistered subclass
        # falls to the ReproError catch-all 11 rather than colliding with
        # a family.
        registered = {cls for cls, _ in ERROR_EXIT_CODES}
        for cls in self._all_repro_error_classes():
            code = exit_code_for(cls("x"))
            assert code >= 3
            if cls not in registered:
                assert code == 11, (
                    f"{cls.__name__} is unregistered but resolves to "
                    f"family code {code}; register it explicitly"
                )

    def test_no_table_entry_is_shadowed_by_an_earlier_ancestor(self):
        # isinstance resolution walks the table in order: a subclass
        # listed after its ancestor would be unreachable.
        for i, (cls, _) in enumerate(ERROR_EXIT_CODES):
            for earlier, _ in ERROR_EXIT_CODES[:i]:
                assert not issubclass(cls, earlier), (
                    f"{cls.__name__} is unreachable behind "
                    f"{earlier.__name__}"
                )
        assert ERROR_EXIT_CODES[-1][0] is ReproError

    def test_every_family_resolves_to_its_own_code(self):
        # Instantiate each family and resolve it through the CLI
        # mapping: subclasses must win over the ReproError catch-all,
        # and no two families may share a code.
        seen = {}
        for cls, expected in ERROR_EXIT_CODES:
            code = exit_code_for(cls("x"))
            assert code == expected, cls
            assert code not in seen, (
                f"{cls.__name__} and {seen[code].__name__} share "
                f"exit code {code}"
            )
            seen[code] = cls

    def test_watchdog_error_takes_13(self):
        from repro.errors import WatchdogError

        assert exit_code_for(WatchdogError("x")) == 13

    def test_base_repro_error_is_the_catch_all(self):
        codes = dict((cls, code) for cls, code in ERROR_EXIT_CODES)
        assert codes[ReproError] == 11

        class Unmapped(ReproError):
            pass

        try:
            assert exit_code_for(Unmapped("x")) == 11
        finally:
            # Drop the throwaway subclass so the registry walk above
            # never sees it in later test orderings.
            import gc

            del Unmapped
            gc.collect()
