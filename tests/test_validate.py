"""The differential validation subsystem: generator, oracle, shrinker."""

import dataclasses
import json

import pytest

from repro import api
from repro.ir import (
    CompareCond,
    IRBuilder,
    Immediate,
    Opcode,
    Program,
    RegClass,
    Register,
    format_program,
    parse_program,
    verify_program,
)
from repro.interp import profile_program, run_program
from repro.validate import (
    ROUTES,
    Cell,
    Mismatch,
    check_generated,
    check_routes,
    default_grid,
    generate,
    minimize_failure,
    parse_grid_spec,
    run_validation,
    write_reports,
)
from repro.validate import oracle
from repro.validate.shrink import total_ops


class TestGenerator:
    def test_deterministic_per_seed(self):
        first = generate(7)
        second = generate(7)
        assert format_program(first.program) == format_program(second.program)
        assert first.inputs == second.inputs
        assert first.origin == second.origin

    def test_distinct_seeds_differ(self):
        texts = {format_program(generate(seed).program)
                 for seed in range(8)}
        assert len(texts) > 1

    def test_programs_verify_and_terminate(self):
        for seed in range(12):
            generated = generate(seed)
            verify_program(generated.program)
            for inputs in generated.inputs:
                run_program(generated.program, inputs,
                            max_steps=2_000_000)

    def test_both_origins_appear(self):
        origins = {generate(seed).origin for seed in range(8)}
        assert origins == {"ir", "minic"}

    def test_ir_text_round_trips(self):
        generated = generate(4)
        text = format_program(generated.program)
        assert format_program(parse_program(text)) == text


class TestOracle:
    def test_clean_on_default_grid(self):
        grid = default_grid(machines=("4U",))
        for seed in range(6):
            report = check_generated(generate(seed), grid=grid)
            assert report.ok, [m.to_json() for m in report.mismatches]
            assert report.cells_checked > 0

    def test_engine_identity_check(self):
        grid = default_grid(
            schemes=("bb", "treegion"), machines=("4U",),
        )
        report = check_generated(generate(0), grid=grid, engine_jobs=2)
        assert report.ok, [m.to_json() for m in report.mismatches]

    def test_every_route_and_certification_runs(self, monkeypatch):
        ran = []

        def spy(name, function):
            def wrapped(*args):
                ran.append(name)
                return function(*args)
            return wrapped

        monkeypatch.setattr(oracle, "ROUTES", tuple(
            dataclasses.replace(route, run=spy(route.name, route.run))
            for route in oracle.ROUTES
        ))
        monkeypatch.setattr(oracle, "CERTIFICATIONS", tuple(
            (check, spy(check, certify))
            for check, certify in oracle.CERTIFICATIONS
        ))
        grid = default_grid(schemes=("bb", "treegion"), machines=("4U",))
        report = check_generated(generate(0), grid=grid, engine_jobs=2)
        assert report.ok, [m.to_json() for m in report.mismatches]
        assert ran == [route.name for route in ROUTES] + ["analysis", "exact"]

    def test_report_serializes(self):
        report = check_generated(
            generate(1), grid=default_grid(schemes=("bb",),
                                           machines=("4U",)),
        )
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["seed"] == 1
        assert payload["ok"] is True


def _shift_first(run):
    """A route run whose first cell comes back one cycle slower."""
    def perturbed(context, metrics):
        results = run(context, metrics)
        first = dataclasses.replace(results[0], time=results[0].time + 1)
        return [first] + results[1:]
    return perturbed


class TestRoutes:
    """Every row of the route table is compared, crash-safe and named."""

    GRID = default_grid(schemes=("bb",), machines=("4U",))

    def _check(self, jobs=1, only=None):
        generated = generate(0)
        return check_routes(generated.program, generated.name, self.GRID,
                            jobs=jobs, only=only)

    @pytest.mark.parametrize("route", ROUTES, ids=lambda route: route.name)
    def test_perturbed_row_is_named(self, route, monkeypatch):
        monkeypatch.setattr(oracle, "ROUTES", tuple(
            dataclasses.replace(row, run=_shift_first(row.run))
            if row.name == route.name else row
            for row in oracle.ROUTES
        ))
        found = self._check(jobs=2 if route.pool else 1)
        assert {m.check for m in found} == {route.name}
        assert found[0].cell == self.GRID[0]

    @pytest.mark.parametrize("route", ROUTES, ids=lambda route: route.name)
    def test_row_alone_is_clean(self, route):
        # What the shrinker runs: one row, after the rows it reuses.
        assert self._check(jobs=2 if route.pool else 1,
                           only=route.name) == []

    def test_pooled_row_mismatch_is_reported_unminimized(self):
        generated = generate(0)
        mismatch = Mismatch(check="parallel", cell=self.GRID[0],
                            expected="direct time 1.0",
                            actual="parallel time 2.0", detail="injected")
        failure = minimize_failure(generated, mismatch, grid=self.GRID)
        assert failure.trials == 0
        assert failure.minimized_ops == failure.original_ops
        assert failure.detail == "injected"

    def test_crashing_row_is_named(self, monkeypatch):
        def crash(context, metrics):
            raise RuntimeError("route fell over")

        monkeypatch.setattr(oracle, "ROUTES", tuple(
            dataclasses.replace(row, run=crash)
            if row.name == "memo-cold" else row
            for row in oracle.ROUTES
        ))
        found = self._check(only="memo-cold")
        assert [m.check for m in found] == ["memo-cold"]
        assert found[0].actual == "RuntimeError"
        assert "route fell over" in found[0].detail

    def test_crashing_certification_is_named(self, monkeypatch):
        import repro.exact.gap as gap_module

        def crash(*args, **kwargs):
            raise RuntimeError("solver fell over")

        monkeypatch.setattr(gap_module, "gap_program", crash)
        found = self._check()
        assert [m.check for m in found] == ["exact"]
        assert found[0].actual == "RuntimeError"

    def test_warm_store_must_serve_every_cell(self, monkeypatch):
        import itertools
        import repro.serve.store as store_module

        # Keys that never repeat: the warm pass misses every cell yet
        # still computes the right results.
        fresh = itertools.count()
        real_key = store_module.cell_key
        monkeypatch.setattr(
            store_module, "cell_key",
            lambda text, cell: f"{real_key(text, cell)}{next(fresh)}",
        )
        found = self._check()
        assert [m.check for m in found] == ["store-warm"]
        assert found[0].actual == "0 hit(s)"

    def test_warm_memo_must_not_miss(self, monkeypatch):
        from repro.schedule.memo import RegionMemo

        # Tier 2 forgets every entry: results and replayed counters stay
        # right, but the warm pass has to reschedule every region.
        monkeypatch.setattr(RegionMemo, "_remember",
                            lambda self, key, entry: None)
        found = self._check()
        assert [m.check for m in found] == ["memo-warm"]
        assert "miss" in found[0].actual


class TestGridSpec:
    def test_defaults(self):
        grid = parse_grid_spec(None)
        assert Cell("treegion", "4U", "global_weight") in grid
        assert Cell("hyperblock", "8U", "global_weight") in grid

    def test_custom_axes(self):
        grid = parse_grid_spec(
            "schemes=bb,treegion-td:2.0;machines=4U;"
            "heuristics=dep_height,global_weight"
        )
        assert len(grid) == 4
        assert Cell("treegion-td:2.0", "4U", "dep_height") in grid

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            parse_grid_spec("flavours=bb")
        with pytest.raises(ValueError):
            parse_grid_spec("schemes")

    def test_bad_scheme_rejected_eagerly(self):
        with pytest.raises(ValueError):
            parse_grid_spec("schemes=megablock")

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError, match="machine"):
            parse_grid_spec("machines=9Z")

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError, match="heuristic"):
            parse_grid_spec("heuristics=nope")

    @pytest.mark.parametrize("axis", ["schemes", "machines", "heuristics"])
    def test_empty_axis_rejected(self, axis):
        with pytest.raises(ValueError, match="empty"):
            parse_grid_spec(f"{axis}=")


class TestInjectedFault:
    """A deliberate simulator fault must be found and minimized."""

    def _fault(self, monkeypatch):
        import repro.vliw.simulator as simulator_module
        from repro.interp.ops import evaluate as real_evaluate

        def faulty(opcode, values, dismissible=False):
            result = real_evaluate(opcode, values, dismissible=dismissible)
            if opcode is Opcode.MUL:
                return result + 1
            return result

        monkeypatch.setattr(simulator_module, "evaluate", faulty)

    def test_fault_found_and_shrunk_to_quarter(self, monkeypatch):
        self._fault(monkeypatch)
        grid = default_grid(schemes=("bb",), machines=("4U",))
        failing = None
        for seed in range(40):
            generated = generate(seed)
            report = check_generated(generated, grid=grid)
            if not report.ok:
                failing = (generated, report)
                break
        assert failing is not None, "corrupted MUL never surfaced"
        generated, report = failing

        failure = minimize_failure(generated, report.mismatches[0])
        assert failure.minimized_ops <= 0.25 * failure.original_ops
        assert failure.minimized_ops >= 1
        assert failure.trials > 0

        payload = json.loads(json.dumps(failure.to_json()))
        for key in ("seed", "check", "cell", "inputs", "detail",
                    "original_ops", "minimized_ops", "program_text"):
            assert key in payload
        assert payload["check"] in ("result", "memory", "cycles")
        # The minimized reproducer is well-formed, parseable IR and it
        # still contains the faulting opcode.
        minimized = parse_program(payload["program_text"])
        verify_program(minimized)
        assert " mul " in payload["program_text"]


class TestRunner:
    def test_serial_campaign_clean(self):
        summary = run_validation(
            list(range(4)),
            grid=default_grid(schemes=("bb", "treegion"),
                              machines=("4U",)),
            engine_every=0,
        )
        assert summary.ok
        assert summary.seeds == 4
        assert not summary.failures

    def test_parallel_matches_serial(self):
        grid = default_grid(schemes=("treegion",), machines=("4U",))
        serial = run_validation(list(range(4)), grid=grid, jobs=1,
                                engine_every=0)
        parallel = run_validation(list(range(4)), grid=grid, jobs=2,
                                  engine_every=0)
        assert [o.seed for o in parallel.outcomes] == \
               [o.seed for o in serial.outcomes]
        assert [o.cells_checked for o in parallel.outcomes] == \
               [o.cells_checked for o in serial.outcomes]
        assert parallel.ok == serial.ok

    def test_failure_reports_written(self, tmp_path, monkeypatch):
        import repro.vliw.simulator as simulator_module
        from repro.interp.ops import evaluate as real_evaluate

        def faulty(opcode, values, dismissible=False):
            result = real_evaluate(opcode, values, dismissible=dismissible)
            return result + 1 if opcode is Opcode.MUL else result

        monkeypatch.setattr(simulator_module, "evaluate", faulty)
        summary = run_validation(
            [1],  # known to exercise MUL under bb/4U
            grid=default_grid(schemes=("bb",), machines=("4U",)),
            engine_every=0,
            max_trials=300,
        )
        assert not summary.ok
        paths = write_reports(summary, str(tmp_path))
        assert len(paths) == 1
        payload = json.loads((tmp_path / "failure-seed1.json").read_text())
        assert payload["seed"] == 1


    def test_route_fault_is_shrunk_and_reported(self, tmp_path,
                                                monkeypatch):
        # Regression: a route mismatch used to crash the shrinker, so
        # the campaign died without a report.
        real = api.cached_evaluate

        def faulty(*args, **kwargs):
            return [dataclasses.replace(row, time=row.time + 1)
                    for row in real(*args, **kwargs)]

        monkeypatch.setattr(api, "cached_evaluate", faulty)
        summary = run_validation(
            [0], grid=default_grid(schemes=("bb",), machines=("4U",)),
            engine_every=1, max_trials=50,
        )
        assert not summary.ok
        failure = summary.outcomes[0].failure
        assert failure.check in ("store-cold", "store-warm")
        assert failure.minimized_ops < failure.original_ops
        paths = write_reports(summary, str(tmp_path))
        payload = json.loads((tmp_path / "failure-seed0.json").read_text())
        assert paths and payload["check"] == failure.check


class TestGuardPreservation:
    """Regression: prep stripped guards from pre-predicated input ops.

    Found by this subsystem — the scheduler replaced every cloned op's
    guard with the block guard (or None for speculatable ops), turning
    conditional updates unconditional.  Pre-guarded ops must keep their
    guard under every scheme, in root and non-root blocks alike.
    """

    def _straightline_guarded(self) -> Program:
        program = Program(entry="main")
        a = Register(RegClass.GPR, 0)
        b_reg = Register(RegClass.GPR, 1)
        fn = program.new_function("main", [a, b_reg])
        fn.regs.reserve(a)
        fn.regs.reserve(b_reg)
        builder = IRBuilder(fn)
        entry = builder.block("entry")
        builder.at(entry)
        result = builder.mov(a)
        pred = builder.cmpp(CompareCond.GT, a, b_reg)
        builder.emit(Opcode.ADD, dests=[result],
                     srcs=[result, Immediate(5)], guard=pred)
        builder.ret(result)
        return program

    def _branchy_guarded(self) -> Program:
        program = Program(entry="main")
        a = Register(RegClass.GPR, 0)
        fn = program.new_function("main", [a])
        fn.regs.reserve(a)
        builder = IRBuilder(fn)
        entry = builder.block("entry")
        then_bb = builder.block("then")
        join = builder.block("join")
        builder.at(entry)
        result = builder.mov(a)
        outer = builder.cmpp(CompareCond.GT, a, 0)
        inner = builder.cmpp(CompareCond.LT, a, 10)
        builder.br_true(outer, then_bb, join)
        builder.at(then_bb)
        # Guarded op inside a non-root block: its own guard must be
        # AND-combined with the block guard, not replaced by it.
        builder.emit(Opcode.ADD, dests=[result],
                     srcs=[result, Immediate(100)], guard=inner)
        builder.fallthrough(join)
        builder.at(join)
        builder.ret(result)
        return program

    @pytest.mark.parametrize("scheme", [
        "bb", "slr", "treegion", "superblock", "treegion-td:2.0",
        "hyperblock",
    ])
    def test_guarded_ops_survive_scheduling(self, scheme):
        for build, input_sets in (
            (self._straightline_guarded, [[1, 5], [5, 1]]),
            (self._branchy_guarded, [[-3], [4], [20]]),
        ):
            for inputs in input_sets:
                program = build()
                expected, expected_memory = run_program(program, inputs)
                profile_program(program, inputs=[list(inputs)])
                result, simulator = api.simulate(
                    program, scheme, "4U", inputs,
                )
                assert result == expected, (scheme, inputs)
                assert simulator.memory == expected_memory


class TestShrinkerMechanics:
    def test_total_ops_counts_whole_program(self):
        generated = generate(2)
        assert total_ops(generated.program) == sum(
            fn.cfg.total_ops for fn in generated.program.functions()
        )
