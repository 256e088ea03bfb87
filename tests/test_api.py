"""The typed facade (repro.api) and the SchemeSpec parser."""

import pytest

import repro
from repro import api
from repro.api import (
    CellResult,
    GridCell,
    Scheme,
    SchemeSpec,
    SchemeSpecError,
)
from repro.ir import IRBuilder, Program, RegClass, Register, format_program
from repro.interp import (
    Interpreter,
    InterpreterError,
    StepLimitExceeded,
    profile_program,
)

MINIC = """
func main(a, b) {
    var total = 0;
    for (var i = 0; i < a; i = i + 1) { total = total + b; }
    return total;
}
"""

IR_TEXT_HEADER = "program entry="


class TestSchemeSpec:
    def test_plain_kinds_round_trip(self):
        for kind in ("bb", "slr", "treegion", "superblock", "hyperblock"):
            spec = SchemeSpec.parse(kind)
            assert spec.kind == kind and spec.limit is None
            assert str(spec) == kind
            assert SchemeSpec.parse(str(spec)) == spec

    def test_treegion_td_with_limit_round_trips(self):
        spec = SchemeSpec.parse("treegion-td:2.5")
        assert spec == SchemeSpec("treegion-td", 2.5)
        assert str(spec) == "treegion-td:2.5"
        assert SchemeSpec.parse(str(spec)) == spec

    def test_treegion_td_default_limit(self):
        spec = SchemeSpec.parse("treegion-td")
        assert spec.kind == "treegion-td"
        assert spec.build().name.startswith("treegion-td")

    def test_display_form_parses(self):
        # The engine's result tables historically printed
        # "treegion-td(2.0)"; the parser accepts that form too.
        assert (SchemeSpec.parse("treegion-td(2.0)")
                == SchemeSpec.parse("treegion-td:2.0"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemeSpecError):
            SchemeSpec.parse("megablock")

    def test_limit_on_plain_kind_rejected(self):
        with pytest.raises(SchemeSpecError):
            SchemeSpec.parse("bb:2.0")

    def test_limit_below_one_rejected(self):
        with pytest.raises(SchemeSpecError):
            SchemeSpec.parse("treegion-td:0.5")

    def test_garbage_limit_rejected(self):
        with pytest.raises(SchemeSpecError):
            SchemeSpec.parse("treegion-td:lots")

    def test_spec_error_is_value_error(self):
        # Callers that predate the typed parser catch ValueError.
        assert issubclass(SchemeSpecError, ValueError)

    def test_build_dispatches_every_kind(self):
        for spec in ("bb", "slr", "treegion", "superblock", "hyperblock",
                     "treegion-td:2.0"):
            scheme = SchemeSpec.parse(spec).build()
            assert isinstance(scheme, Scheme)


class TestFacade:
    def test_load_program_from_minic_text(self):
        program = api.load_program(text=MINIC)
        assert program.has_function("main")

    def test_load_program_from_ir_text(self):
        original = api.load_program(text=MINIC)
        reloaded = api.load_program(text=format_program(original))
        assert format_program(reloaded) == format_program(original)

    def test_load_program_from_path(self, tmp_path):
        path = tmp_path / "prog.mc"
        path.write_text(MINIC)
        program = api.load_program(str(path))
        assert program.has_function("main")

    def test_load_program_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            api.load_program()
        with pytest.raises(ValueError):
            api.load_program("a path", text="some text")

    def test_make_scheme_accepts_all_spellings(self):
        from_str = api.make_scheme("treegion")
        from_spec = api.make_scheme(SchemeSpec.parse("treegion"))
        assert from_str.name == from_spec.name
        assert api.make_scheme(from_str) is from_str

    def test_machine_resolution(self):
        assert api.machine("4U").issue_width == 4
        assert api.machine("12U").issue_width == 12
        model = api.machine("8U")
        assert api.machine(model) is model
        with pytest.raises(ValueError):
            api.machine("banana")

    def test_simulate_with_spec_strings(self):
        program = api.load_program(text=MINIC)
        profile_program(program, inputs=[[4, 5]])
        result, simulator = api.simulate(program, "treegion", "4U", [4, 5])
        assert result == 20
        assert simulator.cycles > 0

    def test_evaluate_grid_matches_evaluate_cell(self):
        program = api.load_program(text=MINIC)
        profile_program(program, inputs=[[4, 5]])
        cells = [
            GridCell("tiny", scheme, "4U", "global_weight")
            for scheme in ("bb", "treegion", "treegion-td:2.0")
        ]
        rows = api.evaluate_grid(cells, programs={"tiny": program})
        reference = [api.evaluate_cell(c, program=program) for c in cells]
        assert rows == reference
        for row in rows:
            assert isinstance(row, CellResult)

    def test_evaluate_grid_ships_text_to_workers(self):
        program = api.load_program(text=MINIC)
        profile_program(program, inputs=[[4, 5]])
        cells = [
            GridCell("tiny", scheme, "4U", "global_weight")
            for scheme in ("bb", "treegion")
        ]
        texts = {"tiny": format_program(program)}
        serial = api.evaluate_grid(cells, program_texts=texts)
        parallel = api.evaluate_grid(cells, program_texts=texts, jobs=2)
        assert serial == parallel
        assert serial == api.evaluate_grid(cells, programs={"tiny": program})

    def test_cached_evaluate_without_store_honours_region_memo(self):
        from repro.schedule.memo import global_memo

        cell = GridCell("compress", "treegion", "4U", "global_weight")
        before = global_memo().stats()
        (row,) = api.cached_evaluate([cell], region_memo=False)
        assert global_memo().stats() == before
        assert row == api.evaluate_cell(cell)

    def test_validate_small_campaign(self):
        summary = api.validate(
            2, grid="schemes=bb;machines=4U", engine_every=0,
        )
        assert summary.ok
        assert summary.seeds == 2
        assert summary.cells_checked > 0

    def test_top_level_reexports(self):
        assert repro.load_program is api.load_program
        assert repro.make_scheme is api.make_scheme
        assert repro.compile_source is api.compile_source
        assert repro.simulate is api.simulate
        assert repro.evaluate_grid is api.evaluate_grid
        assert repro.SchemeSpec is SchemeSpec
        # validate() deliberately stays under repro.api: a top-level
        # re-export would be shadowed by the repro.validate subpackage.
        assert repro.api.validate is api.validate


class TestStepLimit:
    def _looping_program(self) -> Program:
        program = Program(entry="main")
        fn = program.new_function("main", [])
        builder = IRBuilder(fn)
        loop = builder.block("loop")
        builder.at(loop)
        builder.jump(loop)
        return program, loop.bid

    def test_step_limit_raises_structured_error(self):
        program, loop_bid = self._looping_program()
        interpreter = Interpreter(program, max_steps=100)
        with pytest.raises(StepLimitExceeded) as info:
            interpreter.run([])
        error = info.value
        assert error.steps == 100
        assert error.function_name == "main"
        assert error.block_id == loop_bid
        assert "main" in str(error) and "100" in str(error)

    def test_step_limit_is_an_interpreter_error(self):
        # Existing callers catch InterpreterError; the subclass must not
        # change what they observe.
        program, _ = self._looping_program()
        with pytest.raises(InterpreterError):
            Interpreter(program, max_steps=10).run([])
