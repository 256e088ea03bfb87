"""Tests for the minic frontend: lexing, parsing, lowering, execution."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir import verify_program
from repro.interp import run_program
from repro.lang import compile_source, parse, tokenize
from repro.util.errors import FrontendError, ReproError


def run(source, args=()):
    program = compile_source(source)
    result, memory = run_program(program, list(args))
    return result


class TestLexer:
    def test_numbers_idents_ops(self):
        tokens = tokenize("x1 = 3 + 4.5; // comment\n y")
        kinds = [t.kind for t in tokens]
        assert kinds == ["ident", "op", "int", "op", "float", "op", "ident", "eof"]

    def test_keywords_recognized(self):
        tokens = tokenize("if while func var")
        assert [t.kind for t in tokens[:-1]] == ["if", "while", "func", "var"]

    def test_maximal_munch(self):
        tokens = tokenize("a <<= b")  # lexes as '<<' then '='
        texts = [t.text for t in tokens if t.kind == "op"]
        assert texts == ["<<", "="]

    def test_block_comment_tracks_lines(self):
        tokens = tokenize("/* a\nb */ x")
        assert tokens[0].line == 2

    def test_bad_character(self):
        with pytest.raises(FrontendError):
            tokenize("a $ b")

    def test_unterminated_comment(self):
        with pytest.raises(FrontendError):
            tokenize("/* never ends")


class TestParserErrors:
    @pytest.mark.parametrize("source", [
        "func f( { }",
        "func f() { var; }",
        "func f() { if 1 { } }",
        "func f() { switch (x) { } }",
        "func f() { case 1: {} }",
        "notakeyword x;",
        "func f() { return 1 }",
    ])
    def test_rejects(self, source):
        with pytest.raises(FrontendError):
            parse(source)

    def test_duplicate_case_rejected(self):
        with pytest.raises(FrontendError):
            parse("func f(x){ switch(x){ case 1: {} case 1: {} } }")


class TestSemantics:
    def test_arithmetic_precedence(self):
        assert run("func main(){ return 2 + 3 * 4; }") == 14
        assert run("func main(){ return (2 + 3) * 4; }") == 20
        assert run("func main(){ return 10 - 4 - 3; }") == 3  # left assoc

    def test_unary(self):
        assert run("func main(){ return -5 + 8; }") == 3
        assert run("func main(){ return ~0; }") == -1
        assert run("func main(){ return !0 + !7; }") == 1

    def test_comparison_as_value(self):
        assert run("func main(a){ return a < 10; }", [3]) == 1
        assert run("func main(a){ return a < 10; }", [30]) == 0

    def test_short_circuit_and(self):
        # Division by zero on the right must not execute when left false.
        src = "func main(a){ if (a != 0 && 10 / a > 2) { return 1; } return 0; }"
        assert run(src, [0]) == 0
        assert run(src, [3]) == 1
        assert run(src, [10]) == 0

    def test_short_circuit_or(self):
        src = "func main(a){ if (a == 0 || 10 / a > 2) { return 1; } return 0; }"
        assert run(src, [0]) == 1
        assert run(src, [3]) == 1
        assert run(src, [10]) == 0

    def test_if_else_chain(self):
        src = """
        func main(a) {
            if (a < 0) { return -1; }
            else if (a == 0) { return 0; }
            else { return 1; }
        }
        """
        assert run(src, [-5]) == -1
        assert run(src, [0]) == 0
        assert run(src, [9]) == 1

    def test_while_with_break_continue(self):
        src = """
        func main(n) {
            var total = 0;
            var i = 0;
            while (1) {
                i = i + 1;
                if (i > n) { break; }
                if (i % 2 == 0) { continue; }
                total = total + i;
            }
            return total;
        }
        """
        assert run(src, [10]) == 1 + 3 + 5 + 7 + 9

    def test_for_loop(self):
        src = """
        func main(n) {
            var total = 0;
            for (var i = 0; i < n; i = i + 1) { total = total + i; }
            return total;
        }
        """
        assert run(src, [10]) == 45

    def test_switch(self):
        src = """
        func main(a) {
            switch (a) {
                case 1: { return 100; }
                case 2: { return 200; }
                default: { return -1; }
            }
        }
        """
        assert run(src, [1]) == 100
        assert run(src, [2]) == 200
        assert run(src, [7]) == -1

    def test_globals_and_arrays(self):
        src = """
        var counter = 10;
        array table[4] = {2, 4, 6, 8};
        func main(i) {
            counter = counter + table[i];
            return counter;
        }
        """
        assert run(src, [2]) == 16

    def test_functions_and_recursion(self):
        src = """
        func fact(n) {
            if (n <= 1) { return 1; }
            return n * fact(n - 1);
        }
        func main(n) { return fact(n); }
        """
        assert run(src, [6]) == 720

    def test_mutual_recursion(self):
        src = """
        func is_even(n) { if (n == 0) { return 1; } return is_odd(n - 1); }
        func is_odd(n) { if (n == 0) { return 0; } return is_even(n - 1); }
        func main(n) { return is_even(n); }
        """
        assert run(src, [10]) == 1
        assert run(src, [7]) == 0

    def test_implicit_return_zero(self):
        assert run("func main(){ var x = 5; }") == 0

    def test_nested_loops(self):
        src = """
        func main(n) {
            var total = 0;
            for (var i = 0; i < n; i = i + 1) {
                for (var j = 0; j < i; j = j + 1) {
                    total = total + 1;
                }
            }
            return total;
        }
        """
        assert run(src, [5]) == 10

    def test_produced_ir_is_valid(self):
        src = """
        array buf[16];
        func helper(x) { return x * x; }
        func main(n) {
            var best = 0;
            for (var i = 0; i < n; i = i + 1) {
                buf[i] = helper(i) % 7;
                if (buf[i] > best && i != 3) { best = buf[i]; }
            }
            switch (best) {
                case 0: { return -1; }
                default: { return best; }
            }
        }
        """
        program = compile_source(src)
        verify_program(program)
        result, _ = run_program(program, [10])
        expected_buf = [(i * i) % 7 for i in range(10)]
        expected = max(v for i, v in enumerate(expected_buf) if i != 3 or True)
        # Python reference mirroring the minic logic exactly:
        best = 0
        for i in range(10):
            if expected_buf[i] > best and i != 3:
                best = expected_buf[i]
        assert result == (best if best != 0 else -1)

    def test_frontend_errors(self):
        with pytest.raises(FrontendError):
            compile_source("func main(){ return y; }")
        with pytest.raises(FrontendError):
            compile_source("func main(){ zap(1); }")
        with pytest.raises(FrontendError):
            compile_source("func main(){ var a = 1; var a = 2; }")
        with pytest.raises(FrontendError):
            compile_source("func main(){ break; }")
        with pytest.raises(FrontendError):
            compile_source("func nope(){ return 0; }")  # no main


# ----------------------------------------------------------------------
# Fuzzing the minic trust boundary: whatever the text, compile_source
# returns a program or raises a typed error.

_SOURCE = """
array weights[8] = {3, 1, 4, 1, 5, 9, 2, 6};
var total = 0;
func pick(v, k) {
    switch (v % 3) {
        case 0: { return weights[k % 8]; }
        case 1: { return -v; }
        default: { return v / 2; }
    }
}
func main(n) {
    var best = 0;
    for (var i = 0; i < n; i = i + 1) {
        var v = (i * 2654435761) % 97;
        if (v % 2 == 0 && v > 10) {
            best = best + pick(v, i);
        } else {
            while (v > 3) { v = v >> 1; if (v == 5) { break; } }
            total = total + (v << 2) | 1;
        }
    }
    return best * 100 + total;
}
"""

_TOKENS = ["(", ")", "{", "}", "[", "]", ";", ",", ":", "=", "==", "+",
           "-", "*", "/", "%", "<", ">>", "&&", "!", "var", "if", "else",
           "while", "for", "switch", "case", "default", "func", "return",
           "break", "continue", "array", "0", "7", "1.5", "v", "main",
           "pick", "//", "/*", "\n"]

#: (position, text, length, how): one edit of the source text.  Long
#: digit runs exceed Python's ``int`` limit on string conversion.
_EDIT = st.tuples(st.integers(0, len(_SOURCE)),
                  st.sampled_from(_TOKENS) | st.text(max_size=3)
                  | st.integers(4301, 5000).map(lambda n: "7" * n),
                  st.integers(0, 8),
                  st.sampled_from(["insert", "replace", "delete"]))


def _compiles_or_rejects(source: str) -> None:
    """``compile_source`` returns a program or raises a ReproError."""
    try:
        compile_source(source)
    except ReproError:
        pass


class TestMinicRobustness:
    def test_seed_source_compiles(self):
        verify_program(compile_source(_SOURCE))

    @pytest.mark.parametrize("body", [
        "return " + "(" * 3000 + "1" + ")" * 3000 + ";",
        "return " + "-" * 3000 + "1;",
    ], ids=["parentheses", "unary_chain"])
    def test_deep_nesting_is_a_typed_error(self, body):
        with pytest.raises(FrontendError, match="nests too deeply"):
            compile_source("func main() { " + body + " }")

    @pytest.mark.parametrize("source", [
        "func main() {{ return {long}; }}",
        "func main() {{ return -{long}; }}",
        "array a[{long}]; func main() {{ return 0; }}",
        "var g = {long}; func main() {{ return g; }}",
        "array a[2] = {{1, {long}}}; func main() {{ return 0; }}",
        "func main() {{ switch (1) {{ case {long}: {{ return 1; }} }}"
        " return 0; }}",
    ], ids=["literal", "negative_literal", "array_size", "global_init",
            "array_init", "case_value"])
    def test_long_integer_literal_is_a_typed_error(self, source):
        with pytest.raises(FrontendError, match="5000 digits is too long"):
            compile_source(source.format(long="9" * 5000))

    def test_long_binary_chain_lowers(self):
        # Left-nested arithmetic chains lower in a loop: their length is
        # bounded by memory, not by the recursion limit.
        source = "func main() { return " + "+".join(["1"] * 20000) + "; }"
        assert run(source) == 20000

    @settings(max_examples=200, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(text=st.text())
    def test_arbitrary_text(self, text):
        _compiles_or_rejects(text)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(edits=st.lists(_EDIT, min_size=1, max_size=4))
    def test_mutated_source(self, edits):
        source = _SOURCE
        for position, text, length, how in edits:
            position = min(position, len(source))
            if how == "insert":
                source = source[:position] + text + source[position:]
            elif how == "replace":
                source = source[:position] + text + source[position + length:]
            else:
                source = source[:position] + source[position + length:]
        _compiles_or_rejects(source)
