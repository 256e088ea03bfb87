"""Structural IR verification — raising facade over ``repro.lint``.

The checks themselves live in :mod:`repro.lint.ir_rules` as diagnostic-
collecting rules (one :class:`~repro.lint.diagnostics.Diagnostic` per
violation, with function/block/op locations).  This module keeps the
historical raising API on top of them: each ``verify_*`` entry point runs
the corresponding rule scopes and raises :class:`IRValidationError`
listing *every* error found — not just the first, as the pre-lint
verifier did.

Warning-severity rules (e.g. ``ir.dead-store``) never fail verification;
they describe suspicious-but-defined constructs and are surfaced by
``repro lint`` instead.

The rule modules are imported lazily inside each function:
``repro.ir.__init__`` imports this module at package load, before the
rest of the IR package (which the rules depend on) exists.
"""

from __future__ import annotations

from repro.util.errors import IRValidationError
from repro.ir.cfg import CFG
from repro.ir.function import Function, Program


def _raise_on_errors(report) -> None:
    errors = report.errors
    if errors:
        raise IRValidationError(
            "; ".join(d.format() for d in errors)
        )


def verify_cfg(cfg: CFG) -> None:
    """Raise :class:`IRValidationError` on any structural violation."""
    from repro.lint.diagnostics import LintReport
    from repro.lint.ir_rules import lint_cfg

    _raise_on_errors(lint_cfg(cfg, LintReport()))


def verify_function(function: Function) -> None:
    """Verify one function (CFG structure plus function-level rules)."""
    from repro.lint.diagnostics import LintReport
    from repro.lint.ir_rules import lint_function

    _raise_on_errors(lint_function(function, LintReport()))


def verify_program(program: Program) -> None:
    """Verify a whole program (all functions plus program-level rules)."""
    from repro.lint.diagnostics import LintReport
    from repro.lint.ir_rules import lint_program_ir

    _raise_on_errors(lint_program_ir(program, LintReport()))


def check_program(program: Program) -> "list[str]":
    """Collect structural violations instead of raising on the first.

    The differential-validation oracle verifies every transformed clone of
    a generated program; a raising verifier would hide all but one problem
    per program, so this returns one formatted message per error-severity
    diagnostic (empty list = clean).  Unlike the pre-lint implementation,
    every violation in a function is reported, each with its location.
    """
    from repro.lint.diagnostics import LintReport
    from repro.lint.ir_rules import lint_program_ir

    report = lint_program_ir(program, LintReport())
    return [d.format() for d in report.errors]
