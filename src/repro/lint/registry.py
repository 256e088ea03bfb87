"""The lint rule registry.

Every rule is a metadata record (:class:`Rule`) plus a checker callable.
Rule modules (:mod:`repro.lint.ir_rules`, :mod:`repro.lint.schedule_rules`)
register themselves with the :func:`ir_rule` / :func:`schedule_rule`
decorators when imported; :func:`ensure_loaded` imports them on demand so
that merely importing :mod:`repro.lint` (which the scheduler does for its
collector hook) stays cheap and cycle-free.

Checker signatures by family:

* ``ir`` rules with scope ``cfg`` take ``(cfg, emit)``; scope
  ``function`` takes ``(function, emit)``; scope ``program`` takes
  ``(program, emit)``.  ``emit(message, block=, op=, hint=)`` builds a
  :class:`~repro.lint.diagnostics.Diagnostic` with the rule id, its
  default severity, and the enclosing function pre-filled.
* ``schedule`` rules take ``(ctx, emit)`` where ``ctx`` is a
  :class:`repro.lint.schedule_rules.ScheduleContext`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.lint.diagnostics import Severity


@dataclass(frozen=True)
class Rule:
    """Metadata for one lint rule."""

    #: Stable id, e.g. ``ir.op-shape`` or ``sched.latency``.
    id: str
    #: ``ir`` (structural IR checks) or ``schedule`` (certifier checks).
    family: str
    #: Granularity the checker runs at: ``cfg``, ``function``,
    #: ``program``, or ``schedule``.
    scope: str
    severity: Severity
    #: One-line description for the catalog / CLI.
    summary: str
    #: The paper invariant the rule encodes (DESIGN.md catalog column).
    invariant: str
    check: Callable = None  # type: ignore[assignment]


_RULES: Dict[str, Rule] = {}
_LOADED = False


def register(rule: Rule) -> Rule:
    if rule.id in _RULES:
        raise ValueError(f"lint rule {rule.id!r} registered twice")
    _RULES[rule.id] = rule
    return rule


def _decorator(id: str, family: str, scope: str, severity: Severity,
               summary: str, invariant: str):
    def wrap(fn: Callable) -> Callable:
        register(Rule(id=id, family=family, scope=scope, severity=severity,
                      summary=summary, invariant=invariant, check=fn))
        return fn
    return wrap


def ir_rule(id: str, scope: str, severity: Severity, summary: str,
            invariant: str):
    """Register an IR-family rule (scope: ``cfg``/``function``/``program``)."""
    return _decorator(id, "ir", scope, severity, summary, invariant)


def schedule_rule(id: str, severity: Severity, summary: str, invariant: str):
    """Register a schedule-family rule (scope is always ``schedule``)."""
    return _decorator(id, "schedule", "schedule", severity, summary,
                      invariant)


def ensure_loaded() -> None:
    """Import the rule modules (idempotent)."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    import repro.lint.ir_rules  # noqa: F401  (registers on import)
    import repro.lint.schedule_rules  # noqa: F401


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id."""
    ensure_loaded()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def rules_for(family: str, scope: str = None) -> List[Rule]:
    """Registered rules of one family (optionally one scope), sorted."""
    return [rule for rule in all_rules()
            if rule.family == family
            and (scope is None or rule.scope == scope)]


def get_rule(rule_id: str) -> Rule:
    ensure_loaded()
    return _RULES[rule_id]


def make_emitter(rule: Rule, report, function_name: Optional[str] = None):
    """An ``emit(message, block=, op=, hint=)`` closure for one rule.

    Each emitted diagnostic carries the rule id, its default severity,
    and the enclosing function; per-rule counters land in the active
    metrics registry (``lint.rule.<id>``), so observability sees which
    rules fire without threading a registry through the checkers.
    """
    from repro.lint.diagnostics import Diagnostic
    from repro.obs.metrics import NULL_METRICS, current_metrics

    def emit(message: str, block=None, op=None, hint=None,
             severity=None) -> None:
        # ``severity`` overrides the rule default for rules whose verdict
        # is graded (ir.uninit-use: must-paths are errors, may-paths are
        # warnings).
        report.add(Diagnostic(
            rule=rule.id,
            severity=severity if severity is not None else rule.severity,
            message=message,
            function=function_name, block=block, op=op, hint=hint,
        ))
        metrics = current_metrics()
        if metrics is not NULL_METRICS:
            metrics.inc("lint.diagnostics")
            metrics.inc(f"lint.rule.{rule.id}")

    return emit
