"""The ``repro gap`` driver: heuristic heights vs proven optima.

For every scheme this forms regions exactly the way the evaluation
engine does (:func:`repro.evaluation.schemes.form_program`).  For every
machine it then solves each region with the exact backend
(:func:`repro.exact.backend.solve_region` — which also yields all four
heuristic heights as the incumbent candidates), and scores each
heuristic against the optimum:

* per-heuristic **gap histograms** (``height − optimum`` over regions
  with a proven optimum) and the fraction of regions where each
  heuristic is optimal;
* the **bound certification** the satellite tasks demand: on every
  proven region, ``RegionBounds.lower_bound ≤ optimum`` must hold — a
  violation means the PR-9 bounds are unsound and is counted in
  ``summary.unsound_bounds`` (the CLI and CI gate on zero);
* optional per-region **lint certification**: every exact schedule runs
  through the ``sched.*`` legality rules; error diagnostics are counted
  in ``summary.lint_errors`` (also gated on zero).

The result is a plain JSON-ready dict; :func:`format_gap` renders the
human view and :func:`gap_summary` folds many programs' region rows
into one corpus-level summary table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.ir.function import Program

#: Schemes the exact backend (and the bounds) are defined for.
DEFAULT_SCHEMES = ("bb", "treegion")
DEFAULT_MACHINES = ("4U", "8U")


def gap_program(
    program: Program,
    *,
    name: Optional[str] = None,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    machines: Sequence[str] = DEFAULT_MACHINES,
    budget: Optional[int] = None,
    max_ops: Optional[int] = None,
    lint: bool = True,
) -> Dict[str, object]:
    """Optimality-gap report for one program; a JSON-ready result dict.

    ``budget`` is the branch-and-bound node budget per region (default:
    :data:`repro.exact.backend.DEFAULT_NODE_BUDGET`).  ``max_ops``
    skips regions with more schedulable ops than the limit entirely
    (they appear only in ``summary.skipped``) — the validate oracle
    uses this to keep its cross-check cheap.  ``lint=True`` certifies
    every exact schedule with the ``sched.*`` rules.
    """
    from repro.api import machine as resolve_machine
    from repro.api import make_scheme
    from repro.evaluation.schemes import form_program
    from repro.ir.analysis_cache import liveness_of
    from repro.analysis.bounds import bounds_from_ddg
    from repro.exact.backend import DEFAULT_NODE_BUDGET, solve_region
    from repro.schedule.priorities import HEURISTICS

    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    if budget < 0:
        raise ValueError("budget must be >= 0")

    rows: List[Dict[str, object]] = []
    skipped = 0

    for scheme_spec in schemes:
        scheme = make_scheme(scheme_spec)
        if scheme.name == "hyperblock":
            raise ValueError(
                "repro gap covers tree-pipeline schemes only; "
                "hyperblock schedules through a different pipeline"
            )
        _, functions = form_program(program, scheme)
        for machine_spec in machines:
            mach = resolve_machine(machine_spec)
            for function, partition, _, _ in functions:
                liveness = liveness_of(function.cfg)
                for region in partition:
                    schedule, info, problem, ddg = solve_region(
                        region, mach, liveness, budget=budget,
                    )
                    bounds = bounds_from_ddg(problem, ddg, mach)
                    if max_ops is not None and bounds.ops > max_ops:
                        skipped += 1
                        continue
                    lint_errors = 0
                    if lint:
                        from repro.lint.schedule_rules import check_schedule

                        report = check_schedule(
                            problem, ddg, schedule, machine=mach,
                            liveness=liveness,
                        )
                        lint_errors = len(report.errors)
                    best = min(info.heights.values())
                    reference = info.optimum if info.proven else best
                    rows.append({
                        "function": function.name,
                        "scheme": scheme.name,
                        "machine": mach.name,
                        "root": region.root.bid,
                        "blocks": region.block_count,
                        "ops": bounds.ops,
                        "critical_path": bounds.critical_path,
                        "resource_bound": bounds.resource,
                        "lower_bound": bounds.lower_bound,
                        "heights": dict(info.heights),
                        "best": best,
                        "status": info.status,
                        "optimum": info.optimum,
                        "length": info.length,
                        "improved": info.improved,
                        "nodes": info.nodes,
                        "pruned": info.pruned,
                        # The bound certification: on proven regions the
                        # bound must not exceed the optimum; otherwise
                        # the (weaker) heuristic check applies.
                        "sound": bounds.lower_bound <= reference,
                        "lint_errors": lint_errors,
                    })

    heuristics = list(HEURISTICS)
    result: Dict[str, object] = {
        "program": name,
        "schemes": [make_scheme(s).name for s in schemes],
        "machines": [resolve_machine(m).name for m in machines],
        "heuristics": heuristics,
        "budget": budget,
        "regions": rows,
        "summary": gap_summary(rows, heuristics, skipped=skipped),
    }
    return result


def gap_summary(rows: Sequence[Dict[str, object]],
                heuristics: Sequence[str],
                skipped: int = 0) -> Dict[str, object]:
    """Fold region rows (one program's or a whole corpus') into the
    summary block: proven fractions, bound certification, per-heuristic
    gap statistics over the proven regions."""
    count = len(rows)
    proven_rows = [row for row in rows if row["status"] == "proven"]
    proven = len(proven_rows)
    unsound = sum(1 for row in rows if not row["sound"])
    lint_errors = sum(row["lint_errors"] for row in rows)
    improved = sum(1 for row in rows if row["improved"])
    nodes = sum(row["nodes"] for row in rows)

    per_heuristic: Dict[str, Dict[str, object]] = {}
    for heuristic in heuristics:
        gaps = [row["heights"][heuristic] - row["optimum"]
                for row in proven_rows]
        histogram: Dict[str, int] = {}
        for gap in gaps:
            key = str(gap)
            histogram[key] = histogram.get(key, 0) + 1
        optimal = sum(1 for gap in gaps if gap == 0)
        per_heuristic[heuristic] = {
            "optimal": optimal,
            "optimal_fraction": (round(optimal / proven, 4)
                                 if proven else 1.0),
            "mean_gap": (round(sum(gaps) / proven, 4) if proven else 0.0),
            "max_gap": max(gaps) if gaps else 0,
            "histogram": histogram,
        }

    return {
        "regions": count,
        "proven": proven,
        "proven_fraction": round(proven / count, 4) if count else 1.0,
        "budget_exceeded": count - proven,
        "improved": improved,
        "nodes": nodes,
        "unsound_bounds": unsound,
        "sound": unsound == 0,
        "lint_errors": lint_errors,
        "skipped": skipped,
        "heuristics": per_heuristic,
    }


def format_gap_summary(summary: Dict[str, object],
                       heuristics: Sequence[str],
                       indent: str = "  ") -> List[str]:
    """The summary block's human rendering (shared per-program/corpus)."""
    lines = [
        f"{indent}regions={summary['regions']} "
        f"proven={summary['proven']}/{summary['regions']} "
        f"({summary['proven_fraction'] * 100:.1f}%) "
        f"improved={summary['improved']} "
        f"bounds={'sound' if summary['sound'] else 'UNSOUND'} "
        f"lint errors={summary['lint_errors']}"
    ]
    head = (f"{indent}{'heuristic':<16} {'optimal':>14} "
            f"{'mean gap':>9} {'max gap':>8}")
    lines.append(head)
    proven = summary["proven"]
    for heuristic in heuristics:
        stats = summary["heuristics"][heuristic]
        share = (f"{stats['optimal']}/{proven} "
                 f"{stats['optimal_fraction'] * 100:.0f}%")
        lines.append(
            f"{indent}{heuristic:<16} {share:>14} "
            f"{stats['mean_gap']:>9.2f} {stats['max_gap']:>8}"
        )
    return lines


def format_gap(result: Dict[str, object]) -> str:
    """Human rendering of one :func:`gap_program` result."""
    lines: List[str] = []
    name = result.get("program")
    lines.append(f"gap: {name}" if name else "gap")
    heuristics = result["heuristics"]
    lines.extend(format_gap_summary(result["summary"], heuristics))
    head = (f"  {'region':<24} {'ops':>4} {'lb':>4} {'opt':>4} "
            + " ".join(f"{h[:10]:>10}" for h in heuristics)
            + "  status")
    lines.append(head)
    for row in result["regions"]:
        label = (f"{row['function']}/bb{row['root']} "
                 f"{row['scheme']}/{row['machine']}")
        optimum = row["optimum"] if row["optimum"] is not None else "-"
        flags = "" if row["sound"] else "  UNSOUND"
        if row["lint_errors"]:
            flags += f"  LINT:{row['lint_errors']}"
        lines.append(
            f"  {label:<24} {row['ops']:>4} {row['lower_bound']:>4} "
            f"{optimum:>4} "
            + " ".join(f"{row['heights'][h]:>10}" for h in heuristics)
            + f"  {row['status']}" + flags
        )
    return "\n".join(lines)
