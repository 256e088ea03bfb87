"""The ``repro analyze`` driver: bounds vs. achieved heights, per region.

For every scheme this forms regions exactly the way the evaluation
engine does (:func:`repro.evaluation.schemes.form_program`).  For every
machine it then computes each region's critical-path and
resource-saturation lower bounds (:mod:`repro.analysis.bounds`),
schedules the same region under every requested heuristic with default
options, and reports the bounds next to the achieved heights.  A bound
exceeding *any* achieved height is a soundness bug — the corpus gate,
the ``analysis-smoke`` CI job, and the validate oracle all fail on it.

The result is a plain JSON-ready dict; :func:`format_analysis` renders
the human view.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.ir.function import Program

#: The schemes analyzed when none are given (any scheme is accepted).
DEFAULT_SCHEMES = ("bb", "treegion")
DEFAULT_MACHINES = ("4U", "8U")


def analyze_program(
    program: Program,
    *,
    name: Optional[str] = None,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    machines: Sequence[str] = DEFAULT_MACHINES,
    heuristics: Optional[Sequence[str]] = None,
    calls: bool = False,
    lint: bool = True,
) -> Dict[str, object]:
    """Analyze one program; returns a JSON-ready result dict.

    ``schemes``/``machines``/``heuristics`` accept the same spec strings
    as the rest of the API.  ``calls=True`` adds the whole-program call
    graph; ``lint=True`` (default) adds the flow-sensitive lint summary
    the CI gate checks for new errors.
    """
    from repro.api import machine as resolve_machine
    from repro.api import make_scheme
    from repro.evaluation.schemes import form_program
    from repro.ir.analysis_cache import live_ranges_of, liveness_of
    from repro.analysis.bounds import region_lower_bounds
    from repro.schedule.priorities import HEURISTICS
    from repro.schedule.scheduler import ScheduleOptions, schedule_region

    heuristics = tuple(heuristics) if heuristics else HEURISTICS
    for heuristic in heuristics:
        if heuristic not in HEURISTICS:
            raise ValueError(
                f"unknown heuristic {heuristic!r}; expected one of "
                f"{', '.join(HEURISTICS)}"
            )

    region_rows: List[Dict[str, object]] = []
    unsound = 0
    tight = 0
    gaps: List[int] = []

    for scheme_spec in schemes:
        scheme = make_scheme(scheme_spec)
        _, functions = form_program(program, scheme)
        for machine_spec in machines:
            mach = resolve_machine(machine_spec)
            for function, partition, _, _ in functions:
                liveness = liveness_of(function.cfg)
                ranges = live_ranges_of(function.cfg)
                for region in partition:
                    bounds = region_lower_bounds(region, mach, liveness)
                    achieved: Dict[str, int] = {}
                    for heuristic in heuristics:
                        schedule = schedule_region(
                            region, mach,
                            ScheduleOptions(heuristic=heuristic), liveness,
                        )
                        achieved[heuristic] = schedule.length
                    best = min(achieved.values())
                    pressure = ranges.region_pressure(region)
                    sound = bounds.lower_bound <= best
                    if not sound:
                        unsound += 1
                    if bounds.lower_bound == best:
                        tight += 1
                    gaps.append(best - bounds.lower_bound)
                    region_rows.append({
                        "function": function.name,
                        "scheme": scheme.name,
                        "machine": mach.name,
                        "root": region.root.bid,
                        "blocks": region.block_count,
                        "ops": bounds.ops,
                        "memory_ops": bounds.memory_ops,
                        "branch_ops": bounds.branch_ops,
                        "critical_path": bounds.critical_path,
                        "resource_bound": bounds.resource,
                        "lower_bound": bounds.lower_bound,
                        "achieved": achieved,
                        "best": best,
                        "sound": sound,
                        "pressure": {
                            rclass.value: count
                            for rclass, count in pressure.items()
                            if count
                        },
                    })

    count = len(region_rows)
    result: Dict[str, object] = {
        "program": name,
        "schemes": [make_scheme(s).name for s in schemes],
        "machines": [resolve_machine(m).name for m in machines],
        "heuristics": list(heuristics),
        "regions": region_rows,
        "summary": {
            "regions": count,
            "unsound": unsound,
            "sound": unsound == 0,
            "tight": tight,
            "tight_fraction": round(tight / count, 4) if count else 1.0,
            "mean_gap": round(sum(gaps) / count, 4) if count else 0.0,
            "max_gap": max(gaps) if gaps else 0,
        },
    }
    if lint:
        from repro.lint.run import lint_ir

        result["lint"] = lint_ir(program).to_json()
    if calls:
        from repro.ir.analysis_cache import call_graph_of

        result["call_graph"] = call_graph_of(program).to_json()
    return result


def format_analysis(result: Dict[str, object]) -> str:
    """Human rendering of one :func:`analyze_program` result."""
    lines: List[str] = []
    name = result.get("program")
    header = f"analysis: {name}" if name else "analysis"
    lines.append(header)
    summary = result["summary"]
    lines.append(
        f"  regions={summary['regions']} "
        f"sound={'yes' if summary['sound'] else 'NO'} "
        f"tight={summary['tight']}/{summary['regions']} "
        f"mean gap={summary['mean_gap']} max gap={summary['max_gap']}"
    )
    heuristics = result["heuristics"]
    head = (f"  {'region':<24} {'ops':>4} {'cp':>4} {'res':>4} {'lb':>4} "
            + " ".join(f"{h[:10]:>10}" for h in heuristics))
    lines.append(head)
    for row in result["regions"]:
        label = (f"{row['function']}/bb{row['root']} "
                 f"{row['scheme']}/{row['machine']}")
        achieved = row["achieved"]
        flag = "" if row["sound"] else "  UNSOUND"
        lines.append(
            f"  {label:<24} {row['ops']:>4} {row['critical_path']:>4} "
            f"{row['resource_bound']:>4} {row['lower_bound']:>4} "
            + " ".join(f"{achieved[h]:>10}" for h in heuristics)
            + flag
        )
    lint = result.get("lint")
    if lint is not None:
        lines.append(
            f"  lint: {lint['errors']} error(s), "
            f"{lint['warnings']} warning(s)"
        )
    graph = result.get("call_graph")
    if graph is not None:
        lines.append(
            f"  call graph: {len(graph['functions'])} function(s), "
            f"{len(graph['edges'])} call site(s), "
            f"external={graph['external'] or 'none'}, "
            f"recursive={graph['recursive'] or 'none'}"
        )
        for edge in graph["edges"][:10]:
            lines.append(
                f"    {edge['caller']} -> {edge['callee']} "
                f"(bb{edge['block']}, weight {edge['weight']:g}"
                + ("" if edge["resolved"] else ", unresolved")
                + ")"
            )
    return "\n".join(lines)
