"""Region-formation schemes, packaged for the experiment runner.

A :class:`Scheme` bundles a region former with its parameters and records
whether formation mutates the CFG (tail duplication does);
:func:`form_program`, through which every caller forms a program, is the
one place that reads the flag and clones.  The five schemes the paper
compares:

* ``bb`` — basic blocks (the speedup baseline, Section 3);
* ``slr`` — simple linear regions (Section 3);
* ``treegion`` — treegions without tail duplication (Section 3);
* ``superblock`` — profile traces + tail duplication (Section 4);
* ``treegion-td`` — treegions with tail duplication (Section 4), with the
  code-expansion limit in the name (``treegion-td(2.0)``).

:class:`SchemeSpec` is the typed, picklable description of a scheme: it
parses the spec strings used everywhere schemes cross a textual boundary
(CLI flags, grid cells, worker processes) and round-trips through
``str()``.  :class:`Scheme` objects close over formation callables and are
*not* picklable; a spec is what you keep and ship, ``spec.build()`` is
what you call at the point of use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.ir.cfg import CFG
from repro.ir.clone import clone_function, clone_globals
from repro.ir.function import Function, Program
from repro.obs.metrics import NULL_METRICS, current_metrics
from repro.obs.tracer import NULL_TRACER
from repro.regions.basic import form_basic_block_regions
from repro.regions.hyperblock import HyperblockLimits, form_hyperblocks
from repro.regions.region import RegionPartition
from repro.regions.slr import form_slrs
from repro.regions.superblock import SuperblockLimits, form_superblocks
from repro.core.formation import form_treegions
from repro.core.tail_duplication import TreegionLimits, form_treegions_td


@dataclass(frozen=True)
class Scheme:
    """A named region-formation strategy."""

    name: str
    form: Callable[[CFG], RegionPartition]
    #: True when formation tail-duplicates (:func:`form_program` then
    #: forms clones).
    mutates: bool = False


class FormedFunction(NamedTuple):
    """One function's regions under a scheme: the function formed (a
    clone when the scheme mutates) and its op counts before and after."""

    function: Function
    partition: RegionPartition
    original_ops: int
    final_ops: int


def form_program(
    program: Program,
    scheme: Scheme,
    lo: int = 0,
    hi: Optional[int] = None,
    tracer=NULL_TRACER,
) -> Tuple[Program, List[FormedFunction]]:
    """Form the functions ``[lo, hi)`` of ``program``; returns the
    program they belong to and one :class:`FormedFunction` each.

    A mutating scheme forms clones of the slice's functions, in a new
    program with the input's entry and globals; any other scheme forms
    the input's own.  Either way the input is left as it was.
    """
    functions = program.functions()[lo:hi]
    with tracer.span("clone"):
        if scheme.mutates:
            worked = clone_globals(program)
            targets = [worked.add_function(clone_function(function))
                       for function in functions]
        else:
            worked, targets = program, functions
    formed: List[FormedFunction] = []
    for function, target in zip(functions, targets):
        with tracer.span("formation", function=function.name):
            partition = scheme.form(target.cfg)
        formed.append(FormedFunction(target, partition,
                                     function.cfg.total_ops,
                                     target.cfg.total_ops))
    return worked, formed


def _counted(form: Callable[[CFG], RegionPartition]
             ) -> Callable[[CFG], RegionPartition]:
    """Wrap a former so each run counts formed regions/blocks into the
    active metrics registry (formation happens once per (benchmark,
    scheme, function) on every engine path, so these counters merge
    deterministically)."""

    def run(cfg: CFG) -> RegionPartition:
        partition = form(cfg)
        metrics = current_metrics()
        if metrics is not NULL_METRICS:
            regions = list(partition)
            metrics.inc("formation.regions", len(regions))
            metrics.inc("formation.blocks",
                        sum(r.block_count for r in regions))
        return partition

    return run


def bb_scheme() -> Scheme:
    return Scheme("bb", _counted(form_basic_block_regions))


def slr_scheme() -> Scheme:
    return Scheme("slr", _counted(form_slrs))


def treegion_scheme() -> Scheme:
    return Scheme("treegion", _counted(form_treegions))


def superblock_scheme(limits: Optional[SuperblockLimits] = None) -> Scheme:
    limits = limits or SuperblockLimits()
    return Scheme(
        "superblock",
        _counted(lambda cfg: form_superblocks(cfg, limits)),
        mutates=True,
    )


def treegion_td_scheme(limits: Optional[TreegionLimits] = None) -> Scheme:
    limits = limits or TreegionLimits()
    return Scheme(
        f"treegion-td({limits.code_expansion:g})",
        _counted(lambda cfg: form_treegions_td(cfg, limits)),
        mutates=True,
    )


def hyperblock_scheme(limits: Optional[HyperblockLimits] = None) -> Scheme:
    """If-converted hyperblocks (the paper's Section 6 comparison point:
    predication instead of tail duplication + speculation)."""
    limits = limits or HyperblockLimits()
    return Scheme(
        "hyperblock",
        _counted(lambda cfg: form_hyperblocks(cfg, limits)),
    )


# ----------------------------------------------------------------------
# Typed scheme specs


class SchemeSpecError(ValueError):
    """A scheme spec string could not be parsed."""


#: Scheme kinds that take no parameter.
_PLAIN_KINDS = ("bb", "slr", "treegion", "superblock", "hyperblock")


@dataclass(frozen=True)
class SchemeSpec:
    """A parsed, picklable scheme description.

    ``kind`` is one of ``bb``, ``slr``, ``treegion``, ``superblock``,
    ``hyperblock``, ``treegion-td``; ``limit`` is the code-expansion limit
    for ``treegion-td`` (``None`` selects the default
    :class:`~repro.core.tail_duplication.TreegionLimits`).

    The canonical string form (``str(spec)``) is ``<kind>`` or
    ``treegion-td:<limit>``; :meth:`parse` also accepts the display form
    ``treegion-td(<limit>)`` that :class:`Scheme` names use, so
    ``SchemeSpec.parse(str(spec)) == spec`` always holds.
    """

    kind: str
    limit: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _PLAIN_KINDS and self.kind != "treegion-td":
            raise SchemeSpecError(
                f"unknown scheme {self.kind!r}; expected one of "
                f"{', '.join(_PLAIN_KINDS)} or treegion-td[:<limit>]"
            )
        if self.limit is not None:
            if self.kind != "treegion-td":
                raise SchemeSpecError(
                    f"scheme {self.kind!r} takes no parameter "
                    f"(got {self.limit!r})"
                )
            if self.limit < 1.0:
                raise SchemeSpecError(
                    f"treegion-td code-expansion limit must be >= 1.0, "
                    f"got {self.limit:g}"
                )

    @classmethod
    def parse(cls, spec: str) -> "SchemeSpec":
        """Parse a spec string (``treegion``, ``treegion-td:2.0``, or the
        display form ``treegion-td(2.0)``) into a :class:`SchemeSpec`."""
        text = spec.strip()
        if not text:
            raise SchemeSpecError("empty scheme spec")
        if text in _PLAIN_KINDS or text == "treegion-td":
            return cls(text)
        if ":" in text:
            head, _, tail = text.partition(":")
        elif text.endswith(")") and "(" in text:
            head, _, tail = text[:-1].partition("(")
        else:
            raise SchemeSpecError(
                f"unknown scheme spec {spec!r}; expected one of "
                f"{', '.join(_PLAIN_KINDS)} or treegion-td:<limit>"
            )
        head = head.strip()
        try:
            limit = float(tail)
        except ValueError:
            raise SchemeSpecError(
                f"bad parameter {tail!r} in scheme spec {spec!r} "
                f"(expected a number)"
            ) from None
        return cls(head, limit)

    def __str__(self) -> str:
        if self.limit is None:
            return self.kind
        return f"{self.kind}:{self.limit:g}"

    def build(self) -> Scheme:
        """Instantiate the :class:`Scheme` this spec describes."""
        if self.kind == "bb":
            return bb_scheme()
        if self.kind == "slr":
            return slr_scheme()
        if self.kind == "treegion":
            return treegion_scheme()
        if self.kind == "superblock":
            return superblock_scheme()
        if self.kind == "hyperblock":
            return hyperblock_scheme()
        if self.limit is None:
            return treegion_td_scheme()
        return treegion_td_scheme(TreegionLimits(code_expansion=self.limit))
