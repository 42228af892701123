"""Semibricks: one brick per descent, glued by the canonical join representation.

`semibrick` routes through the join-irreducible elements w_d of the canonical
join representation and applies the per-element brick construction to each;
`semibrick_direct` feeds the descent data (a_d, b_d, R_d) straight into the
parameter-level constructors, swapping (a, b) to (-b, -a) in case (A).  The
two routes must agree summand by summand, which the verification report and
the test-suite sweeps check.

Summands repeat heavily across a group (D6: 69,120 summands from 530
bricks), so each Dynkin type keeps a `BrickTable` in its `memo`, keyed by
R-set, which is the same as keying by w_d.  An entry holds the brick's
diagram and representation, whose preprojective relations are checked once
when it is built, its brickness and its positive-root flag; the Hom
dimension of each ordered pair of R-sets is computed on first use.  The
direct route still builds a representation once per distinct descent datum
(a, b, case, R) and compares it with the table brick of R.  The table
belongs to the `DynkinType` instance, not to the process: two equal
instances keep separate tables, and a new instance starts empty, so a run
that builds its types afresh sees every construction again.

Table representations are shared by every semibrick of the type; no caller
may mutate them.
"""

from __future__ import annotations

from dataclasses import dataclass

from coxbrick.bricks import (
    BrickDiagram,
    brick_diagram,
    brick_rep,
    diagram_from_params_d,
    rep_from_params_d,
    render_diagram,
)
from coxbrick.canjoin import DescentDatum, decompose, jirr_from_R
from coxbrick.coxeter import CoxeterElement, DynkinType, descents
from coxbrick.homs import hom_dim, is_brick, is_positive_root
from coxbrick.quiver import QuiverRepresentation
from coxbrick.weak_order import GroupPoset


@dataclass(frozen=True)
class SemibrickSummand:
    d: int
    diagram: BrickDiagram
    rep: QuiverRepresentation


@dataclass(frozen=True)
class Semibrick:
    element: CoxeterElement
    summands: tuple[SemibrickSummand, ...]  # ordered by descent, -1 first


@dataclass(frozen=True)
class BrickEntry:
    """The brick S(w) of one join-irreducible w, with its checks done once."""

    diagram: BrickDiagram
    rep: QuiverRepresentation
    is_brick: bool
    is_positive_root: bool


class BrickTable:
    """The bricks of one Dynkin type, keyed by R-set; see the module docstring.

    Use `brick_table(dynkin)`.  Every representation it returns is shared
    and must not be mutated.
    """

    def __init__(self, dynkin: DynkinType) -> None:
        self.dynkin = dynkin
        self.entries: dict[frozenset[int], BrickEntry] = {}
        self.pairs: dict[tuple[frozenset[int], frozenset[int]], int] = {}
        self._direct: dict[tuple, tuple[BrickDiagram, QuiverRepresentation]] = {}

    def entry(self, r_values: frozenset[int]) -> BrickEntry:
        """The brick of the join-irreducible with this R-set, built on first use.

        Raises ValueError when no join-irreducible has this R-set.
        """
        entry = self.entries.get(r_values)
        if entry is None:
            w = jirr_from_R(self.dynkin, r_values)
            rep = brick_rep(w)
            root = is_positive_root(self.dynkin, rep.dim_vector())
            entry = BrickEntry(brick_diagram(w), rep, is_brick(rep), root)
            self.entries[r_values] = entry
        return entry

    def matching(self, sm: SemibrickSummand) -> BrickEntry | None:
        """The entry of the summand's R-set if the summand's representation
        equals its brick; None otherwise, also for an invalid R-set."""
        try:
            entry = self.entry(sm.diagram.r_values)
        except ValueError:
            return None
        return entry if sm.rep == entry.rep else None

    def hom_dim(self, x: frozenset[int], y: frozenset[int]) -> int:
        """dim Hom between the bricks of two R-sets already in the table."""
        if (x, y) not in self.pairs:
            self.pairs[x, y] = hom_dim(self.entries[x].rep, self.entries[y].rep)
        return self.pairs[x, y]

    def direct(self, row: DescentDatum) -> tuple[BrickDiagram, QuiverRepresentation]:
        """The summand of one descent datum, built from its parameters alone
        once per datum.  Its representation is compared with the table brick
        of R when built and replaced by it when equal, so an unequal one
        reaches every later comparison."""
        key = (row.a, row.b, row.case, row.r_values)
        if key not in self._direct:
            a, b = (-row.b, -row.a) if row.case == "A" else (row.a, row.b)
            diag = diagram_from_params_d(self.dynkin, a, b, row.r_values)
            rep = rep_from_params_d(self.dynkin, a, b, row.r_values)
            entry = self.entry(row.r_values)
            self._direct[key] = (diag, entry.rep if rep == entry.rep else rep)
        return self._direct[key]


def brick_table(dynkin: DynkinType) -> BrickTable:
    """The brick table of this `DynkinType` instance, created empty on first use."""
    table = dynkin.memo.get("bricks")
    if table is None:
        table = dynkin.memo["bricks"] = BrickTable(dynkin)
    return table


def semibrick(w: CoxeterElement) -> Semibrick:
    """S(w) via the canonical join representation: one brick per w_d."""
    table = brick_table(w.dynkin)
    summands = []
    for row in decompose(w):
        entry = table.entry(row.r_values)
        summands.append(SemibrickSummand(row.d, entry.diagram, entry.rep))
    return Semibrick(w, tuple(summands))


def semibrick_direct(w: CoxeterElement) -> Semibrick:
    """S(w) from descent data alone, without building the elements w_d."""
    table = brick_table(w.dynkin)
    return Semibrick(
        w, tuple(SemibrickSummand(row.d, *table.direct(row)) for row in decompose(w))
    )


@dataclass
class SemibrickReport:
    """Outcome of the structural checks on one semibrick."""

    element: CoxeterElement
    brick_flags: dict[int, bool]
    positive_root_flags: dict[int, bool]
    hom_dims: dict[tuple[int, int], int]  # off-diagonal Hom dimensions
    table_flags: dict[int, bool]  # the summand's rep is the table brick of its R-set
    summands_match_descents: bool
    join_window: tuple[int, ...] | None = None
    join_matches: bool | None = None

    @property
    def ok(self) -> bool:
        checks = [
            all(self.brick_flags.values()),
            all(self.positive_root_flags.values()),
            all(d == 0 for d in self.hom_dims.values()),
            all(self.table_flags.values()),
            self.summands_match_descents,
        ]
        if self.join_matches is not None:
            checks.append(self.join_matches)
        return all(checks)


def verify_semibrick(s: Semibrick, poset: GroupPoset | None = None) -> SemibrickReport:
    """Check brickness, Hom-orthogonality, positive roots, that every summand
    is the table brick of its R-set, and (optionally) that the join of the
    canonical join representation recovers the element.

    Flags and Hom dimensions of a summand equal to its table brick come from
    the table; those of any other summand are computed on its own rep.
    """
    dynkin = s.element.dynkin
    table = brick_table(dynkin)
    entries = [table.matching(sm) for sm in s.summands]
    brick_flags, root_flags = {}, {}
    for sm, entry in zip(s.summands, entries):
        if entry is None:
            brick_flags[sm.d] = is_brick(sm.rep)
            root_flags[sm.d] = is_positive_root(dynkin, sm.rep.dim_vector())
        else:
            brick_flags[sm.d] = entry.is_brick
            root_flags[sm.d] = entry.is_positive_root
    hom_dims = {}
    for x, ex in zip(s.summands, entries):
        for y, ey in zip(s.summands, entries):
            if x.d != y.d:
                if ex is None or ey is None:
                    hom_dims[(x.d, y.d)] = hom_dim(x.rep, y.rep)
                else:
                    r_x, r_y = x.diagram.r_values, y.diagram.r_values
                    hom_dims[(x.d, y.d)] = table.hom_dim(r_x, r_y)
    report = SemibrickReport(
        element=s.element,
        brick_flags=brick_flags,
        positive_root_flags=root_flags,
        hom_dims=hom_dims,
        table_flags={sm.d: entry is not None for sm, entry in zip(s.summands, entries)},
        summands_match_descents=len(s.summands) == len(descents(s.element)),
    )
    if poset is not None:
        joined = poset.join_all([row.element for row in decompose(s.element)])
        report.join_window = joined.window
        report.join_matches = joined == s.element
    return report


def render_semibrick(s: Semibrick) -> str:
    """Stacked per-descent diagrams; type-D rows are flattened onto one line."""
    lines = []
    for sm in s.summands:
        body = render_diagram(sm.diagram)
        if "\n" in body:
            body = " | ".join(part for part in body.split("\n"))
        lines.append(f"S_{sm.d}: {body}")
    return "\n".join(lines)


def semibrick_to_json(s: Semibrick) -> dict:
    from coxbrick.bricks import diagram_to_json

    return {
        "window": list(s.element.window),
        "summands": [
            {"d": sm.d, "brick": diagram_to_json(sm.diagram)} for sm in s.summands
        ],
    }
