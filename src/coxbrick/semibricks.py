"""Semibricks: one brick per descent, glued by the canonical join representation.

`semibrick` routes through the join-irreducible elements w_d of the canonical
join representation and applies the per-element brick construction to each;
`semibrick_direct` feeds the descent data (a_d, b_d, R_d) straight into the
parameter-level constructors, swapping (a, b) to (-b, -a) in case (A).  The
two routes must agree summand by summand, which the verification report and
the test-suite sweeps check.

Summands repeat heavily across a group (D6: 69,120 summands from 530
bricks), so each Dynkin type keeps a `BrickTable` in its `memo`, keyed by
R-set, which is the same as keying by w_d.  It holds:

- one `BrickEntry` per R-set: the brick's diagram and representation,
  whose preprojective relations are checked once when it is built, its
  brickness, its positive-root flag, and its vertex sets (support, top,
  socle, and which neighbours span or detect each block;
  `homs.vertex_sets`);
- the Hom dimension of each ordered pair of R-sets met in one semibrick,
  computed on first use.  Hom(M, N) = 0 whenever top(M) misses supp(N) or
  supp(M) misses soc(N), or the same holds once supp(N) is shrunk to the
  vertices where a common quotient of M and submodule of N can live
  (`homs.hom_vanishes`); such a pair is recorded as 0 with no Hom system
  solved, and counted in `certified`.  Every other pair is solved by
  `homs.hom_dim`;
- the summands themselves, one per (d, R) for `semibrick` and one per
  (d, a', b', R) for `semibrick_direct`, so that a semibrick met again
  costs only lookups;
- the direct route's builds.  Its builders receive (a', b', R), the
  parameters after the case-(A) swap (a, b) -> (-b, -a), and run once per
  such triple; each representation built is compared with the table brick
  of R.

The table belongs to the `DynkinType` instance, not to the process: two
equal instances keep separate tables, and a new instance starts empty, so
a run that builds its types afresh sees every construction again.

Table representations and summands are shared by every semibrick of the
type; no caller may mutate them.
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
from coxbrick.homs import (
    VertexSets,
    hom_dim,
    hom_vanishes,
    is_brick,
    is_positive_root,
    vertex_sets,
)
from coxbrick.quiver import QuiverRepresentation


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
    """The brick S(w) of one join-irreducible w, with its checks done once:
    brickness, the positive-root flag, and the vertex sets that settle most
    Hom pairs without a Hom system."""

    diagram: BrickDiagram
    rep: QuiverRepresentation
    is_brick: bool
    is_positive_root: bool
    vertex_sets: VertexSets


class BrickTable:
    """The bricks of one Dynkin type, keyed by R-set; see the module docstring.

    Use `brick_table(dynkin)`.  Every representation and summand it returns
    is shared and must not be mutated.  `certified` counts the pairs of
    `pairs` whose zero was read off vertex sets, with no Hom system solved.
    """

    def __init__(self, dynkin: DynkinType) -> None:
        self.dynkin = dynkin
        self.entries: dict[frozenset[int], BrickEntry] = {}
        self.pairs: dict[tuple[frozenset[int], frozenset[int]], int] = {}
        self.certified = 0
        self._summands: dict[tuple[int, frozenset[int]], SemibrickSummand] = {}
        self._direct_summands: dict[tuple, SemibrickSummand] = {}
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
            entry = BrickEntry(brick_diagram(w), rep, is_brick(rep), root, vertex_sets(rep))
            self.entries[r_values] = entry
        return entry

    def matching(self, sm: SemibrickSummand) -> BrickEntry | None:
        """The entry of the summand's R-set if the summand's representation
        is (or equals) its brick; None otherwise, also for an invalid R-set."""
        try:
            entry = self.entry(sm.diagram.r_values)
        except ValueError:
            return None
        return entry if sm.rep is entry.rep or sm.rep == entry.rep else None

    def hom_dim(self, x: frozenset[int], y: frozenset[int]) -> int:
        """dim Hom between the bricks of two R-sets already in the table:
        0 when their vertex sets settle it (`homs.hom_vanishes`), else
        solved by `homs.hom_dim`; recorded in `pairs` either way."""
        dim = self.pairs.get((x, y))
        if dim is None:
            ex, ey = self.entries[x], self.entries[y]
            if hom_vanishes(ex.vertex_sets, ey.vertex_sets):
                dim = 0
                self.certified += 1
            else:
                dim = hom_dim(ex.rep, ey.rep)
            self.pairs[x, y] = dim
        return dim

    def summand(self, row: DescentDatum) -> SemibrickSummand:
        """The table brick of the row's R-set as the summand at its descent,
        made once per (d, R)."""
        key = (row.d, row.r_values)
        sm = self._summands.get(key)
        if sm is None:
            entry = self.entry(row.r_values)
            sm = self._summands[key] = SemibrickSummand(row.d, entry.diagram, entry.rep)
        return sm

    def direct(self, row: DescentDatum) -> SemibrickSummand:
        """The summand of one descent datum, built from its parameters alone.

        The builders receive (a', b', R), (a', b') = (-b, -a) in case (A)
        and (a, b) otherwise, and run once per such triple; the summand is
        made once per (d, a', b', R).  A built representation is compared
        with the table brick of R and replaced by it when equal, so an
        unequal one reaches every later comparison.
        """
        a, b = (-row.b, -row.a) if row.case == "A" else (row.a, row.b)
        key = (row.d, a, b, row.r_values)
        sm = self._direct_summands.get(key)
        if sm is None:
            built = self._direct.get(key[1:])
            if built is None:
                diag = diagram_from_params_d(self.dynkin, a, b, row.r_values)
                rep = rep_from_params_d(self.dynkin, a, b, row.r_values)
                entry = self.entry(row.r_values)
                built = self._direct[key[1:]] = (diag, entry.rep if rep == entry.rep else rep)
            sm = self._direct_summands[key] = SemibrickSummand(row.d, *built)
        return sm


def brick_table(dynkin: DynkinType) -> BrickTable:
    """The brick table of this `DynkinType` instance, created empty on first use."""
    table = dynkin.memo.get("bricks")
    if table is None:
        table = dynkin.memo["bricks"] = BrickTable(dynkin)
    return table


def semibrick(w: CoxeterElement) -> Semibrick:
    """S(w) via the canonical join representation: one brick per w_d."""
    table = brick_table(w.dynkin)
    return Semibrick(w, tuple(table.summand(row) for row in decompose(w)))


def semibrick_direct(w: CoxeterElement) -> Semibrick:
    """S(w) from descent data alone, without building the elements w_d."""
    table = brick_table(w.dynkin)
    return Semibrick(w, tuple(table.direct(row) for row in decompose(w)))


@dataclass
class SemibrickReport:
    """Outcome of the structural checks on one semibrick."""

    element: CoxeterElement
    brick_flags: dict[int, bool]
    positive_root_flags: dict[int, bool]
    hom_dims: dict[tuple[int, int], int]  # off-diagonal Hom dimensions
    table_flags: dict[int, bool]  # the summand's rep is the table brick of its R-set
    summands_match_descents: bool

    @property
    def ok(self) -> bool:
        return (
            all(self.brick_flags.values())
            and all(self.positive_root_flags.values())
            and all(d == 0 for d in self.hom_dims.values())
            and all(self.table_flags.values())
            and self.summands_match_descents
        )


def verify_semibrick(s: Semibrick) -> SemibrickReport:
    """Check brickness, Hom-orthogonality, positive roots, that every summand
    is the table brick of its R-set, and that there is one summand per
    descent.  That the canonical join representation joins back to the
    element is checked once, by `verify.cjr`.

    Flags and Hom dimensions of a summand equal to its table brick come from
    the table; those of any other summand are computed on its own rep.
    """
    dynkin = s.element.dynkin
    table = brick_table(dynkin)
    brick_flags, root_flags, table_flags = {}, {}, {}
    checked = []  # (d, R-set, rep, whether the rep is the table brick) per summand
    for sm in s.summands:
        entry = table.matching(sm)
        table_flags[sm.d] = entry is not None
        if entry is None:
            brick_flags[sm.d] = is_brick(sm.rep)
            root_flags[sm.d] = is_positive_root(dynkin, sm.rep.dim_vector())
        else:
            brick_flags[sm.d] = entry.is_brick
            root_flags[sm.d] = entry.is_positive_root
        checked.append((sm.d, sm.diagram.r_values, sm.rep, entry is not None))
    hom_dims = {}
    pairs = table.pairs
    for dx, rx, mx, in_table_x in checked:
        for dy, ry, my, in_table_y in checked:
            if dx != dy:
                if in_table_x and in_table_y:
                    dim = pairs.get((rx, ry))
                    hom_dims[dx, dy] = table.hom_dim(rx, ry) if dim is None else dim
                else:
                    hom_dims[dx, dy] = hom_dim(mx, my)
    return SemibrickReport(
        element=s.element,
        brick_flags=brick_flags,
        positive_root_flags=root_flags,
        hom_dims=hom_dims,
        table_flags=table_flags,
        summands_match_descents=len(s.summands) == len(descents(s.element)),
    )


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
