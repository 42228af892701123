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
  computed on first use and kept by entry id: per entry, a bitset of the
  partners whose Hom from it is zero, and a dict of the few nonzero
  dimensions (a brick against itself, say).  Hom(M, N) = 0 whenever
  top(M) misses supp(N) or supp(M) misses soc(N), or the same holds once
  supp(N) is shrunk to the vertices where a common quotient of M and
  submodule of N can live (`homs.hom_vanishes`); such a pair is recorded
  as 0 with no Hom system solved, and counted in `certified`.  Every
  other pair is solved by `homs.hom_dim`;
- the summands themselves, one per (d, R) for `semibrick` and one per
  (d, a', b', R) for `semibrick_direct`, so that a semibrick met again
  costs only lookups;
- the direct route's builds.  Its builders receive (a', b', R), the
  parameters after the case-(A) swap (a, b) -> (-b, -a), and run once per
  such triple; each representation built is compared with the table brick
  of R.

`verify_semibrick` reads its verdict off this table: entries, their flags
and their zero-Hom bitsets.  Its `SemibrickReport` derives each of its
five fields once, when first read, from the same entries; a summand that
is not its table brick is checked on its own representation.

The table belongs to the `DynkinType` instance, not to the process: two
equal instances keep separate tables, and a new instance starts empty, so
a run that builds its types afresh sees every construction again.

Table representations and summands are shared by every semibrick of the
type; no caller may mutate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from coxbrick.bricks import (
    BrickDiagram,
    brick_diagram,
    brick_rep,
    diagram_from_params_d,
    diagram_to_json,
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
    Hom pairs without a Hom system.  `id` is its position in the table,
    the bit that stands for it in the table's Hom bitsets."""

    id: int
    diagram: BrickDiagram
    rep: QuiverRepresentation
    is_brick: bool
    is_positive_root: bool
    vertex_sets: VertexSets


class BrickTable:
    """The bricks of one Dynkin type, keyed by R-set; see the module docstring.

    Use `brick_table(dynkin)`.  Every representation and summand it returns
    is shared and must not be mutated.  The Hom dimension of the pair of
    entries with ids (i, j) is recorded as bit j of `zero[i]` when it is 0,
    and as `nonzero[i, j]` otherwise.  `certified` counts the recorded
    pairs whose zero was read off vertex sets, with no Hom system solved.
    """

    def __init__(self, dynkin: DynkinType) -> None:
        self.dynkin = dynkin
        self.entries: dict[frozenset[int], BrickEntry] = {}
        self.zero: list[int] = []  # indexed by entry id
        self.nonzero: dict[tuple[int, int], int] = {}
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
            entry = BrickEntry(
                len(self.zero), brick_diagram(w), rep, is_brick(rep), root, vertex_sets(rep)
            )
            self.entries[r_values] = entry
            self.zero.append(0)
        return entry

    def hom_dim(self, x: BrickEntry, y: BrickEntry) -> int:
        """dim Hom(x, y) between two entries of the table: read off its
        bits when recorded, else 0 when their vertex sets settle it
        (`homs.hom_vanishes`) or solved by `homs.hom_dim`, and recorded."""
        i, j = x.id, y.id
        if self.zero[i] >> j & 1:
            return 0
        dim = self.nonzero.get((i, j))
        if dim is None:
            if hom_vanishes(x.vertex_sets, y.vertex_sets):
                dim = 0
                self.certified += 1
            else:
                dim = hom_dim(x.rep, y.rep)
            if dim:
                self.nonzero[i, j] = dim
            else:
                self.zero[i] |= 1 << j
        return dim

    def pair_count(self) -> int:
        """The number of ordered pairs whose Hom dimension is recorded."""
        return sum(bits.bit_count() for bits in self.zero) + len(self.nonzero)

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


class SemibrickReport:
    """Outcome of the structural checks on one semibrick, keyed by descent:

    - `brick_flags[d]`: the summand at d is a brick;
    - `positive_root_flags[d]`: its dimension vector is a positive root;
    - `hom_dims[dx, dy]`: dim Hom between the summands at two distinct
      descents;
    - `table_flags[d]`: its representation is the table brick of its R-set;
    - `summands_match_descents`: one summand at each descent, in order.

    `ok` holds when every flag holds and every Hom dimension is 0.  Each
    field is computed when first read, from one row per summand: a summand
    whose rep is (or equals) the table brick of its R-set reads that
    entry, and any other is checked on its own rep.  `verify_semibrick`
    passes `ok=True` in for a semibrick that passed on its table entries;
    otherwise `ok` computes every field, so a failing report records the
    same Hom pairs in the table whichever check fails.
    """

    def __init__(self, s: Semibrick, ok: bool | None = None) -> None:
        self.element = s.element
        self._summands = s.summands
        if ok is not None:
            self.ok = ok

    @cached_property
    def _rows(self) -> list[tuple[int, BrickEntry | None, QuiverRepresentation]]:
        """(d, entry, rep) per summand; the entry is None when the rep is not
        (and does not equal) the table brick of its R-set, also for an
        invalid R-set."""
        table = brick_table(self.element.dynkin)
        rows = []
        for sm in self._summands:
            try:
                entry = table.entry(sm.diagram.r_values)
            except ValueError:
                entry = None
            if entry is not None and sm.rep is not entry.rep and sm.rep != entry.rep:
                entry = None
            rows.append((sm.d, entry, sm.rep))
        return rows

    @cached_property
    def brick_flags(self) -> dict[int, bool]:
        return {d: entry.is_brick if entry else is_brick(rep) for d, entry, rep in self._rows}

    @cached_property
    def positive_root_flags(self) -> dict[int, bool]:
        dynkin = self.element.dynkin
        return {
            d: entry.is_positive_root if entry else is_positive_root(dynkin, rep.dim_vector())
            for d, entry, rep in self._rows
        }

    @cached_property
    def hom_dims(self) -> dict[tuple[int, int], int]:  # off-diagonal Hom dimensions
        table = brick_table(self.element.dynkin)
        return {
            (dx, dy): table.hom_dim(ex, ey) if ex and ey else hom_dim(mx, my)
            for dx, ex, mx in self._rows
            for dy, ey, my in self._rows
            if dx != dy
        }

    @cached_property
    def table_flags(self) -> dict[int, bool]:
        return {d: entry is not None for d, entry, _ in self._rows}

    @cached_property
    def summands_match_descents(self) -> bool:
        return [d for d, _, _ in self._rows] == sorted(descents(self.element))

    @cached_property
    def ok(self) -> bool:
        flags = self.brick_flags, self.positive_root_flags, self.table_flags
        homs, placed = self.hom_dims, self.summands_match_descents
        return all(all(f.values()) for f in flags) and not any(homs.values()) and placed


def verify_semibrick(s: Semibrick) -> SemibrickReport:
    """Check brickness, Hom-orthogonality, positive roots, that every summand
    is the table brick of its R-set, and that the summands sit at the
    descents, one each, in order (-1 first).  That the canonical join
    representation joins back to the element is checked once, by
    `verify.cjr`.

    The verdict is read off the type's brick table: each summand's rep must
    be the table entry's own object, the entries distinct, each flagged a
    brick and a positive root, and every ordered pair zero in the entries'
    Hom bitsets, a pair not yet recorded going through `BrickTable.hom_dim`.
    Such a semibrick gets a report with `ok=True` and its other fields
    unread; any other gets a report whose `ok` computes every field.
    """
    table = brick_table(s.element.dynkin)
    checked, mask = [], 0  # the summands' entries; their id bits
    for sm in s.summands:
        entry = table.entries.get(sm.diagram.r_values)
        if (
            entry is None
            or sm.rep is not entry.rep
            or not (entry.is_brick and entry.is_positive_root)
            or mask >> entry.id & 1
        ):
            return SemibrickReport(s)
        checked.append(entry)
        mask |= 1 << entry.id
    if [sm.d for sm in s.summands] != sorted(descents(s.element)):
        return SemibrickReport(s)
    zero = table.zero
    for x in checked:
        if (zero[x.id] | 1 << x.id) & mask != mask:  # a pair from x not recorded zero
            if any(y is not x and table.hom_dim(x, y) for y in checked):
                return SemibrickReport(s)
    return SemibrickReport(s, ok=True)


def render_semibrick(s: Semibrick) -> str:
    """Stacked per-descent diagrams; type-D rows are flattened onto one line."""
    lines = []
    for sm in s.summands:
        body = render_diagram(sm.diagram).replace("\n", " | ")
        lines.append(f"S_{sm.d}: {body}")
    return "\n".join(lines)


def semibrick_to_json(s: Semibrick) -> dict:
    return {
        "window": list(s.element.window),
        "summands": [
            {"d": sm.d, "brick": diagram_to_json(sm.diagram)} for sm in s.summands
        ],
    }
