"""The weak order on an enumerated Coxeter group, as a brute-force lattice.

Everything here is an oracle, and it answers the queries the program asks:
joins and the canonical join representation.
Inversion sets are integer bitmasks (one bit per reflection, read by
`coxeter.inversion_masks`), and the poset is also stored transposed, with
its elements laid out longest first: bit b of a transposed bitset stands
for element `_order[b]`, and `_order` lists the elements by length, longest
first.  For each reflection k one integer `_cols[k]` has bit b set iff k is
an inversion of element `_order[b]`.  A query then tests every element of
the group at once with a few big-integer ANDs: the upper bounds of an
inversion set are the AND of the columns of its reflections, its lower
bounds the AND of the complemented columns of the reflections it lacks.
Those ANDs come from tables, as in the method of Four Russians
(Arlazarov, Dinic, Kronrod and Faradzev, 1970): the columns are cut into
groups of four bits, and each group keeps the AND of every subset of its
columns, so a query costs one AND per group its reflections touch.  An
upper bound is at least as long as the set it bounds, so a join starts
from the low bits, the elements that long.
The top set bit of the result is a shortest element of it.  The shortest
upper bound is the least one iff every upper bound holds the reflections
that separate it from the query, so a join ANDs only those columns.  The
join is the unique least upper bound found that way (a join of any number
of elements is one query on the union of their inversion sets), and the
canonical join representation follows the cover-reflection recipe.  No
Coxeter combinatorics (closure of inversion sets, the closed-form CJR) is
used, so the results stay an independent check of `coxbrick.canjoin`.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field

from coxbrick.coxeter import (
    DEFAULT_ENUMERATION_CAP,
    CoxeterElement,
    DynkinType,
    Reflection,
    all_reflections,
    cover_pairs,
    enumerate_group,
    inversion_masks,
)

_CHUNK = 1024  # elements transposed per step in GroupPoset.__post_init__
_GROUP = 4  # columns per subset table
_PART = (1 << _GROUP) - 1


def _subset_tables(columns: tuple[int, ...], everything: int) -> tuple[tuple[int, ...], ...]:
    """One table per `_GROUP` consecutive columns, in bit order: entry s is
    the AND of the group's columns at the set bits of s (a column itself
    when s has one bit), entry 0 is `everything`."""
    tables = []
    for start in range(0, len(columns), _GROUP):
        table = [everything]
        for col in columns[start : start + _GROUP]:
            table += [col, *(entry & col for entry in table[1:])]
        tables.append(tuple(table))
    return tuple(tables)


class LatticeError(Exception):
    """An internal consistency failure (a unique minimal element is missing)."""


@dataclass
class GroupPoset:
    """An enumerated group with cached inversion bitmasks.

    `build` orders `elements` lexicographically by window (no query relies
    on that order), and `masks[i]` has one bit per reflection of
    `all_reflections(dynkin)`, so u <= w iff masks[u] & ~masks[w] == 0.
    The masks, given as any iterable of ints, are kept as one
    `array('Q')`, 8 bytes each; one wider than 64 bits raises ValueError
    (no type enumerated anywhere has more than D8's 56 reflections), and
    so does a mask with a bit past the type's reflections, or a count of
    masks other than the count of elements.  They must be distinct (the
    weak order is antisymmetric).
    `__post_init__` derives `_pair_bit` (the (a, b) of a reflection to its
    bit), `_index` (window to position) and the transposed view.  There
    bit b stands for element `_order[b]`, and `_order` (an `array('I')`)
    runs through the element indices by length, longest first, ties in
    index order: `_cols[k]` holds the elements whose inversion set holds
    reflection k, `_cocols[k]` those whose set lacks it.  `_col_tables[g]`
    and `_cocol_tables[g]` hold, for the columns 4g to 4g + 3, the AND of
    the columns at the set bits of each index (`_subset_tables`), and
    `_at_least[l]` the elements at least l long, the low bits.  A whole
    group adds 11 bitsets to each view: its 16 entries less the columns
    themselves and entry 0, which is `_everything`.
    """

    dynkin: DynkinType
    elements: tuple[CoxeterElement, ...]
    masks: array = field(repr=False)
    _pair_bit: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)
    _index: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)
    _order: array = field(init=False, repr=False, compare=False)
    _cols: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _cocols: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _col_tables: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _cocol_tables: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _at_least: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _everything: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            self.masks = array("Q", self.masks)
        except OverflowError:
            raise ValueError("an inversion mask does not fit in 64 unsigned bits") from None
        if len(self.elements) != len(self.masks):
            raise ValueError(
                f"{len(self.elements)} elements need as many masks, got {len(self.masks)}"
            )
        reflections = all_reflections(self.dynkin)
        width = len(reflections)
        if max(self.masks, default=0) >> width:
            raise ValueError(
                f"an inversion mask has a bit beyond the {width} reflections of {self.dynkin}"
            )
        if any(a == b for a, b in itertools.pairwise(sorted(self.masks))):
            raise LatticeError("two elements share an inversion set")
        self._pair_bit = {(t.a, t.b): k for k, t in enumerate(reflections)}
        self._index = {w.window: i for i, w in enumerate(self.elements)}
        n = len(self.masks)
        self._everything = (1 << n) - 1
        # Counting sort by length, the longest first; scanning the indices
        # upwards keeps ties in index order.  at_least[l] elements are at
        # least l long, so the longer ones fill the slots below length l.
        counts = [0] * (width + 1)
        for m in self.masks:
            counts[m.bit_count()] += 1
        at_least = list(itertools.accumulate(reversed(counts), initial=0))[::-1]
        slot = at_least[1:]
        order = array("I", [0]) * n
        for i, m in enumerate(self.masks):
            length = m.bit_count()
            order[slot[length]] = i
            slot[length] += 1
        self._order = order
        # Transpose a chunk of bits at a time (small chunks keep the memory
        # peak down): spell each mask as `width` binary digits, last bit
        # first, so reflection k is every width-th digit from width - 1 - k
        # and element order[b] lands on bit b.
        cols = [0] * width
        for start in range(0, n, _CHUNK):
            chunk = reversed(order[start : start + _CHUNK])
            rows = "".join(format(self.masks[i], f"0{width}b") for i in chunk)
            for k in range(width):
                cols[k] |= int(rows[width - 1 - k :: width], 2) << start
        self._cols = tuple(cols)
        self._cocols = tuple(self._everything ^ col for col in self._cols)
        self._col_tables = _subset_tables(self._cols, self._everything)
        self._cocol_tables = _subset_tables(self._cocols, self._everything)
        self._at_least = tuple((1 << k) - 1 for k in at_least)

    @classmethod
    def build(cls, dynkin: DynkinType, cap: int = DEFAULT_ENUMERATION_CAP) -> "GroupPoset":
        """Enumerate the group and read each inversion mask off its window."""
        elements = enumerate_group(dynkin, cap=cap)
        return cls(
            dynkin=dynkin,
            elements=elements,
            masks=inversion_masks(dynkin, (w.window for w in elements)),
        )

    def index(self, w: CoxeterElement) -> int:
        """Position of w in `elements`; ValueError when w is not there, also
        for an element of another type (a window can belong to two types)."""
        if w.dynkin is not self.dynkin and w.dynkin != self.dynkin:
            raise ValueError(f"{w} is not in the enumerated group {self.dynkin}")
        try:
            return self._index[w.window]
        except KeyError:
            raise ValueError(f"{w} is not in the enumerated group {self.dynkin}") from None

    def mask(self, w: CoxeterElement) -> int:
        return self.masks[self.index(w)]

    @staticmethod
    def _select(tables: tuple[tuple[int, ...], ...], reflections: int, out: int) -> int:
        """`out` ANDed with column k for every bit k of `reflections`, one
        table entry per group of `_GROUP` bits."""
        for table in tables:
            if not (reflections and out):
                break
            part = reflections & _PART
            if part:
                out &= table[part]
            reflections >>= _GROUP
        return out

    def _extreme(self, candidates: int, query: int) -> int | None:
        """Index of the unique minimum of a nonempty bitset, or None when it
        has none.

        Every candidate must contain the inversion set `query`.  The top
        bit is a shortest candidate, and it is the minimum iff every
        candidate holds the reflections that separate it from `query`.  A
        unique minimum is strictly shorter than every other candidate, so
        the tie-break never matters.
        """
        if not candidates:
            raise LatticeError("empty candidate set")
        best = self._order[candidates.bit_length() - 1]
        if self._select(self._col_tables, self.masks[best] & ~query, candidates) != candidates:
            return None
        return best

    def join(self, *us: CoxeterElement) -> CoxeterElement:
        """Least upper bound in weak order of any number of elements.

        One query: the upper bounds of the union of their inversion sets,
        then the unique shortest of them.  The empty join is the identity
        (the minimum of the lattice).
        """
        mask = 0
        for u in us:
            mask |= self.mask(u)
        # An upper bound is at least as long as the union it bounds.
        start = self._at_least[mask.bit_count()]
        best = self._extreme(self._select(self._col_tables, mask, start), mask)
        if best is None:
            raise LatticeError("no unique extreme element; lattice property violated")
        return self.elements[best]

    def join_all(self, us: Iterable[CoxeterElement]) -> CoxeterElement:
        """Join of a finite collection, as one `join` query; the empty join is
        the identity."""
        return self.join(*us)

    def cjr_oracle(self, w: CoxeterElement) -> frozenset[CoxeterElement]:
        """Canonical join representation by brute force.

        For each cover reflection t of w the set {v <= w : t in inv(v)} must
        have a unique minimal element; their collection is the CJR.  A
        non-unique minimal element would contradict the semidistributivity
        of the weak order, so it raises LatticeError.
        """
        # the elements whose inversion set lacks every reflection w lacks
        lacked = ~self.mask(w) & ((1 << len(self._cols)) - 1)
        below_w = self._select(self._cocol_tables, lacked, self._everything)
        out = set()
        for pair in cover_pairs(w):
            k = self._pair_bit[pair]
            cand = below_w & self._cols[k]
            # With distinct masks, exactly one minimal element is the same as
            # a unique minimum of the candidates, all of which hold bit k.
            if cand:
                best = self._extreme(cand, 1 << k)
                if best is not None:
                    out.add(self.elements[best])
                    continue
            indices = [self._order[b] for b in range(len(self.masks)) if cand >> b & 1]
            minimal = [
                i
                for i in indices
                if not any(j != i and self.masks[j] & ~self.masks[i] == 0 for j in indices)
            ]
            t = Reflection(*pair)
            raise LatticeError(f"{len(minimal)} minimal elements below {w} containing {t}")
        return frozenset(out)
