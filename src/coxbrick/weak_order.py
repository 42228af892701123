"""The weak order on an enumerated Coxeter group, as a brute-force lattice.

Everything here is an oracle: join and meet are found by scanning the whole
group on inversion-set inclusion, the canonical join representation follows
the cover-reflection recipe, and `verify_cjr_definition` replays the
lattice-theoretic definition verbatim.  Inversion sets are packed into
integer bitmasks so the scans stay cheap at the ranks we enumerate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from coxbrick.coxeter import (
    DEFAULT_ENUMERATION_CAP,
    CapacityError,
    CoxeterElement,
    DynkinType,
    Reflection,
    all_reflections,
    cover_reflections,
    descents,
    enumerate_group,
    identity,
    inversions,
    join_irreducible_type,
    multiply,
    simple_reflection,
)

VERIFY_CJR_CAP = 40


class LatticeError(Exception):
    """An internal consistency failure (a unique min/max element is missing)."""


@dataclass
class GroupPoset:
    """An enumerated group with cached inversion bitmasks.

    `elements` is lexicographically ordered by window and `masks[i]` has one
    bit per reflection, so u <= w iff masks[u] & ~masks[w] == 0.
    """

    dynkin: DynkinType
    elements: tuple[CoxeterElement, ...]
    reflections: tuple[Reflection, ...]
    masks: tuple[int, ...] = field(repr=False)
    _index: dict[CoxeterElement, int] = field(repr=False)
    _refl_bit: dict[Reflection, int] = field(repr=False)

    @classmethod
    def build(cls, dynkin: DynkinType, cap: int = DEFAULT_ENUMERATION_CAP) -> "GroupPoset":
        elements = enumerate_group(dynkin, cap=cap)
        refl = all_reflections(dynkin)
        bit = {t: k for k, t in enumerate(refl)}
        masks = []
        for w in elements:
            m = 0
            for t in inversions(w):
                m |= 1 << bit[t]
            masks.append(m)
        return cls(
            dynkin=dynkin,
            elements=elements,
            reflections=refl,
            masks=tuple(masks),
            _index={w: i for i, w in enumerate(elements)},
            _refl_bit=bit,
        )

    def index(self, w: CoxeterElement) -> int:
        try:
            return self._index[w]
        except KeyError:
            raise ValueError(f"{w} is not in the enumerated group {self.dynkin}") from None

    def mask(self, w: CoxeterElement) -> int:
        return self.masks[self.index(w)]

    def leq(self, u: CoxeterElement, w: CoxeterElement) -> bool:
        return self.mask(u) & ~self.mask(w) == 0

    def length(self, w: CoxeterElement) -> int:
        return self.mask(w).bit_count()

    def identity_element(self) -> CoxeterElement:
        return identity(self.dynkin)

    def join_irreducibles(self) -> tuple[CoxeterElement, ...]:
        return tuple(w for w in self.elements if join_irreducible_type(w) is not None)

    def _extreme(self, candidates: list[int], want_min: bool) -> int:
        """Index of the unique minimum (or maximum) of a set of indices."""
        if not candidates:
            raise LatticeError("empty candidate set")
        if want_min:
            best = min(candidates, key=lambda i: self.masks[i].bit_count())
            ok = all(self.masks[best] & ~self.masks[i] == 0 for i in candidates)
        else:
            best = max(candidates, key=lambda i: self.masks[i].bit_count())
            ok = all(self.masks[i] & ~self.masks[best] == 0 for i in candidates)
        if not ok:
            raise LatticeError("no unique extreme element; lattice property violated")
        return best

    def join(self, u: CoxeterElement, v: CoxeterElement) -> CoxeterElement:
        """Least upper bound in weak order."""
        target = self.mask(u) | self.mask(v)
        ub = [i for i, m in enumerate(self.masks) if target & ~m == 0]
        return self.elements[self._extreme(ub, want_min=True)]

    def meet(self, u: CoxeterElement, v: CoxeterElement) -> CoxeterElement:
        """Greatest lower bound in weak order."""
        cap = self.mask(u) & self.mask(v)
        lb = [i for i, m in enumerate(self.masks) if m & ~cap == 0]
        return self.elements[self._extreme(lb, want_min=False)]

    def join_all(self, us: list[CoxeterElement] | tuple[CoxeterElement, ...]) -> CoxeterElement:
        """Join of a finite set; the empty join is the identity (min of the lattice)."""
        out = self.identity_element()
        for u in us:
            out = self.join(out, u)
        return out

    def _join_table(self) -> list[list[int]]:
        """Pairwise join table (indices), built once per poset."""
        table = getattr(self, "_join_table_cache", None)
        if table is None:
            n = len(self.elements)
            table = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    k = self.index(self.join(self.elements[i], self.elements[j]))
                    table[i][j] = table[j][i] = k
            self._join_table_cache = table
        return table

    def validate_lattice(self) -> None:
        """Check every pair has a unique join and meet.  Quadratic; use on small ranks."""
        for i, u in enumerate(self.elements):
            for v in self.elements[i + 1 :]:
                self.join(u, v)
                self.meet(u, v)

    def hasse_edges(self) -> list[tuple[CoxeterElement, CoxeterElement]]:
        """Covering pairs (upper, lower); lower covers of w are w s_d for d in des(w)."""
        edges = []
        for w in self.elements:
            for d in sorted(descents(w)):
                edges.append((w, multiply(w, simple_reflection(self.dynkin, d))))
        edges.sort(key=lambda e: (e[0].window, e[1].window))
        return edges

    def hasse_dot(self) -> str:
        lines = [f'digraph "{self.dynkin}" {{']
        for w in self.elements:
            lines.append(f'  "{w}";')
        for upper, lower in self.hasse_edges():
            lines.append(f'  "{upper}" -> "{lower}";')
        lines.append("}")
        return "\n".join(lines)

    def cjr_oracle(self, w: CoxeterElement) -> frozenset[CoxeterElement]:
        """Canonical join representation by brute force.

        For each cover reflection t of w the set {v <= w : t in inv(v)} must
        have a unique minimal element; their collection is the CJR.  A
        non-unique minimal element would contradict the semidistributivity
        of the weak order, so it raises LatticeError.
        """
        wi = self.mask(w)
        out = set()
        for t in cover_reflections(w):
            tb = 1 << self._refl_bit[t]
            cand = [
                i
                for i, m in enumerate(self.masks)
                if m & ~wi == 0 and m & tb
            ]
            minimal = [
                i
                for i in cand
                if not any(j != i and self.masks[j] & ~self.masks[i] == 0 for j in cand)
            ]
            if len(minimal) != 1:
                raise LatticeError(
                    f"{len(minimal)} minimal elements below {w} containing {t}"
                )
            out.add(self.elements[minimal[0]])
        return frozenset(out)

    def verify_cjr_definition(
        self, w: CoxeterElement, candidate: frozenset[CoxeterElement] | set[CoxeterElement]
    ) -> bool:
        """Check the definition of a canonical join representation directly.

        (a) join(candidate) == w, (b) no proper subset joins to w, and
        (c) every antichain V of join-irreducibles <= w satisfying (a),(b)
        refines candidate from above.  Restricting (c) to join-irreducible
        antichains is complete: replacing each member of an arbitrary
        witness V by its own CJR and pruning yields a join-irreducible
        witness whose members sit below the originals.
        """
        if len(self.elements) > VERIFY_CJR_CAP:
            raise CapacityError(
                f"verify_cjr_definition is capped at {VERIFY_CJR_CAP} elements; "
                f"{self.dynkin} has {len(self.elements)}"
            )
        table = self._join_table()
        id_idx = self.index(self.identity_element())
        w_idx = self.index(w)

        def join_idx(indices: tuple[int, ...]) -> int:
            out = id_idx
            for i in indices:
                out = table[out][i]
            return out

        cand = tuple(self.index(u) for u in sorted(candidate))
        if join_idx(cand) != w_idx:
            return False
        for r in range(len(cand)):
            for sub in itertools.combinations(cand, r):
                if join_idx(sub) == w_idx:
                    return False
        below = [
            self.index(u) for u in self.join_irreducibles() if self.leq(u, w)
        ]

        def leq_idx(i: int, j: int) -> bool:
            return self.masks[i] & ~self.masks[j] == 0

        for r in range(1, len(below) + 1):
            for vs in itertools.combinations(below, r):
                if any(x != y and leq_idx(x, y) for x in vs for y in vs):
                    continue
                if join_idx(vs) != w_idx:
                    continue
                if any(
                    join_idx(tuple(v for v in vs if v != skip)) == w_idx
                    for skip in vs
                ):
                    continue
                for u in cand:
                    if not any(leq_idx(u, v) for v in vs):
                        return False
        return True
