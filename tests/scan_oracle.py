"""List-scan join, meet and CJR on a `GroupPoset`: the reference for its bitsets.

The test oracle for the bit-sliced queries in `coxbrick.weak_order`: every
query walks the tuple of inversion masks one element at a time, a join of
many elements folds the pairwise join from the identity, and the CJR keeps
the quadratic minimal-element scan.  Results and `LatticeError`
messages are the ones `GroupPoset` must reproduce.  The element-level
references kept beside them (`weak_leq` on inversion sets, `cover_reflections`
as `Reflection`s, `inverse_at` by a scan of the window) are what the
package's own queries (`GroupPoset.leq`, `cover_pairs`) are tested against.
"""

from __future__ import annotations

from coxbrick.coxeter import CoxeterElement, Family, Reflection, cover_pairs, inversions
from coxbrick.weak_order import GroupPoset, LatticeError


def weak_leq(u: CoxeterElement, w: CoxeterElement) -> bool:
    """Right weak order: u <= w iff inv(u) is contained in inv(w)."""
    if u.dynkin != w.dynkin:
        raise ValueError(f"mismatched types {u.dynkin} and {w.dynkin}")
    return inversions(u) <= inversions(w)


def cover_reflections(w: CoxeterElement) -> frozenset[Reflection]:
    """cov(w) = {w s_d w^{-1} : d in des(w)}, normalised per type."""
    return frozenset(Reflection(a, b) for a, b in cover_pairs(w))


def inverse_at(w: CoxeterElement, value: int) -> int:
    """Position of a value, i.e. w^{-1}(value); extended by w^{-1}(-x) = -w^{-1}(x)."""
    for i, v in enumerate(w.window, start=1):
        if v == value:
            return i
        if w.dynkin.family is Family.D and v == -value:
            return -i
    raise ValueError(f"value {value} not in window {w.window}")


def extreme(poset: GroupPoset, candidates: list[int], want_min: bool) -> int:
    """Index of the unique minimum (or maximum) of a list of indices."""
    masks = poset.masks
    if not candidates:
        raise LatticeError("empty candidate set")
    if want_min:
        best = min(candidates, key=lambda i: masks[i].bit_count())
        ok = all(masks[best] & ~masks[i] == 0 for i in candidates)
    else:
        best = max(candidates, key=lambda i: masks[i].bit_count())
        ok = all(masks[i] & ~masks[best] == 0 for i in candidates)
    if not ok:
        raise LatticeError("no unique extreme element; lattice property violated")
    return best


def join(poset: GroupPoset, u: CoxeterElement, v: CoxeterElement) -> CoxeterElement:
    target = poset.mask(u) | poset.mask(v)
    ub = [i for i, m in enumerate(poset.masks) if target & ~m == 0]
    return poset.elements[extreme(poset, ub, want_min=True)]


def join_all(poset: GroupPoset, us) -> CoxeterElement:
    """The pairwise scan `join` folded over `us`, starting from the identity."""
    out = poset.identity_element()
    for u in us:
        out = join(poset, out, u)
    return out


def meet(poset: GroupPoset, u: CoxeterElement, v: CoxeterElement) -> CoxeterElement:
    cap = poset.mask(u) & poset.mask(v)
    lb = [i for i, m in enumerate(poset.masks) if m & ~cap == 0]
    return poset.elements[extreme(poset, lb, want_min=False)]


def cjr_oracle(poset: GroupPoset, w: CoxeterElement) -> frozenset[CoxeterElement]:
    masks = poset.masks
    wi = poset.mask(w)
    out = set()
    for t in cover_reflections(w):
        tb = 1 << poset._pair_bit[t.a, t.b]
        cand = [i for i, m in enumerate(masks) if m & ~wi == 0 and m & tb]
        minimal = [
            i
            for i in cand
            if not any(j != i and masks[j] & ~masks[i] == 0 for j in cand)
        ]
        if len(minimal) != 1:
            raise LatticeError(f"{len(minimal)} minimal elements below {w} containing {t}")
        out.add(poset.elements[minimal[0]])
    return frozenset(out)
