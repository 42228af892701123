"""Grid bases of the projectives Pi e_l and of the modules J(w).

Each indecomposable projective has a basis indexed by pairs (i, j): j labels
a row, i the entry inside the row, and every arrow of the double quiver acts
by shifting within this index set (coefficient +1, except for one family of
-1 arrows in the type-D, l >= 2 pattern).  A join-irreducible element w with
unique descent l selects the subset Gamma(w) of kept entries, and J(w) is
the corresponding quotient grid: arrows send a kept entry to its shifted
neighbour, or to zero when the neighbour is deleted.

Index conventions per pattern:

* type A, descent l:     rows j in [l, n], row j holds i in [max(1, j-l+1), j];
  entry (i, j) sits at vertex i.
* type D, l = +-1:       rows j in {l} union [2, n-1]; row l holds only (l, l),
  row j >= 2 holds i in [2, j] plus the single sign iota(j) in {+1, -1} that
  alternates row by row.
* type D, l >= 2:        rows j in [l, n-1], row j holds the signed entries
  i in [j-(n-1)-l, j] minus 0 (clamped to +-[1, n-1]); both +1 and -1 occur
  in every row, and the basis depends on a sign epsilon: the +-1 entry equal
  to upper(j) = epsilon*(-1)^(j-l+1) maps straight to (-2, j) while its twin
  picks up a -1 and an extra vertical term.

Entry (i, j) sits at vertex `quiver.symbol_vertex(i)`: at i when |i| = 1
and at |i| otherwise.  `_grid_images` lists each entry's shifted neighbours
and names no arrow; `quiver.rep_from_basis_action` finds each arrow from
the two vertices and reads a deleted neighbour as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from coxbrick.coxeter import CoxeterElement, DynkinType, Family, join_irreducible_type
# importable as grids.subrepresentation, which benchmark/test_benchmark.py reads
from coxbrick.homs import subrepresentation  # noqa: F401
from coxbrick.quiver import (
    QuiverRepresentation,
    double_quiver,
    rep_from_basis_action,
    symbol_vertex,
)

GridKey = tuple[int, int]  # (entry i, row j)


class UnsupportedCaseError(Exception):
    """The fast kernel route is not available for this element."""


@dataclass(frozen=True)
class GammaGrid:
    """The index set of one grid basis (with the sign choice for D, l >= 2)."""

    dynkin: DynkinType
    l: int
    entries: frozenset[GridKey]
    eps: int = 1


def _rows(dynkin: DynkinType, l: int) -> list[int]:
    n = dynkin.window_size
    if abs(l) == 1:
        return [l] + list(range(2, n))
    return list(range(l, n))


def _row_entries(dynkin: DynkinType, l: int, j: int) -> list[int]:
    n = dynkin.rank
    if dynkin.family is Family.A:
        return list(range(max(1, j - l + 1), j + 1))
    if abs(l) == 1:
        if abs(j) == 1:
            return [l]
        iota = -l if j % 2 == 0 else l
        return [iota] + list(range(2, j + 1))
    lo = max(j - (n - 1) - l, -(n - 1))
    return [i for i in range(lo, j + 1) if i != 0]


def _successor_rows(dynkin: DynkinType, l: int) -> dict[int, int]:
    """Each row of the grid of Pi e_l mapped to the row after it (the last
    row maps nowhere)."""
    rows = _rows(dynkin, l)
    return dict(zip(rows, rows[1:]))


def gamma_full(dynkin: DynkinType, l: int, eps: int = 1) -> GammaGrid:
    """Gamma[l]: the full index set of Pi e_l."""
    if l not in dynkin.vertices:
        raise ValueError(f"{l} is not a vertex of {dynkin}")
    entries = {
        (i, j) for j in _rows(dynkin, l) for i in _row_entries(dynkin, l, j)
    }
    return GammaGrid(dynkin, l, frozenset(entries), eps)


def epsilon_for(w: CoxeterElement) -> int:
    """Sign choice of the grid basis of J(w) for type D, descent l >= 2."""
    l = join_irreducible_type(w)
    assert l is not None and l >= 2
    n = w.dynkin.rank
    if w(l + 1) >= 2:
        return 1
    m = max(k for k in range(l + 1, n + 1) if w(k) <= 1)
    sign = -1 if (m - (l + 1)) % 2 else 1
    return sign * (w(m) if abs(w(m)) == 1 else 1)


def gamma_of(w: CoxeterElement) -> GammaGrid:
    """Gamma(w): kept entries of the grid of J(w)."""
    l = join_irreducible_type(w)
    if l is None:
        raise ValueError(f"{w} is not join-irreducible")
    dynkin = w.dynkin
    eps = 1
    if dynkin.family is Family.D and l >= 2:
        eps = epsilon_for(w)
    kept = []
    for j in _rows(dynkin, l):
        # one threshold t = w(|j| + 1) per row: row j keeps i >= t when
        # |l| = 1; when l >= 2 it keeps i >= t if t >= 2, i > t if t <= -2,
        # and t itself with every i >= 2 if t = +-1
        lo = t = w(abs(j) + 1)
        extra = None
        if abs(l) != 1 and t < 2:
            lo, extra = (2, t) if abs(t) == 1 else (t + 1, None)
        kept += [(i, j) for i in _row_entries(dynkin, l, j) if i >= lo or i == extra]
    return GammaGrid(dynkin, l, frozenset(kept), eps)


def _grid_images(grid: GammaGrid) -> dict[GridKey, list[tuple[int, GridKey]]]:
    """The images of each grid entry under the arrows into its vertex."""
    dynkin, l, eps = grid.dynkin, grid.l, grid.eps

    def upper(j: int) -> int:
        return eps * (-1 if (j - l + 1) % 2 else 1)

    twins = dynkin.family is Family.D and l >= 2
    next_row = _successor_rows(dynkin, l)
    images: dict[GridKey, list[tuple[int, GridKey]]] = {}
    for (i, j) in grid.entries:
        nxt = next_row.get(j)
        out = images[i, j] = []
        if i >= 2 or not twins:
            # alpha_{i-1} walks left in the row (to both of +-1 from i = 2),
            # beta_{i+1} drops a row.
            if i >= 3:
                out.append((1, (i - 1, j)))
            elif i == 2:
                out += [(1, (1, j)), (1, (-1, j))]
            if nxt is not None:
                out.append((1, (abs(i) + 1, nxt)))
        elif abs(i) == 1:
            # of the twin entries +-1 of a row only upper(j) maps straight down
            if i == upper(j):
                out.append((1, (-2, j)))
            else:
                out.append((-1, (-2, j)))
                if nxt is not None:
                    out.append((1, (2, nxt)))
        else:  # i <= -2
            if nxt is not None:
                out.append((1, (upper(nxt) if i == -2 else i + 1, nxt)))
            out.append((1, (i - 1, j)))
    return images


def _rep_on(dynkin: DynkinType, keys, images) -> QuiverRepresentation:
    """The relation-checked representation on the basis `keys`, each arrow
    acting by `images` (an image outside `keys` reads as zero)."""
    vertex_of = {key: symbol_vertex(key[0]) for key in keys}
    rep = rep_from_basis_action(double_quiver(dynkin), vertex_of, images)
    rep.check_relations()
    return rep


def _grid_rep(grid: GammaGrid) -> QuiverRepresentation:
    return _rep_on(grid.dynkin, grid.entries, _grid_images(grid))


def projective_rep(dynkin: DynkinType, l: int) -> QuiverRepresentation:
    """The indecomposable projective Pi e_l as an exact representation."""
    return _grid_rep(gamma_full(dynkin, l))


def j_module(w: CoxeterElement) -> QuiverRepresentation:
    """J(w) for a join-irreducible w, on the kept-grid basis."""
    return _grid_rep(gamma_of(w))


def kernel_socle(w: CoxeterElement) -> QuiverRepresentation:
    """S(w) as the kernel of right multiplication by a fixed loop.

    Supported for type A and for type D with descent +-1, where the loop
    shifts the grid index: (i, j) -> (i, j+1) in type A, and two rows down
    (same i) in type D.  The kernel is spanned by the kept entries whose
    shift leaves Gamma(w), so it is built on those entries straight from
    the grid's images, without building J(w).  Each arrow must map the
    kernel into itself: an entry's images under one arrow are summed, and a
    nonzero sum on a kept entry outside the kernel raises ValueError("subspace
    not invariant under <arrow>"), as `homs.subrepresentation` does.  The
    result is relation-checked.  For type D with l >= 2 the generic socle
    oracle must be used instead.
    """
    l = join_irreducible_type(w)
    if l is None:
        raise ValueError(f"{w} is not join-irreducible")
    dynkin = w.dynkin
    if dynkin.family is Family.D and l >= 2:
        raise UnsupportedCaseError(
            "kernel route is only implemented for type A and type D with l = +-1"
        )
    grid = gamma_of(w)
    next_row = _successor_rows(dynkin, l)

    def shifted_out(i: int, j: int) -> bool:
        if dynkin.family is Family.A:
            return (i, j + 1) not in grid.entries
        nxt2 = next_row.get(next_row.get(j))
        return nxt2 is None or (i, nxt2) not in grid.entries

    kernel = {key for key in grid.entries if shifted_out(*key)}
    images = _grid_images(grid)
    leaks = set()  # (u, v) of each arrow u -> v that maps the kernel out of itself
    for key in kernel:
        summed: dict[GridKey, int] = {}
        for coeff, image in images[key]:
            if image in grid.entries and image not in kernel:
                summed[image] = summed.get(image, 0) + coeff
        v = symbol_vertex(key[0])
        leaks.update((symbol_vertex(image[0]), v) for image, y in summed.items() if y)
    for arrow in double_quiver(dynkin).arrows:
        if (arrow.src, arrow.tgt) in leaks:
            raise ValueError(f"subspace not invariant under {arrow.name}")
    return _rep_on(dynkin, kernel, images)
