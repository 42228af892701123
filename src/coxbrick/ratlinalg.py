"""Exact linear algebra over the rationals, on one sparse elimination.

`rref` is Gauss-Jordan elimination on sparse rows: lists of dicts
{column: value} that hold only the nonzero entries.  The Hom systems of this
package are mostly zeros with 0/+-1 coefficients, so values stay Python
`int` while every pivot met is +-1 and become `fractions.Fraction` only when
a pivot is not.  Arithmetic is exact throughout; there are no tolerances.

The rest of the package passes dense matrices around (tuples of tuples of
`Fraction`).  `nullspace`, `row_space_rref`, `solve_exact`, `rank` and
`invertible` convert at the boundary, and every vector or matrix they return holds `Fraction`
entries.
"""

from __future__ import annotations

from fractions import Fraction

Mat = tuple[tuple[Fraction, ...], ...]
Vec = tuple[Fraction, ...]
Row = dict[int, "int | Fraction"]  # sparse row: column -> nonzero value

ZERO = Fraction(0)
ONE = Fraction(1)


def mat(rows: list[list]) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zeros(nrows: int, ncols: int) -> Mat:
    return tuple((ZERO,) * ncols for _ in range(nrows))


def shape(a: Mat) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def mat_mul(a: Mat, b: Mat) -> Mat:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch: {ra}x{ca} times {rb}x{cb}")
    out = []
    for row in a:
        acc = [ZERO] * cb
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_add(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ValueError("shape mismatch in addition")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a: Mat) -> Mat:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def is_zero(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def sparse(a) -> list[Row]:
    """Sparse rows of a dense matrix; integral entries become `int`."""
    return [
        {c: x.numerator if x.denominator == 1 else x for c, x in enumerate(row) if x}
        for row in a
    ]


def subtract_multiple(target: Row, f, row: Row) -> None:
    """target -= f * row, in place, keeping only nonzero entries."""
    for k, x in row.items():
        y = target.get(k, 0) - f * x
        if y:
            target[k] = y
        else:
            del target[k]


def rref(rows: list[Row]) -> tuple[list[Row], tuple[int, ...]]:
    """Reduced row echelon form of sparse rows, and its pivot columns.

    Each row in turn is reduced by the pivot rows found so far; its smallest
    remaining column becomes a new pivot, which is then cleared from the
    earlier pivot rows.  Every pivot so chosen leads some vector of the row
    space, so the pivots are exactly the RREF's and the result is the unique
    RREF: its nonzero rows in pivot order, each with a 1 at its pivot.  The
    input rows are left unchanged.
    """
    tails: dict[int, Row] = {}  # pivot column -> its row without the pivot 1
    for row in rows:
        r = dict(row)
        for c in [c for c in r if c in tails]:
            subtract_multiple(r, r.pop(c), tails[c])
        if not r:
            continue
        p = min(r)
        pv = r.pop(p)
        if pv == -1:
            r = {k: -x for k, x in r.items()}
        elif pv != 1:
            inv = ONE / pv
            r = {k: x * inv for k, x in r.items()}
        for t in tails.values():
            if p in t:
                subtract_multiple(t, t.pop(p), r)
        tails[p] = r
    pivots = tuple(sorted(tails))
    return [{p: 1, **tails[p]} for p in pivots], pivots


def rank(a: Mat) -> int:
    return len(rref(sparse(a))[1])


def nullspace(rows: list[Row], ncols: int) -> list[Vec]:
    """Basis of {x : rows . x = 0} in `ncols` unknowns, one vector per free
    column of the RREF."""
    reduced, pivots = rref(rows)
    basis = []
    for free in sorted(set(range(ncols)).difference(pivots)):
        v = [ZERO] * ncols
        v[free] = ONE
        for p, row in zip(pivots, reduced):
            if free in row:
                v[p] = Fraction(-row[free])
        basis.append(tuple(v))
    return basis


def row_space_rref(rows: list[Vec]) -> Mat:
    """Canonical (RREF, zero rows dropped) basis of the span of the given rows."""
    ncols = len(rows[0]) if rows else 0
    return tuple(
        tuple(Fraction(row.get(c, 0)) for c in range(ncols)) for row in rref(sparse(rows))[0]
    )


def solve_exact(a: Mat, b: Vec) -> Vec | None:
    """One solution of a x = b, or None when inconsistent."""
    ncols = shape(a)[1]
    reduced, pivots = rref(sparse(tuple(row) + (y,) for row, y in zip(a, b)))
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = Fraction(row.get(ncols, 0))
    return tuple(x)


def same_row_space(rows_a: list[Vec], rows_b: list[Vec]) -> bool:
    return row_space_rref(rows_a) == row_space_rref(rows_b)


def invertible(a: Mat) -> bool:
    nrows, ncols = shape(a)
    return nrows == ncols and rank(a) == nrows
