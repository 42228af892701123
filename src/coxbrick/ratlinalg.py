"""Exact linear algebra over the rationals, on sparse rows.

A matrix is a tuple of sparse rows: dicts {column: value} that hold only the
nonzero entries, so a row's length is not stored and the column count comes
from the caller (for a representation, from its dimension vector).  Values
are Python `int`, or `fractions.Fraction` where a value is not integral.
The representations and Hom systems of this package are mostly zeros with
0/+-1 coefficients, so `rref` keeps values `int` while every pivot met is
+-1 and promotes to `Fraction` only when a pivot is not.  Arithmetic is exact
throughout; there are no tolerances.  Dense matrices appear only at the JSON
boundary (`sparse` reads one).
"""

from __future__ import annotations

from fractions import Fraction

Row = dict[int, "int | Fraction"]  # sparse row: column -> nonzero value
Mat = tuple[Row, ...]  # sparse matrix: one row per row

ONE = Fraction(1)


def integral(x):
    """`x` as an `int` when it is integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def sparse(a) -> list[Row]:
    """Sparse rows of a dense matrix; integral entries become `int`."""
    return [{c: integral(x) for c, x in enumerate(row) if x} for row in a]


def mat_mul(a: Mat, b: Mat) -> Mat:
    """The product a * b of sparse matrices, row by row of `a`."""
    out = []
    nb = len(b)
    for row in a:
        acc: Row = {}
        for k, x in row.items():
            if k >= nb:
                raise ValueError(f"shape mismatch: column {k} times {nb} rows")
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: z for j, z in acc.items() if z})
    return tuple(out)


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


def rank(rows: list[Row] | Mat) -> int:
    return len(rref(rows)[1])


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of {x : rows . x = 0} in `ncols` unknowns as sparse vectors, one
    per free column of the RREF (1 there, minus the RREF's column at the
    pivots)."""
    reduced, pivots = rref(rows)
    basis = []
    for free in sorted(set(range(ncols)).difference(pivots)):
        v: Row = {free: 1}
        for p, row in zip(pivots, reduced):
            if free in row:
                v[p] = integral(-row[free])
        basis.append(v)
    return basis
