"""Small exact linear algebra kit over the rationals.

Matrices are tuples of tuples of `fractions.Fraction`; everything is
Gauss-Jordan on exact arithmetic, so there are no tolerances anywhere.
Sizes in this package stay in the tens, which keeps this comfortably fast.
"""

from __future__ import annotations

from fractions import Fraction

Mat = tuple[tuple[Fraction, ...], ...]
Vec = tuple[Fraction, ...]

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
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(sum((a[i][k] * bt[j][k] for k in range(ca)), ZERO) for j in range(cb))
        for i in range(ra)
    )


def mat_add(a: Mat, b: Mat) -> Mat:
    if shape(a) != shape(b):
        raise ValueError("shape mismatch in addition")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a: Mat) -> Mat:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def is_zero(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns."""
    nrows, ncols = shape(a)
    m = [list(row) for row in a]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def nullspace(a: Mat) -> list[Vec]:
    """Basis of {x : a x = 0}, one vector per free column of the RREF."""
    nrows, ncols = shape(a)
    if ncols == 0:
        return []
    r, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][free]
        basis.append(tuple(v))
    return basis


def row_space_rref(rows: list[Vec]) -> Mat:
    """Canonical (RREF, zero rows dropped) basis of the span of the given rows."""
    if not rows:
        return ()
    reduced, pivots = rref(tuple(rows))
    return reduced[: len(pivots)]


def same_row_space(rows_a: list[Vec], rows_b: list[Vec]) -> bool:
    return row_space_rref(rows_a) == row_space_rref(rows_b)


def solve_exact(a: Mat, b: Vec) -> Vec | None:
    """One solution of a x = b, or None when inconsistent."""
    nrows, ncols = shape(a)
    aug = tuple(tuple(a[i]) + (b[i],) for i in range(nrows))
    r, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx][ncols]
    return tuple(x)


def invertible(a: Mat) -> bool:
    nrows, ncols = shape(a)
    return nrows == ncols and rank(a) == nrows
