"""Dense Gauss-Jordan elimination and the dense Hom computations built on it.

The test oracle for the sparse kernel in `coxbrick.ratlinalg`: matrices are
tuples of tuples of `Fraction`, every entry is carried through every row
operation, and the Hom system and the radical's Gram matrix are formed
literally (dense equation rows, products of basis elements).
"""

from __future__ import annotations

from fractions import Fraction

from coxbrick import ratlinalg as rl
from coxbrick.ratlinalg import ONE, ZERO, Mat, Vec


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form (zero rows kept at the bottom) and the pivot columns."""
    nrows, ncols = rl.shape(a)
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


def nullspace(a: Mat, ncols: int) -> list[Vec]:
    """Basis of {x : a x = 0}, one vector per free column of the RREF."""
    if ncols == 0:
        return []
    r, pivots = rref(a)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][free]
        basis.append(tuple(v))
    return basis


def compose_homs(g: dict, f: dict) -> dict:
    """g after f, blockwise."""
    return {v: rl.mat_mul(g[v], f[v]) for v in g}


def hom_trace(f: dict) -> Fraction:
    return sum((f[v][i][i] for v in f for i in range(len(f[v]))), ZERO)


def hom_basis(m, n) -> list[dict]:
    """Basis of Hom(m, n) from dense equation rows."""
    vertices = m.quiver.vertices
    offsets: dict[int, int] = {}
    total = 0
    for v in vertices:
        offsets[v] = total
        total += n.dims.get(v, 0) * m.dims.get(v, 0)
    if total == 0:
        return []

    def unknown(v: int, row: int, col: int) -> int:
        return offsets[v] + row * m.dims[v] + col

    equations = []
    for arrow in m.quiver.arrows:
        u, v = arrow.src, arrow.tgt
        am, an = m.mats[arrow.name], n.mats[arrow.name]
        for r in range(n.dims.get(u, 0)):
            for c in range(m.dims.get(v, 0)):
                row = [ZERO] * total
                for k in range(m.dims.get(u, 0)):
                    row[unknown(u, r, k)] += am[k][c]
                for k in range(n.dims.get(v, 0)):
                    row[unknown(v, k, c)] -= an[r][k]
                if any(x != 0 for x in row):
                    equations.append(tuple(row))

    basis = []
    for sol in nullspace(tuple(equations), total):
        f = {}
        for v in vertices:
            rows_n, cols_m = n.dims.get(v, 0), m.dims.get(v, 0)
            f[v] = tuple(
                tuple(sol[offsets[v] + r * cols_m + c] for c in range(cols_m))
                for r in range(rows_n)
            )
        basis.append(f)
    return basis


def radical_basis(end_basis: list[dict]) -> list[dict]:
    """Kernel of the Gram matrix [trace(b_i . b_j)], from the products."""
    k = len(end_basis)
    if k == 0:
        return []
    gram = tuple(
        tuple(hom_trace(compose_homs(end_basis[i], end_basis[j])) for j in range(k))
        for i in range(k)
    )
    out = []
    for coeffs in nullspace(gram, k):
        f = {}
        for v in end_basis[0]:
            acc = None
            for c, b in zip(coeffs, end_basis):
                piece = rl.mat_scale(c, b[v])
                acc = piece if acc is None else rl.mat_add(acc, piece)
            f[v] = acc
        out.append(f)
    return out
