"""Dense matrices, dense Gauss-Jordan elimination and the dense Hom
computations built on them.

The test oracle for the sparse layer in `coxbrick.ratlinalg`, `quiver` and
`homs`: matrices are tuples of tuples of `Fraction`, every entry is carried
through every row operation, and the Hom system and the radical's Gram
matrix are formed literally (dense equation rows, products of basis
elements).  `dense`, `dense_mats` and `dense_hom` give the dense view of the
package's sparse rows, and `sparse` the sparse rows of a dense matrix.
"""

from __future__ import annotations

from fractions import Fraction

from coxbrick.ratlinalg import integral

ZERO = Fraction(0)
ONE = Fraction(1)

Mat = tuple[tuple[Fraction, ...], ...]
Vec = tuple[Fraction, ...]


def mat(rows: list[list]) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def shape(a: Mat) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def dense(rows, ncols: int) -> Mat:
    """Dense view of sparse rows with `ncols` columns."""
    return tuple(tuple(Fraction(row.get(c, 0)) for c in range(ncols)) for row in rows)


def sparse(a) -> list[dict]:
    """Sparse rows of a dense matrix; integral entries become `int`."""
    return [{c: integral(x) for c, x in enumerate(row) if x} for row in a]


def dense_mats(rep) -> dict[str, Mat]:
    """Dense view of every arrow matrix of a representation."""
    return {a.name: dense(rep.mats[a.name], rep.dims.get(a.tgt, 0)) for a in rep.quiver.arrows}


def dense_hom(f: dict, m) -> dict[int, Mat]:
    """Dense view of a homomorphism out of `m` (block v has m.dims[v] columns)."""
    return {v: dense(block, m.dims.get(v, 0)) for v, block in f.items()}


def zeros(nrows: int, ncols: int) -> Mat:
    return tuple((ZERO,) * ncols for _ in range(nrows))


def is_zero(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


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


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form (zero rows kept at the bottom) and the pivot columns."""
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


def relation_vanishes(rep, relation) -> bool:
    """Whether sum(coeff * word action) over a relation is the zero matrix,
    each word multiplied out densely in word order.  A word through a
    zero-dimensional block acts as an explicit zero matrix of the right
    shape."""
    mats = dense_mats(rep)
    arrows = {a.name: a for a in rep.quiver.arrows}
    total = None
    for coeff, word in relation:
        blocks = [arrows[word[0]].src] + [arrows[name].tgt for name in word]
        rows, cols = rep.dims.get(blocks[0], 0), rep.dims.get(blocks[-1], 0)
        if any(rep.dims.get(b, 0) == 0 for b in blocks):
            product = zeros(rows, cols)
        else:
            product = mats[word[0]]
            for name in word[1:]:
                product = mat_mul(product, mats[name])
        term = mat_scale(coeff, product)
        total = term if total is None else mat_add(total, term)
    return is_zero(total)


def compose_homs(g: dict, f: dict) -> dict:
    """g after f, blockwise."""
    return {v: mat_mul(g[v], f[v]) for v in g}


def hom_trace(f: dict) -> Fraction:
    return sum((f[v][i][i] for v in f for i in range(len(f[v]))), ZERO)


def hom_basis(m, n) -> list[dict]:
    """Basis of Hom(m, n) from dense equation rows, on the dense view of the
    arrow matrices."""
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

    m_mats, n_mats = dense_mats(m), dense_mats(n)
    equations = []
    for arrow in m.quiver.arrows:
        u, v = arrow.src, arrow.tgt
        am, an = m_mats[arrow.name], n_mats[arrow.name]
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
                piece = mat_scale(c, b[v])
                acc = piece if acc is None else mat_add(acc, piece)
            f[v] = acc
        out.append(f)
    return out
