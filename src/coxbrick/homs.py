"""Hom spaces, endomorphism algebras, radicals, and socles, exactly over Q.

A homomorphism f: M -> N is a family of matrices f_v (one per vertex) with
f_u * M(g) = N(g) * f_v for every arrow g: u -> v (matrices act per the
convention in `coxbrick.quiver`).  The radical of an endomorphism algebra is
computed with the characteristic-zero trace-form criterion: x is radical iff
trace(x . y) vanishes for every y in a basis.  This is valid because the
algebra acts faithfully on the module and the ground field is Q; positive
characteristic is deliberately out of scope.

`hom_vanishes` settles Hom(M, N) = 0 without a Hom system, from vertex
sets alone: when the top of M or the socle of N misses the vertices where
a common quotient of M and submodule of N can be nonzero.  It reads the
vertex sets that `vertex_sets` computes once per module, with exact ranks.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from coxbrick import ratlinalg as rl
from coxbrick.coxeter import DynkinType
from coxbrick.quiver import QuiverRepresentation, double_quiver
from coxbrick.ratlinalg import Mat

Hom = dict[int, Mat]  # vertex -> block matrix, in the sparse rows of `coxbrick.quiver`


def hom_basis(m: QuiverRepresentation, n: QuiverRepresentation) -> list[Hom]:
    """Basis of Hom(m, n) as vertex-indexed matrix families.

    The unknowns are the entries of the blocks f_v, row by row and vertex by
    vertex; each arrow contributes one sparse equation per entry of
    f_u * m(g) - n(g) * f_v, read off the columns of m(g) and the rows of
    n(g).  Block f_v has n.dims[v] rows and m.dims[v] columns.
    """
    if m.quiver != n.quiver:
        raise ValueError("representations live over different quivers")
    vertices = m.quiver.vertices
    offsets: dict[int, int] = {}
    total = 0
    for v in vertices:
        offsets[v] = total
        total += n.dims.get(v, 0) * m.dims.get(v, 0)
    if total == 0:
        return []

    equations: list[rl.Row] = []
    for arrow in m.quiver.arrows:
        u, v = arrow.src, arrow.tgt
        mu, mv = m.dims.get(u, 0), m.dims.get(v, 0)
        an_rows = n.mats[arrow.name]
        if not (an_rows and mv):
            continue  # f_u * m(g) - n(g) * f_v has no entries
        am_cols = rl.transpose(m.mats[arrow.name], mv)
        # an entry (r, c) with column c of m(g) and row r of n(g) both empty reads 0 = 0
        nonempty = [(c, am_col) for c, am_col in enumerate(am_cols) if am_col]
        for r, an_row in enumerate(an_rows):
            first = offsets[u] + r * mu
            for c, am_col in enumerate(am_cols) if an_row else nonempty:
                row = {first + k: x for k, x in am_col.items()}
                for k, x in an_row.items():
                    row[offsets[v] + k * mv + c] = -x
                equations.append(row)

    solutions = rl.nullspace(equations, total)
    if not solutions:
        return []
    unknown = [
        (v, r, c)
        for v in vertices
        for r in range(n.dims.get(v, 0))
        for c in range(m.dims.get(v, 0))
    ]
    basis = []
    for sol in solutions:
        f = {v: [{} for _ in range(n.dims.get(v, 0))] for v in vertices}
        for i, x in sol.items():
            v, r, c = unknown[i]
            f[v][r][c] = x
        basis.append({v: tuple(rows) for v, rows in f.items()})
    return basis


def hom_dim(m: QuiverRepresentation, n: QuiverRepresentation) -> int:
    return len(hom_basis(m, n))


class VertexSets(NamedTuple):
    """Where a module lives, at the level of vertices.

    `support`, `top` (m / rad m) and `socle` are vertex sets.  For a vertex
    v of the support, `generated[v]` lists, as sorted tuples, the minimal
    sets X of support neighbours whose arrows into v have images spanning
    m_v, and `faithful[v]` the minimal sets X whose arrows out of v have no
    common kernel on m_v; v is a top vertex exactly when `generated[v]` is
    empty, and a socle vertex exactly when `faithful[v]` is.
    """

    support: frozenset[int]
    top: frozenset[int]
    socle: frozenset[int]
    generated: dict[int, tuple[tuple[int, ...], ...]]
    faithful: dict[int, tuple[tuple[int, ...], ...]]


def vertex_sets(m: QuiverRepresentation) -> VertexSets:
    """The vertex sets of m, each spanning or kernel test one exact rank.

    An arrow g: u -> v maps the block at v into the block at u, so the
    images into the block at v come from the arrows with g.src == v, and
    the maps out of it are the arrows with g.tgt == v.  Neighbour sets are
    tried by size, skipping those that hold a minimal set already found.
    """
    support = frozenset(v for v in m.quiver.vertices if m.dims.get(v, 0))
    generated, faithful = {}, {}
    for v in support:
        dim = m.dims[v]
        into, out = {}, {}  # neighbour -> the matrix of the arrow into / out of v
        for a in m.quiver.arrows:
            if a.src == v and a.tgt in support:
                into[a.tgt] = a.name
            if a.tgt == v and a.src in support:
                out[a.src] = a.name
        generated[v] = _minimal_sets(
            sorted(into),
            lambda xs: rl.rank(
                [col for x in xs for col in rl.transpose(m.mats[into[x]], m.dims[x]) if col]
            ) == dim,
        )
        faithful[v] = _minimal_sets(
            sorted(out),
            lambda xs: rl.rank([row for x in xs for row in m.mats[out[x]] if row]) == dim,
        )
    top = frozenset(v for v in support if not generated[v])
    socle = frozenset(v for v in support if not faithful[v])
    return VertexSets(support, top, socle, generated, faithful)


def _minimal_sets(items: list[int], holds) -> tuple[tuple[int, ...], ...]:
    """The minimal nonempty subsets of `items` on which the monotone test
    `holds` is true, as sorted tuples (a brick table keeps thousands of
    them, and a tuple takes a quarter of a frozenset's memory)."""
    found: list[tuple[int, ...]] = []
    for k in range(1, len(items) + 1):
        for xs in itertools.combinations(items, k):
            if not any(set(xs).issuperset(x) for x in found) and holds(xs):
                found.append(xs)
    return tuple(found)


def _shrink(support: frozenset[int], allowed: frozenset[int], minimal: dict) -> frozenset[int]:
    """The vertices of `support` left once those outside `allowed` are
    dropped, and then, repeatedly, every vertex with a set of `minimal[v]`
    made of dropped vertices only."""
    kept = support & allowed
    dropped = set(support - allowed)
    if not dropped:  # every set of `minimal` is nonempty
        return kept
    kept = set(kept)
    changed = True
    while changed:
        changed = False
        for v in list(kept):
            for x in minimal[v]:
                if dropped.issuperset(x):
                    kept.remove(v)
                    dropped.add(v)
                    changed = True
                    break
    return frozenset(kept)


def hom_vanishes(m: VertexSets, n: VertexSets) -> bool:
    """True only if Hom(M, N) = 0, read off the vertex sets of M and N.

    A nonzero f: M -> N has a nonzero image I, a quotient of M and a
    submodule of N.  Its top lies in top(M) and its socle in soc(N), both
    nonempty and inside supp(I).  Each vertex set A holding supp(I) gives
    a smaller one:
    - I is a quotient of M / <M_v : v not in A>, which is 0 at every
      vertex whose block is spanned by images from vertices already 0
      there (`generated`);
    - I is a submodule of the largest submodule of N supported in A, which
      is 0 at every vertex whose block is mapped injectively by its arrows
      to vertices where it is already 0 (`faithful`).
    Starting from A = supp(N) and shrinking until A stays put, Hom(M, N) is
    0 when A misses top(M) or soc(N).  The first step alone, top(M)
    missing supp(N) or supp(M) missing soc(N), settles most pairs and is
    tried first.  False settles nothing.
    """
    if m.top.isdisjoint(n.support) or m.support.isdisjoint(n.socle):
        return True
    a = n.support
    while True:
        shrunk = _shrink(n.support, _shrink(m.support, a, m.generated), n.faithful)
        if shrunk == a:
            return m.top.isdisjoint(a) or n.socle.isdisjoint(a)
        a = shrunk


def radical_basis(end_basis: list[Hom]) -> list[Hom]:
    """Radical of the endomorphism algebra spanned by `end_basis`.

    Trace-form criterion (characteristic zero): the radical is the kernel of
    the Gram matrix [trace(b_i . b_j)].  Each trace is the entry pairing
    sum over v, r, c of b_i[v][r][c] * b_j[v][c][r], summed over the
    nonzero entries of b_i; the products themselves are never formed.
    """
    if not end_basis:
        return []
    entries = [
        {
            (v, r, c): x
            for v, block in b.items()
            for r, row in enumerate(block)
            for c, x in row.items()
        }
        for b in end_basis
    ]
    k = len(entries)
    gram: list[rl.Row] = [{} for _ in range(k)]
    for i, ei in enumerate(entries):
        for j in range(i, k):
            ej = entries[j]
            t = sum(x * ej[v, c, r] for (v, r, c), x in ei.items() if (v, c, r) in ej)
            if t:
                gram[i][j] = gram[j][i] = t

    out = []
    for coeffs in rl.nullspace(gram, k):
        acc: dict = {}
        for i, coeff in coeffs.items():
            for key, x in entries[i].items():
                acc[key] = acc.get(key, 0) + coeff * x
        f = {v: [{} for _ in block] for v, block in end_basis[0].items()}
        for (v, r, c), x in acc.items():
            if x:
                f[v][r][c] = rl.integral(x)
        out.append({v: tuple(rows) for v, rows in f.items()})
    return out


def subrepresentation(
    rep: QuiverRepresentation, basis_rows: dict[int, list[rl.Row]]
) -> QuiverRepresentation:
    """Restrict `rep` to the invariant subspace spanned per vertex.

    `basis_rows[v]` lists sparse vectors spanning the subspace at v.  The
    spanning set is canonicalised to reduced echelon form, so equal
    subspaces yield identical representations.  A vector of the span has its
    coordinates in that basis at the basis's pivot columns.  Raises
    ValueError if some arrow does not preserve the subspace.
    """
    bases = {v: rl.rref(basis_rows.get(v, [])) for v in rep.quiver.vertices}
    dims = {v: len(bases[v][0]) for v in rep.quiver.vertices}
    mats = {}
    for arrow in rep.quiver.arrows:
        u, v = arrow.src, arrow.tgt
        action_cols = rl.transpose(rep.mats[arrow.name], rep.dims.get(v, 0))
        target, pivots = bases[u]
        m: list[rl.Row] = [{} for _ in range(dims[u])]
        for col, b in enumerate(bases[v][0]):
            image: rl.Row = {}
            for c, y in b.items():
                rl.subtract_multiple(image, -y, action_cols[c])
            coords = [image.get(p, 0) for p in pivots]
            for i, (y, e) in enumerate(zip(coords, target)):
                if y:
                    rl.subtract_multiple(image, y, e)
                    m[i][col] = rl.integral(y)
            if image:
                raise ValueError(f"subspace not invariant under {arrow.name}")
        mats[arrow.name] = tuple(m)
    return QuiverRepresentation(rep.quiver, dims, mats)


def socle_over_end(m: QuiverRepresentation) -> QuiverRepresentation:
    """The largest subrepresentation killed by the radical of End(m).

    For m = J(w) this is the brick S(w).  The result is a representation on
    the canonical echelon basis of the subspace.  When the radical is zero
    that subspace is all of m, whose echelon basis is the standard one, so
    m itself is returned; otherwise each vertex's kernel is taken over the
    nonempty rows of the radical's blocks only.
    """
    if m.total_dim == 0:
        raise ValueError("socle of the zero module is undefined")
    rad = radical_basis(hom_basis(m, m))
    if not rad:
        return m
    basis_rows = {
        v: rl.nullspace([row for f in rad for row in f[v] if row], m.dims.get(v, 0))
        for v in m.quiver.vertices
    }
    return subrepresentation(m, basis_rows)


def is_brick(m: QuiverRepresentation) -> bool:
    """End one-dimensional over Q, hence a division ring."""
    return m.total_dim > 0 and hom_dim(m, m) == 1


def iso_bricks(m: QuiverRepresentation, n: QuiverRepresentation) -> bool:
    """Whether two bricks are isomorphic; ValueError if either is not a brick.

    The checks, in order: n is a brick; m equals n entry for entry, when the
    identity is the isomorphism and no Hom system is solved; the dimension
    vectors are equal; Hom(m, n) is one-dimensional with a generator
    invertible at every vertex (its square block there has full rank).  An
    isomorphism onto a brick makes m a brick, so `is_brick(m)` runs only
    when one of the last two checks fails, to tell `False` from ValueError.
    """
    if not is_brick(n):
        raise ValueError("iso_bricks expects bricks")
    if m == n:
        return True
    if m.dim_vector() == n.dim_vector():
        basis = hom_basis(m, n)
        if len(basis) == 1 and all(
            rl.rank(block) == len(block) for block in basis[0].values() if block
        ):
            return True
    if not is_brick(m):
        raise ValueError("iso_bricks expects bricks")
    return False


def tits_form(dynkin: DynkinType, dims: dict[int, int]) -> int:
    """q(d) = sum of d_v^2 minus d_u d_v over the edges of the Dynkin graph,
    each edge read as the double quiver's arrow with src < tgt."""
    q = sum(dims.get(v, 0) ** 2 for v in dynkin.vertices)
    for arrow in double_quiver(dynkin).arrows:
        if arrow.src < arrow.tgt:
            q -= dims.get(arrow.src, 0) * dims.get(arrow.tgt, 0)
    return q


def is_positive_root(dynkin: DynkinType, dims: dict[int, int]) -> bool:
    """Nonzero, componentwise nonnegative, and Tits form equal to 1."""
    values = [dims.get(v, 0) for v in dynkin.vertices]
    if all(x == 0 for x in values) or any(x < 0 for x in values):
        return False
    return tits_form(dynkin, dims) == 1
