"""Double quivers of types A and D and their exact rational representations.

Modules are left modules over the path algebra with paths composed left to
right (alpha beta = first alpha, then beta).  Under that convention an arrow
g: u -> v acts on a module by a linear map from the coordinate block at v
into the block at u, so the matrix stored for g has dims[u] rows and dims[v]
columns (rows indexed by the map's target block, columns by its source
block).  Each matrix is a tuple of sparse rows (`coxbrick.ratlinalg`): one
{column: value} dict per row, holding `int` values, or `Fraction` where a
value is not integral, and never a stored zero, so equal maps are equal
matrices.  A relation word g1 g2 ... gk therefore evaluates to the matrix
product mats[g1] * mats[g2] * ... * mats[gk] in word order.  Dense matrices
appear only in the JSON form (`rep_to_json`, `rep_from_json`).

The double quiver has exactly one arrow u -> v for each ordered pair of
adjacent vertices, so callers never name arrows: `rep_from_basis_action`
takes each basis vector's images and finds the arrow from their vertices.
Signed indices (brick symbols, grid entries) sit at vertices by one rule,
`symbol_vertex`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from coxbrick import ratlinalg as rl
from coxbrick.coxeter import DynkinType, Family
from coxbrick.ratlinalg import Mat

# a relation is a list of (coefficient, word) pairs summing to zero
Relation = list[tuple[int, tuple[str, ...]]]


def symbol_vertex(s: int) -> int:
    """Indices +-1 sit at the fork vertices; others at their absolute value."""
    return s if s >= -1 else -s


@dataclass(frozen=True)
class Arrow:
    name: str
    src: int
    tgt: int


@dataclass(frozen=True)
class DoubleQuiver:
    """The double quiver of the Dynkin diagram, with preprojective relations."""

    dynkin: DynkinType
    arrows: tuple[Arrow, ...]
    relations: tuple[tuple[tuple[int, tuple[str, ...]], ...], ...]
    _by_name: dict[str, Arrow] = field(init=False, repr=False, compare=False)
    _by_ends: dict[tuple[int, int], Arrow] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_name", {a.name: a for a in self.arrows})
        object.__setattr__(self, "_by_ends", {(a.src, a.tgt): a for a in self.arrows})

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.dynkin.vertices

    def arrow(self, name: str) -> Arrow:
        """The arrow of this name; KeyError for an unknown name."""
        return self._by_name[name]


def double_quiver(dynkin: DynkinType) -> DoubleQuiver:
    """The double quiver of a type, built once per `DynkinType` instance and
    kept in its `memo`."""
    quiver = dynkin.memo.get("quiver")
    if quiver is None:
        quiver = dynkin.memo["quiver"] = _build_double_quiver(dynkin)
    return quiver


def _build_double_quiver(dynkin: DynkinType) -> DoubleQuiver:
    n = dynkin.rank
    arrows: list[Arrow] = []
    relations: list[Relation] = []
    if dynkin.family is Family.A:
        for i in range(1, n):
            arrows.append(Arrow(f"alpha{i}", i, i + 1))
            arrows.append(Arrow(f"beta{i + 1}", i + 1, i))
        if n >= 2:
            relations.append([(1, ("alpha1", "beta2"))])
            relations.append([(1, (f"beta{n}", f"alpha{n - 1}"))])
        for i in range(2, n):
            relations.append(
                [(1, (f"alpha{i}", f"beta{i + 1}")), (-1, (f"beta{i}", f"alpha{i - 1}"))]
            )
    else:
        if n >= 3:
            arrows.append(Arrow("alpha1+", 1, 2))
            arrows.append(Arrow("alpha1-", -1, 2))
            arrows.append(Arrow("beta2+", 2, 1))
            arrows.append(Arrow("beta2-", 2, -1))
            for i in range(2, n - 1):
                arrows.append(Arrow(f"alpha{i}", i, i + 1))
                arrows.append(Arrow(f"beta{i + 1}", i + 1, i))
            relations.append([(1, ("alpha1+", "beta2+"))])
            relations.append([(1, ("alpha1-", "beta2-"))])
            if n >= 4:
                relations.append(
                    [
                        (1, ("alpha2", "beta3")),
                        (-1, ("beta2+", "alpha1+")),
                        (-1, ("beta2-", "alpha1-")),
                    ]
                )
                relations.append([(1, (f"beta{n - 1}", f"alpha{n - 2}"))])
            else:
                relations.append([(1, ("beta2+", "alpha1+")), (1, ("beta2-", "alpha1-"))])
            for i in range(3, n - 1):
                relations.append(
                    [(1, (f"alpha{i}", f"beta{i + 1}")), (-1, (f"beta{i}", f"alpha{i - 1}"))]
                )
    return DoubleQuiver(dynkin, tuple(arrows), tuple(tuple(r) for r in relations))


class RelationError(Exception):
    """A preprojective relation fails on a representation."""


@dataclass(frozen=True)
class QuiverRepresentation:
    """Dimensions per vertex plus one exact rational matrix per arrow.

    For an arrow g: u -> v, `mats[g]` has dims[u] sparse rows with columns in
    range(dims[v]) and gives the action of g (block at v mapped into block at
    u); see the module docstring for the layout and the composition
    convention.
    """

    quiver: DoubleQuiver
    dims: dict[int, int]
    mats: dict[str, Mat]

    def __post_init__(self) -> None:
        for v in self.quiver.vertices:
            if self.dims.get(v, 0) < 0:
                raise ValueError(f"negative dimension at vertex {v}")
        for arrow in self.quiver.arrows:
            m = self.mats[arrow.name]
            rows, cols = self.dims.get(arrow.src, 0), self.dims.get(arrow.tgt, 0)
            if len(m) != rows:
                raise ValueError(f"matrix for {arrow.name} has {len(m)} rows, expected {rows}")
            for row in m:
                if row and (min(row) < 0 or max(row) >= cols):
                    raise ValueError(
                        f"matrix for {arrow.name} has a column outside range({cols})"
                    )
                if 0 in row.values():
                    raise ValueError(f"matrix for {arrow.name} stores a zero")

    @property
    def total_dim(self) -> int:
        return sum(self.dims.get(v, 0) for v in self.quiver.vertices)

    def dim_vector(self) -> dict[int, int]:
        return {v: self.dims.get(v, 0) for v in self.quiver.vertices}

    def word_action(self, word: tuple[str, ...]) -> Mat:
        """Action matrix of a path word, multiplied left to right."""
        if not word:
            raise ValueError("empty word")
        out = self.mats[word[0]]
        for name in word[1:]:
            out = rl.mat_mul(out, self.mats[name])
        return out

    def check_relations(self) -> None:
        """Raise RelationError unless every preprojective relation vanishes.

        Each relation's words start at one vertex, so their actions share a
        row count; the weighted sum is accumulated row by row.
        """
        for relation in self.quiver.relations:
            first_arrow = self.quiver.arrow(relation[0][1][0])
            total: list[rl.Row] = [{} for _ in range(self.dims.get(first_arrow.src, 0))]
            for coeff, word in relation:
                for t, row in zip(total, self.word_action(word)):
                    rl.subtract_multiple(t, -coeff, row)
            if any(total):
                raise RelationError(f"relation {relation} fails")


def zero_mats(quiver: DoubleQuiver, dims: dict[int, int]) -> dict[str, Mat]:
    return {a.name: tuple({} for _ in range(dims.get(a.src, 0))) for a in quiver.arrows}


def simple_rep(quiver: DoubleQuiver, vertex: int) -> QuiverRepresentation:
    """The simple module supported at one vertex."""
    dims = {v: (1 if v == vertex else 0) for v in quiver.vertices}
    return QuiverRepresentation(quiver, dims, zero_mats(quiver, dims))


def rep_from_basis_action(
    quiver: DoubleQuiver,
    vertex_of: dict,
    images: dict[object, list[tuple[int, object]]],
) -> QuiverRepresentation:
    """Build a representation from a basis indexed by arbitrary keys.

    `vertex_of` maps a basis key to its vertex; `images[key]` lists the
    (coefficient, key) pairs of that basis vector's images under the arrows
    into its vertex.  An image at vertex u of a key at vertex v belongs to
    the arrow u -> v; an image key outside the basis reads as zero, and an
    image at a vertex not adjacent to v raises ValueError.  Images under one
    arrow are summed.  Coefficients are integers, and so are the matrix
    entries built from them.
    """
    keys_at: dict[int, list] = {v: [] for v in quiver.vertices}
    for key, v in vertex_of.items():
        keys_at[v].append(key)
    for v in keys_at:
        keys_at[v].sort()
    coord = {key: i for v in quiver.vertices for i, key in enumerate(keys_at[v])}
    dims = {v: len(keys_at[v]) for v in quiver.vertices}
    mats: dict[str, list[rl.Row]] = {
        a.name: [{} for _ in range(dims[a.src])] for a in quiver.arrows
    }
    for v in quiver.vertices:
        for col, key in enumerate(keys_at[v]):
            for coeff, image_key in images.get(key, ()):
                u = vertex_of.get(image_key)
                if u is None:
                    continue
                arrow = quiver._by_ends.get((u, v))
                if arrow is None:
                    raise ValueError(f"no arrow from vertex {u} to vertex {v} for {image_key}")
                row = mats[arrow.name][coord[image_key]]
                y = row.get(col, 0) + coeff
                if y:
                    row[col] = y
                else:
                    row.pop(col, None)
    return QuiverRepresentation(quiver, dims, {name: tuple(m) for name, m in mats.items()})


def rep_to_json(rep: QuiverRepresentation) -> dict:
    """JSON form: {dims: {vertex: int}, mats: {arrow: [["p/q", ...], ...]}},
    every matrix written out dense."""
    cols = {a.name: rep.dims.get(a.tgt, 0) for a in rep.quiver.arrows}

    def text(m: Mat, ncols: int) -> list[list[str]]:
        dense = ([row.get(c, 0) for c in range(ncols)] for row in m)
        return [[f"{x.numerator}/{x.denominator}" for x in row] for row in dense]

    return {
        "dims": {str(v): rep.dims.get(v, 0) for v in rep.quiver.vertices},
        "mats": {name: text(m, cols[name]) for name, m in sorted(rep.mats.items())},
    }


def rep_from_json(quiver: DoubleQuiver, data: dict) -> QuiverRepresentation:
    """Read the JSON form back; every vertex and arrow must be the quiver's,
    and every row must have the dense length."""
    dims = {int(v): int(d) for v, d in data["dims"].items()}
    for v in dims:
        if v not in quiver.vertices:
            raise ValueError(f"vertex {v} is not in the quiver of {quiver.dynkin}")
    cols = {a.name: dims.get(a.tgt, 0) for a in quiver.arrows}
    for name, m in data["mats"].items():
        if name not in cols:
            raise ValueError(f"arrow {name!r} is not in the quiver of {quiver.dynkin}")
        if any(len(row) != cols.get(name) for row in m):
            raise ValueError(f"matrix for {name} has a row whose length is not {cols.get(name)}")
    mats = zero_mats(quiver, dims) | {
        name: tuple(rl.sparse([Fraction(x) for x in row] for row in m))
        for name, m in data["mats"].items()
        if m
    }
    return QuiverRepresentation(quiver, dims, mats)
