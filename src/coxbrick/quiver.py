"""Double quivers of types A and D and their exact rational representations.

Modules are left modules over the path algebra with paths composed left to
right (alpha beta = first alpha, then beta).  Under that convention an arrow
g: u -> v acts on a module by a linear map from the coordinate block at v
into the block at u, so the matrix stored for g has shape dims[u] x dims[v]
(rows indexed by the map's target block, columns by its source block).  A
relation word g1 g2 ... gk therefore evaluates to the matrix product
mats[g1] * mats[g2] * ... * mats[gk] in word order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from coxbrick import ratlinalg as rl
from coxbrick.coxeter import DynkinType, Family
from coxbrick.ratlinalg import Mat

# a relation is a list of (coefficient, word) pairs summing to zero
Relation = list[tuple[int, tuple[str, ...]]]


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

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.dynkin.vertices

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(name)


def double_quiver(dynkin: DynkinType) -> DoubleQuiver:
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

    For an arrow g: u -> v, `mats[g]` has shape dims[u] x dims[v] and gives
    the action of g (block at v mapped into block at u); see the module
    docstring for the composition convention.
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
            if len(m) != rows or any(len(row) != cols for row in m):
                raise ValueError(
                    f"matrix for {arrow.name} has shape {rl.shape(m)}, expected {(rows, cols)}"
                )

    @property
    def total_dim(self) -> int:
        return sum(self.dims.get(v, 0) for v in self.quiver.vertices)

    def dim_vector(self) -> dict[int, int]:
        return {v: self.dims.get(v, 0) for v in self.quiver.vertices}

    def word_action(self, word: tuple[str, ...]) -> Mat:
        """Action matrix of a path word, multiplied left to right.

        Words passing through a zero-dimensional block collapse to an
        explicit zero matrix of the right shape.
        """
        if not word:
            raise ValueError("empty word")
        arrows = [self.quiver.arrow(name) for name in word]
        blocks = [arrows[0].src] + [a.tgt for a in arrows]
        rows, cols = self.dims.get(blocks[0], 0), self.dims.get(blocks[-1], 0)
        if any(self.dims.get(b, 0) == 0 for b in blocks):
            return rl.zeros(rows, cols)
        out = self.mats[word[0]]
        for name in word[1:]:
            out = rl.mat_mul(out, self.mats[name])
        return out

    def check_relations(self) -> None:
        """Raise RelationError unless every preprojective relation vanishes."""
        for relation in self.quiver.relations:
            first_arrow = self.quiver.arrow(relation[0][1][0])
            last_arrow = self.quiver.arrow(relation[0][1][-1])
            total = rl.zeros(
                self.dims.get(first_arrow.src, 0), self.dims.get(last_arrow.tgt, 0)
            )
            for coeff, word in relation:
                total = rl.mat_add(total, rl.mat_scale(coeff, self.word_action(word)))
            if not rl.is_zero(total):
                raise RelationError(f"relation {relation} fails")


def zero_mats(quiver: DoubleQuiver, dims: dict[int, int]) -> dict[str, Mat]:
    return {
        a.name: rl.zeros(dims.get(a.src, 0), dims.get(a.tgt, 0)) for a in quiver.arrows
    }


def simple_rep(quiver: DoubleQuiver, vertex: int) -> QuiverRepresentation:
    """The simple module supported at one vertex."""
    dims = {v: (1 if v == vertex else 0) for v in quiver.vertices}
    return QuiverRepresentation(quiver, dims, zero_mats(quiver, dims))


def rep_from_basis_action(
    quiver: DoubleQuiver,
    vertex_of: dict,
    action: dict[str, dict],
) -> QuiverRepresentation:
    """Build a representation from a basis indexed by arbitrary keys.

    `vertex_of` maps a basis key to its vertex; `action[arrow][key]` is a
    list of (coefficient, key) pairs giving the image of that basis vector
    under the arrow (keys at the arrow's target vertex only).
    """
    keys_at: dict[int, list] = {v: [] for v in quiver.vertices}
    for key, v in vertex_of.items():
        keys_at[v].append(key)
    for v in keys_at:
        keys_at[v].sort()
    coord = {key: i for v in quiver.vertices for i, key in enumerate(keys_at[v])}
    dims = {v: len(keys_at[v]) for v in quiver.vertices}
    mats: dict[str, Mat] = {}
    for arrow in quiver.arrows:
        rows, cols = dims[arrow.src], dims[arrow.tgt]
        m = [[Fraction(0)] * cols for _ in range(rows)]
        for key in keys_at[arrow.tgt]:
            for coeff, image_key in action.get(arrow.name, {}).get(key, []):
                if vertex_of[image_key] != arrow.src:
                    raise ValueError(
                        f"{arrow.name} must land at vertex {arrow.src}, got {image_key}"
                    )
                m[coord[image_key]][coord[key]] += Fraction(coeff)
        mats[arrow.name] = tuple(tuple(row) for row in m)
    return QuiverRepresentation(quiver, dims, mats)


def rep_to_json(rep: QuiverRepresentation) -> dict:
    """JSON form: {dims: {vertex: int}, mats: {arrow: [["p/q", ...], ...]}}."""
    return {
        "dims": {str(v): rep.dims.get(v, 0) for v in rep.quiver.vertices},
        "mats": {
            name: [[f"{x.numerator}/{x.denominator}" for x in row] for row in m]
            for name, m in sorted(rep.mats.items())
        },
    }


def rep_from_json(quiver: DoubleQuiver, data: dict) -> QuiverRepresentation:
    dims = {int(v): int(d) for v, d in data["dims"].items()}
    mats = {
        name: tuple(tuple(Fraction(x) for x in row) for row in m)
        for name, m in data["mats"].items()
    }
    for arrow in quiver.arrows:
        if arrow.name not in mats or not mats[arrow.name]:
            mats[arrow.name] = rl.zeros(dims.get(arrow.src, 0), dims.get(arrow.tgt, 0))
    return QuiverRepresentation(quiver, dims, mats)
