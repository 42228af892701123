"""Combinatorial bricks attached to join-irreducible elements.

Every join-irreducible w with descent l yields a brick S(w) with a = w(l),
b = w(|l|+1) and R the values after the descent, whose basis is a set of
signed symbols V = V+ u V-, governed by

    r = max{k >= 0 : [1, k] inside +-R},
    c = the sign with which 1 occurs in the window (+1 when some w(i) = 1,
        -1 when some w(i) = -1) if r >= 1, else 1.

Four coefficient tables give the image of every basis vector; two of their
entries are -1 (the cross arrow out of the +-1 column when r = 0, and the
arrow at depth |i| = r).  The tables (`_tables`) are the one statement of a
brick in both families: type A_n is their slice b >= 1, R positive, where V
is the interval [b, a-1] and every image outside it reads as zero.  The
diagram draws an arrow s -> t exactly where the action sends <s> to a
nonzero multiple of <t>.  All constructions here take the parameter tuple
(a, b, R) as input, so the same code serves both the per-element brick maps
and the direct semibrick formulas that bypass the intermediate elements.

`BrickDiagram` is the one record of a brick's parameters (a, b, R, and r, c
in type D); `brick_diagram` memoises it per join-irreducible.  `brick_rep`
reads the parameters off w without building a diagram.  The matrix
realisations list each symbol's images and name no arrow: the double quiver
finds the arrow from the two symbols' vertices (`quiver.symbol_vertex`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from coxbrick.canjoin import r_set
from coxbrick.coxeter import (
    CoxeterElement,
    DynkinType,
    Family,
    per_join_irreducible,
    unique_descent,
)
from coxbrick.quiver import (
    QuiverRepresentation,
    double_quiver,
    rep_from_basis_action,
    symbol_vertex,
)


def depth_r(r_values: frozenset[int]) -> int:
    r = 0
    while r + 1 in r_values or -(r + 1) in r_values:
        r += 1
    return r


def sign_c(r_values: frozenset[int]) -> int:
    """+1 or -1 according to which of +-1 lies in R; +1 when neither does."""
    if 1 in r_values:
        return 1
    if -1 in r_values:
        return -1
    return 1


def v_sets(a: int, b: int, c: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(V-, V+) of the type-D construction, each sorted by absolute value."""
    if b >= 2:
        v_minus: tuple[int, ...] = ()
        v_plus = tuple(range(b, a))
    elif abs(b) == 1:
        v_minus = ()
        v_plus = (c,) + tuple(range(2, a))
    else:
        v_minus = (-c,) + tuple(range(-2, b, -1))
        v_plus = (c,) + tuple(range(2, a))
    return v_minus, v_plus


def _params(w: CoxeterElement) -> tuple[int, int, int, frozenset[int]]:
    """(l, a, b, R) of a join-irreducible w with descent l; ValueError on any
    other element."""
    l = unique_descent(w)
    return l, w(l), w(abs(l) + 1), r_set(w)


@dataclass(frozen=True)
class BrickDiagram:
    """Abbreviated form of a brick: symbols plus plain arrows between them.

    The one record of a brick's parameters: a, b, R, and in type D also r
    and c (None in type A).
    """

    dynkin: DynkinType
    window: tuple[int, ...] | None
    type_l: int | None
    a: int
    b: int
    r: int | None
    c: int | None
    r_values: frozenset[int]
    v_plus: tuple[int, ...]
    v_minus: tuple[int, ...]
    arrows: frozenset[tuple[int, int]]

    @cached_property
    def symbols(self) -> frozenset[int]:
        return frozenset(self.v_plus) | frozenset(self.v_minus)

    def dim_vector(self) -> dict[int, int]:
        dims = {v: 0 for v in self.dynkin.vertices}
        for s in self.symbols:
            dims[symbol_vertex(s)] += 1
        return dims


def _tables(
    a: int, b: int, r_values: frozenset[int]
) -> tuple[int, int, tuple[int, ...], tuple[int, ...], dict[int, list[tuple[int, int]]]]:
    """r, c, V-, V+ and the images of each basis vector <s>, s in V+ u V-,
    from the four coefficient tables; <x> reads as zero when x is not a
    symbol.  Type A is the slice b >= 1, R positive, where every image
    outside [b, a-1] drops out."""
    r = depth_r(r_values)
    c = sign_c(r_values)
    v_minus, v_plus = v_sets(a, b, c)
    images: dict[int, list[tuple[int, int]]] = {}
    for y in v_plus:
        ay = abs(y)
        out = images[y] = []
        # alpha_{ay-1} on <y>: table (i) with |i| = ay - 1
        xi_plus = 0 if ay in r_values else 1
        if ay >= 3:
            out.append((xi_plus, y - 1))
        elif ay == 2:
            xi_minus = 1 if (r == 0 and 2 not in r_values) else 0
            out += [(xi_plus, c), (xi_minus, -c)]
        # beta_{ay+1} on <y>: table (ii) with i = y
        eta_plus = 1 if ay + 1 in r_values else 0
        eta_minus = -1 if (ay == 1 and r == 0 and -2 not in r_values) else 0
        out += [(eta_plus, ay + 1), (eta_minus, -(ay + 1))]
    for y in v_minus:
        ay = abs(y)
        out = images[y] = []
        # alpha_{ay-1} on <y> (= <-(|i|+1)>): table (iii) with |i| = ay - 1
        if ay >= 2:
            i = -c if ay == 2 else -(ay - 1)
            xi_plus = 1 if (abs(i) <= r and ay in r_values) else 0
            xi_minus = 1 if -ay in r_values else 0
            out += [(xi_plus, -i), (xi_minus, i)]
        # beta_{ay+1} on <y>: table (iv) with i = y
        eta_plus = 1 if (ay <= r and ay + 1 not in r_values) else 0
        if ay == r:
            eta_minus = -1
        elif -(ay + 1) not in r_values:
            eta_minus = 1
        else:
            eta_minus = 0
        out += [(eta_plus, ay + 1), (eta_minus, -(ay + 1))]
    return r, c, v_minus, v_plus, images


def _diagram(
    dynkin: DynkinType,
    a: int,
    b: int,
    r_values: frozenset[int],
    window: tuple[int, ...] | None,
    type_l: int | None,
) -> BrickDiagram:
    """The diagram of the tables: an arrow s -> t wherever <s> has a nonzero
    multiple of <t> among its images."""
    r, c, v_minus, v_plus, images = _tables(a, b, r_values)
    if dynkin.family is Family.A:
        r = c = None
    return BrickDiagram(
        dynkin=dynkin,
        window=window,
        type_l=type_l,
        a=a,
        b=b,
        r=r,
        c=c,
        r_values=r_values,
        v_plus=v_plus,
        v_minus=v_minus,
        arrows=frozenset(
            (s, t) for s, out in images.items() for coeff, t in out if coeff and t in images
        ),
    )


def diagram_from_params_a(
    dynkin: DynkinType,
    a: int,
    b: int,
    r_values: frozenset[int],
    window: tuple[int, ...] | None = None,
    type_l: int | None = None,
) -> BrickDiagram:
    """The same as `diagram_from_params_d`, which builds type A as its slice;
    no caller in the package uses it.  It stays only because
    `benchmark/tracing.py` wraps it by name."""
    return _diagram(dynkin, a, b, r_values, window, type_l)


def diagram_from_params_d(
    dynkin: DynkinType,
    a: int,
    b: int,
    r_values: frozenset[int],
    window: tuple[int, ...] | None = None,
    type_l: int | None = None,
) -> BrickDiagram:
    """The diagram of the brick with parameters (a, b, R), in either family."""
    return _diagram(dynkin, a, b, r_values, window, type_l)


@per_join_irreducible
def brick_diagram(w: CoxeterElement) -> BrickDiagram:
    """The diagram of S(w), memoised per join-irreducible w; raises
    ValueError on any other element."""
    l, a, b, r_values = _params(w)
    return diagram_from_params_d(w.dynkin, a, b, r_values, window=w.window, type_l=l)


def _rep(dynkin: DynkinType, a: int, b: int, r_values: frozenset[int]) -> QuiverRepresentation:
    """The brick on basis <s>, s in V+ u V-, acting by the tables."""
    images = _tables(a, b, r_values)[4]
    vertex_of = {s: symbol_vertex(s) for s in images}
    rep = rep_from_basis_action(double_quiver(dynkin), vertex_of, images)
    rep.check_relations()
    return rep


def rep_from_params_a(
    dynkin: DynkinType, a: int, b: int, r_values: frozenset[int]
) -> QuiverRepresentation:
    """The same as `rep_from_params_d`, which builds type A as its slice; no
    caller in the package uses it.  It stays only because
    `benchmark/tracing.py` wraps it by name."""
    return _rep(dynkin, a, b, r_values)


def rep_from_params_d(
    dynkin: DynkinType, a: int, b: int, r_values: frozenset[int]
) -> QuiverRepresentation:
    """The brick with parameters (a, b, R), in either family."""
    return _rep(dynkin, a, b, r_values)


def brick_rep(w: CoxeterElement) -> QuiverRepresentation:
    """The brick S(w) as an exact quiver representation, built from its
    parameters without a diagram."""
    _, a, b, r_values = _params(w)
    return rep_from_params_d(w.dynkin, a, b, r_values)


# --- text rendering -------------------------------------------------------


def _abs_sorted(symbols: tuple[int, ...]) -> list[int]:
    return sorted(symbols, key=lambda s: (abs(s), s < 0))


def arrow_sort_key(edge: tuple[int, int]) -> tuple:
    s, t = edge
    return (abs(s), s < 0, abs(t), t < 0)


def render_diagram(diag: BrickDiagram) -> str:
    """One-line path rendering in type A; two symbol rows plus an arrow list
    in type D (upper row V-, lower row V+, each by increasing absolute value)."""
    if diag.dynkin.family is Family.A:
        symbols = sorted(diag.symbols)
        parts = [str(symbols[0])]
        for i in symbols[:-1]:
            parts.append("->" if (i, i + 1) in diag.arrows else "<-")
            parts.append(str(i + 1))
        return " ".join(parts)
    lines = []
    if diag.v_minus:
        lines.append("upper: " + " ".join(str(s) for s in _abs_sorted(diag.v_minus)))
    lines.append("lower: " + " ".join(str(s) for s in _abs_sorted(diag.v_plus)))
    arrows = sorted(diag.arrows, key=arrow_sort_key)
    lines.append("arrows: " + " ".join(f"{s}>{t}" for s, t in arrows))
    return "\n".join(lines)


def diagram_to_json(diag: BrickDiagram) -> dict:
    params: dict = {
        "a": diag.a,
        "b": diag.b,
        "r": diag.r,
        "c": diag.c,
        "R": sorted(diag.r_values),
    }
    return {
        "family": diag.dynkin.family.value,
        "rank": diag.dynkin.rank,
        "window": list(diag.window) if diag.window is not None else None,
        "type_l": diag.type_l,
        "params": params,
        "symbols": sorted(diag.v_plus) + sorted(diag.v_minus, reverse=True),
        "arrows": sorted([list(e) for e in diag.arrows]),
        "dim_vector": {str(v): d for v, d in diag.dim_vector().items()},
    }
