"""Combinatorial bricks: diagrams, coefficient tables, and rendering."""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxbrick.bricks import (
    brick_diagram,
    brick_rep,
    diagram_from_params_a,
    diagram_from_params_d,
    diagram_to_json,
    rep_from_params_a,
    rep_from_params_d,
    render_diagram,
    symbol_vertex,
)
from coxbrick.canjoin import join_irreducibles
from coxbrick.coxeter import (
    DynkinType,
    Family,
    parse_window,
    simple_reflection,
)
from coxbrick.grids import j_module
from coxbrick.homs import hom_dim, is_brick, is_positive_root, iso_bricks, socle_over_end
from coxbrick.quiver import QuiverRepresentation, double_quiver
from dense_oracle import dense_mats


def rep_nonzero_arrows(rep: QuiverRepresentation, vertex_of: dict) -> set[tuple[int, int]]:
    """Symbol pairs (s, t) with a nonzero matrix entry from <s> to <t>.

    Matches the abbreviation rule used by the diagrams; the basis inside the
    representation is sorted per vertex, mirroring `rep_from_basis_action`.
    """
    keys_at: dict[int, list] = {}
    for key in sorted(vertex_of):
        keys_at.setdefault(vertex_of[key], []).append(key)
    out = set()
    for arrow in rep.quiver.arrows:
        sources = keys_at.get(arrow.tgt, [])
        for row, t in zip(rep.mats[arrow.name], keys_at.get(arrow.src, [])):
            out.update((sources[col], t) for col in row)
    return out


A4 = DynkinType(Family.A, 4)
A6 = DynkinType(Family.A, 6)
A8 = DynkinType(Family.A, 8)
D4 = DynkinType(Family.D, 4)
D5 = DynkinType(Family.D, 5)
D9 = DynkinType(Family.D, 9)

# arrow sets of the two rank-9 reference figures
EXPECTED_D9_TYPE1 = {
    (-1, 2), (2, 3), (4, 3), (4, 5), (6, 5), (7, 6), (7, 8),
    (1, -2), (-2, -3), (-4, -3), (-4, -5), (-6, -5),
    (-2, -1), (-3, 2), (-3, 4), (-5, 4), (-5, 6), (-6, 7),
}
EXPECTED_D9_TYPE2 = {
    (-1, 2), (2, 3), (4, 3), (4, 5), (6, 5), (7, 6), (7, 8),
    (1, -2), (-2, -3), (-4, -3), (-4, -5), (-5, -6),
    (-2, -1), (-3, 2), (-3, 4), (-5, 4), (-5, 6),
}


def test_brick_diagram_a8_example():
    w = parse_window(A8, "2,5,8,1,3,4,6,7,9")
    diag = brick_diagram(w)
    assert diag.symbols == frozenset(range(1, 8))
    assert diag.arrows == {(2, 1), (2, 3), (3, 4), (5, 4), (5, 6), (6, 7)}
    assert render_diagram(diag) == "1 <- 2 -> 3 -> 4 <- 5 -> 6 -> 7"


def test_brick_diagram_intro_summand():
    w = parse_window(A8, "1,3,4,6,2,5,7,8,9")
    diag = brick_diagram(w)
    assert render_diagram(diag) == "2 <- 3 <- 4 -> 5"


def test_brick_diagram_of_generator():
    for i in (1, 3):
        diag = brick_diagram(simple_reflection(A4, i))
        assert diag.symbols == {i}
        assert not diag.arrows
    d = brick_diagram(simple_reflection(D4, -1))
    assert d.symbols == {-1}
    rep = brick_rep(simple_reflection(D4, -1))
    assert rep.dim_vector() == {-1: 1, 1: 0, 2: 0, 3: 0}


def test_brick_diagram_d9_figures():
    w1 = parse_window(D9, "9,-7,-6,-4,-1,2,3,5,8")
    d1 = brick_diagram(w1)
    assert d1.v_plus == (-1, 2, 3, 4, 5, 6, 7, 8)
    assert d1.v_minus == (1, -2, -3, -4, -5, -6)
    assert d1.arrows == EXPECTED_D9_TYPE1
    w2 = parse_window(D9, "-6,9,-7,-4,-1,2,3,5,8")
    d2 = brick_diagram(w2)
    assert d2.arrows == EXPECTED_D9_TYPE2
    assert d2.r == 5 and d2.c == -1


def test_brick_diagram_d9_more_examples():
    # three rank-9 bricks with the same V-sets but r = 2, 0, 0
    cases = [
        (
            "3,5,8,-7,-4,1,2,6,9",
            {
                (1, 2), (3, 2), (4, 3), (5, 4), (5, 6), (7, 6),
                (-1, -2), (-2, -3), (-4, -3), (-4, -5), (-5, -6),
                (-2, 1), (-2, 3),
            },
        ),
        (
            "1,3,5,8,-7,-4,2,6,9",
            {
                (1, 2), (3, 2), (4, 3), (5, 4), (5, 6), (7, 6),
                (-1, -2), (-2, -3), (-4, -3), (-4, -5), (-5, -6),
                (1, -2),
            },
        ),
        (
            "1,2,3,5,8,-7,-4,6,9",
            {
                (2, 1), (3, 2), (4, 3), (5, 4), (5, 6), (7, 6),
                (-1, -2), (-2, -3), (-4, -3), (-4, -5), (-5, -6),
                (1, -2), (2, -1),
            },
        ),
    ]
    for window, expected in cases:
        diag = brick_diagram(parse_window(D9, window))
        assert diag.v_minus == (-1, -2, -3, -4, -5, -6), window
        assert diag.v_plus == tuple(range(1, 8)), window
        assert diag.arrows == expected, window


def test_brick_diagram_d9_intro_element():
    # same shape as the section example but with c = +1: the +-1 column swaps
    w = parse_window(D9, "6,9,-7,-4,1,2,3,5,8")
    diag = brick_diagram(w)
    assert (diag.type_l, diag.a, diag.b, diag.r, diag.c) == (2, 9, -7, 5, 1)
    assert diag.v_minus == (-1, -2, -3, -4, -5, -6)
    assert diag.v_plus == (1, 2, 3, 4, 5, 6, 7, 8)
    assert diag.arrows == {
        (1, 2), (2, 3), (4, 3), (4, 5), (6, 5), (7, 6), (7, 8),
        (-1, -2), (-2, -3), (-4, -3), (-4, -5), (-5, -6),
        (-2, 1), (-3, 2), (-3, 4), (-5, 4), (-5, 6),
    }
    S = socle_over_end(j_module(w))
    assert S.total_dim == 14
    assert iso_bricks(brick_rep(w), S)


def test_brick_diagram_d5_appendix_entry():
    w = parse_window(D5, "-1,2,-5,-4,-3")
    diag = brick_diagram(w)
    assert diag.symbols == {1, -1, -2, -3, -4}
    assert diag.arrows == {(-1, -2), (-3, -2), (-4, -3), (1, -2)}


def test_brick_rep_a_matrices_are_unit_entries():
    w = parse_window(A8, "2,5,8,1,3,4,6,7,9")
    rep = brick_rep(w)
    entries = {x for m in dense_mats(rep).values() for row in m for x in row}
    assert entries <= {Fraction(0), Fraction(1)}
    assert is_brick(rep)


def test_brick_rep_d_signed_entries():
    # beta6 <(-5)> = <6> - <-6> when |i| = r = 5
    w = parse_window(D9, "-6,9,-7,-4,-1,2,3,5,8")
    rep = brick_rep(w)
    keys_at_5 = sorted(s for s in brick_diagram(w).symbols if symbol_vertex(s) == 5)
    keys_at_6 = sorted(s for s in brick_diagram(w).symbols if symbol_vertex(s) == 6)
    col = keys_at_5.index(-5)
    m = dense_mats(rep)["beta6"]
    assert m[keys_at_6.index(6)][col] == 1
    assert m[keys_at_6.index(-6)][col] == -1

    # beta2+ <1> = +<-2> in the other rank-9 example
    w1 = parse_window(D9, "9,-7,-6,-4,-1,2,3,5,8")
    rep1 = brick_rep(w1)
    m = dense_mats(rep1)["beta2+"]
    keys_at_2 = sorted(s for s in brick_diagram(w1).symbols if symbol_vertex(s) == 2)
    assert m[keys_at_2.index(-2)][0] == 1


@pytest.mark.parametrize("dynkin", [A4, D4], ids=str)
def test_brick_reps_injective_up_to_iso(dynkin):
    jirr = join_irreducibles(dynkin)
    reps = {w: brick_rep(w) for w in jirr}
    for u, v in itertools.combinations(jirr, 2):
        if reps[u].dim_vector() != reps[v].dim_vector():
            continue
        assert not iso_bricks(reps[u], reps[v]), (u, v)


@pytest.mark.parametrize("dynkin", [A6, D5], ids=str)
def test_brick_diagrams_pairwise_distinct(dynkin):
    seen = {}
    for w in join_irreducibles(dynkin):
        diag = brick_diagram(w)
        key = (diag.symbols, diag.arrows)
        assert key not in seen, (w, seen[key])
        seen[key] = w


@pytest.mark.parametrize("dynkin", [DynkinType(Family.A, 5), D5], ids=str)
def test_diagram_matches_rep_nonzero_entries(dynkin):
    adjacent = {frozenset((a.src, a.tgt)) for a in double_quiver(dynkin).arrows}
    for w in join_irreducibles(dynkin):
        diag = brick_diagram(w)
        rep = brick_rep(w)
        vertex_of = {s: symbol_vertex(s) for s in diag.symbols}
        assert rep_nonzero_arrows(rep, vertex_of) == set(diag.arrows), w
        for s, t in diag.arrows:
            assert frozenset((symbol_vertex(s), symbol_vertex(t))) in adjacent, w


DIAGRAM_GOLDEN = {
    (Family.A, 7): "ce9c384e4b10a7acf4dc692035ea1b342b6d1cbc55d543fe18a53dffb9c65d66",
    (Family.D, 6): "78160b50a3ce4bb032326732d539db6ef7a022a39cf337e0ebd7475d27a6af88",
}


@pytest.mark.parametrize("key", DIAGRAM_GOLDEN, ids=lambda k: f"{k[0].value}{k[1]}")
def test_every_diagram_is_byte_identical_to_the_golden_digest(key):
    h = hashlib.sha256()
    for w in join_irreducibles(DynkinType(*key)):
        line = json.dumps(diagram_to_json(brick_diagram(w)), sort_keys=True)
        h.update((line + "\n").encode())
    assert h.hexdigest() == DIAGRAM_GOLDEN[key]


def test_type_a_builders_equal_their_type_d_slice():
    a5 = DynkinType(Family.A, 5)
    for w in join_irreducibles(a5):
        diag = brick_diagram(w)
        a, b, r_values = diag.a, diag.b, diag.r_values
        got = diagram_from_params_a(a5, a, b, r_values)
        assert got == diagram_from_params_d(a5, a, b, r_values), w
        assert rep_from_params_a(a5, a, b, r_values) == rep_from_params_d(a5, a, b, r_values), w


@pytest.mark.parametrize(
    "dynkin", [DynkinType(Family.A, n) for n in range(2, 7)], ids=str
)
def test_type_a_bricks_structural(dynkin):
    for w in join_irreducibles(dynkin):
        rep = brick_rep(w)
        rep.check_relations()
        assert is_brick(rep)
        dims = rep.dim_vector()
        support = [v for v in dynkin.vertices if dims[v]]
        assert support == list(range(min(support), max(support) + 1))
        assert all(dims[v] == 1 for v in support)
        assert is_positive_root(dynkin, dims)


def test_hom_vanishes_between_adjacent_simple_bricks():
    s1 = brick_rep(simple_reflection(A4, 1))
    s2 = brick_rep(simple_reflection(A4, 2))
    assert hom_dim(s1, s2) == 0 and hom_dim(s2, s1) == 0


@st.composite
def high_rank_jirr(draw):
    from coxbrick.canjoin import jirr_from_R

    n = draw(st.integers(min_value=6, max_value=8))
    dynkin = DynkinType(draw(st.sampled_from([Family.A, Family.D])), n)
    top = n + 1 if dynkin.family is Family.A else n
    max_size = n if dynkin.family is Family.A else n - 1
    size = draw(st.integers(min_value=1, max_value=max_size))
    absolutes = draw(
        st.sets(st.integers(min_value=1, max_value=top), min_size=size, max_size=size)
    )
    if dynkin.family is Family.A:
        values = frozenset(absolutes)
    else:
        values = frozenset(
            a if draw(st.booleans()) else -a for a in sorted(absolutes)
        )
    try:
        return jirr_from_R(dynkin, values)
    except ValueError:
        return None


@given(high_rank_jirr())
@settings(max_examples=80, deadline=None)
def test_high_rank_bricks_are_bricks_on_positive_roots(w):
    if w is None:
        return
    rep = brick_rep(w)
    rep.check_relations()
    assert is_brick(rep)
    assert is_positive_root(w.dynkin, rep.dim_vector())
    diag = brick_diagram(w)
    vertex_of = {s: symbol_vertex(s) for s in diag.symbols}
    assert rep_nonzero_arrows(rep, vertex_of) == set(diag.arrows)


def test_diagram_json_roundtrip():
    examples = [
        parse_window(A8, "2,5,8,1,3,4,6,7,9"),
        parse_window(D9, "9,-7,-6,-4,-1,2,3,5,8"),
        parse_window(D5, "-1,2,-5,-4,-3"),
    ]
    for w in [*examples, *join_irreducibles(DynkinType(Family.A, 5)), *join_irreducibles(D5)]:
        diag = brick_diagram(w)
        data = diagram_to_json(diag)
        assert (data["family"], data["rank"]) == (w.dynkin.family.value, w.dynkin.rank), w
        assert data["window"] == list(w.window) and data["type_l"] == diag.type_l, w
        params = {"a": diag.a, "b": diag.b, "r": diag.r, "c": diag.c, "R": sorted(diag.r_values)}
        assert data["params"] == params, w
        assert sorted(data["symbols"]) == sorted(diag.symbols), w
        assert {tuple(e) for e in data["arrows"]} == diag.arrows, w


def test_diagram_rejects_non_jirr():
    with pytest.raises(ValueError):
        brick_diagram(parse_window(A4, "2,1,4,3"))
