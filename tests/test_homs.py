"""Hom spaces, endomorphism radicals, socles, and brick predicates."""

import itertools
import re
from fractions import Fraction

import pytest

from coxbrick import homs
from coxbrick.bricks import brick_diagram, brick_rep
from coxbrick.canjoin import join_irreducibles
from coxbrick.coxeter import DynkinType, Family, parse_window
from coxbrick.grids import j_module
from coxbrick.homs import (
    hom_basis,
    hom_dim,
    hom_vanishes,
    is_brick,
    is_positive_root,
    iso_bricks,
    radical_basis,
    socle_over_end,
    subrepresentation,
    tits_form,
    vertex_sets,
)
from coxbrick.quiver import (
    QuiverRepresentation,
    double_quiver,
    rep_to_json,
    simple_rep,
    symbol_vertex,
    zero_mats,
)
import dense_oracle
from dense_oracle import compose_homs, dense_hom, dense_mats
from semibrick_oracle import is_semibrick

A4 = DynkinType(Family.A, 4)
A8 = DynkinType(Family.A, 8)
D4 = DynkinType(Family.D, 4)
D5 = DynkinType(Family.D, 5)


def test_hom_between_distinct_simples_vanishes():
    q = double_quiver(A4)
    assert hom_dim(simple_rep(q, 1), simple_rep(q, 2)) == 0
    assert hom_dim(simple_rep(q, 1), simple_rep(q, 1)) == 1


def test_simple_modules_are_bricks():
    q = double_quiver(D4)
    for v in D4.vertices:
        assert is_brick(simple_rep(q, v))
        assert socle_over_end(simple_rep(q, v)).dim_vector() == simple_rep(q, v).dim_vector()


def test_semibrick_predicate():
    q = double_quiver(A4)
    s1, s2 = simple_rep(q, 1), simple_rep(q, 2)
    assert is_semibrick([s1, s2])
    assert not is_semibrick([s1, s1])


def test_example_brick_has_one_dimensional_end():
    w = parse_window(A8, "2,5,8,1,3,4,6,7,9")
    S = socle_over_end(j_module(w))
    assert hom_dim(S, S) == 1


def test_socle_example_d5():
    w = parse_window(D5, "-1,2,-5,-4,-3")
    S = socle_over_end(j_module(w))
    assert S.dim_vector() == {-1: 1, 1: 1, 2: 1, 3: 1, 4: 1}


def test_radical_is_nilpotent_on_corpus():
    for dynkin in (A4, D4):
        for w in join_irreducibles(dynkin):
            jw = j_module(w)
            end = hom_basis(jw, jw)
            radical = [dense_hom(f, jw) for f in radical_basis(end)]
            layer = radical
            dims = [len(layer)]
            while layer:
                products = [compose_homs(f, g) for f in layer for g in radical]
                span_rows = []
                vertices = sorted(products[0]) if products else []
                for f in products:
                    row = []
                    for v in vertices:
                        row.extend(x for r in f[v] for x in r)
                    span_rows.append(tuple(row))
                reduced, pivots = dense_oracle.rref(tuple(span_rows))
                layer_rank = len(pivots)
                dims.append(layer_rank)
                if layer_rank == 0:
                    break
                if len(dims) > 20:
                    pytest.fail(f"radical of End(J({w})) does not vanish")
                # rebuild an explicit basis for the next power
                basis_rows = reduced[:layer_rank]
                layer = []
                for row in basis_rows:
                    f = {}
                    pos = 0
                    for v in vertices:
                        d1 = len(products[0][v])
                        d2 = len(products[0][v][0]) if d1 else 0
                        f[v] = tuple(
                            tuple(row[pos + i * d2 + j] for j in range(d2))
                            for i in range(d1)
                        )
                        pos += d1 * d2
                    layer.append(f)
            assert dims[-1] == 0
            assert all(a >= b for a, b in zip(dims, dims[1:]))


@pytest.mark.parametrize(
    "dynkin", [DynkinType(Family.A, n) for n in range(2, 6)] + [D4, D5], ids=str
)
def test_end_and_radical_equal_dense_oracle(dynkin):
    for w in join_irreducibles(dynkin):
        jw = j_module(w)
        end = hom_basis(jw, jw)
        dense_end = [dense_hom(f, jw) for f in end]
        assert dense_end == dense_oracle.hom_basis(jw, jw), w
        # int, or Fraction where not integral, and never a stored zero
        assert all(
            x != 0 and (type(x) is int or (type(x) is Fraction and x.denominator != 1))
            for f in end
            for block in f.values()
            for row in block
            for x in row.values()
        )
        radical = [dense_hom(f, jw) for f in radical_basis(end)]
        assert radical == dense_oracle.radical_basis(dense_end), w


def test_radical_basis_keeps_the_canonical_form():
    # End spanned by b1 = 2(E11 + E12) and b2 = E11 on a 2-dimensional block:
    # the Gram matrix [[4, 2], [2, 1]] has kernel (-1/2, 1), so the radical
    # is -1/2 b1 + b2 = -E12, whose E11 entry cancels and whose E12 entry is
    # the integral Fraction -1, stored as int -1.
    b1 = {1: ({0: 2, 1: 2}, {})}
    b2 = {1: ({0: 1}, {})}
    (r,) = radical_basis([b1, b2])
    assert r == {1: ({1: -1}, {})}
    assert type(r[1][0][1]) is int


def test_subrepresentation_of_whole_and_of_non_invariant_subspace():
    rep = j_module(parse_window(D5, "-1,2,-5,-4,-3"))
    whole = {v: [{k: 1} for k in range(d)] for v, d in rep.dims.items()}
    assert subrepresentation(rep, whole) == rep
    mats = dense_mats(rep)
    arrow = next(a for a in rep.quiver.arrows if any(x for row in mats[a.name] for x in row))
    column = next(c for c in range(rep.dims[arrow.tgt]) if any(row[c] for row in mats[arrow.name]))
    with pytest.raises(ValueError, match=f"not invariant under {arrow.name}"):
        subrepresentation(rep, {arrow.tgt: [{column: 1}]})


def test_iso_bricks_basic():
    q = double_quiver(A4)
    s1, s2 = simple_rep(q, 1), simple_rep(q, 2)
    assert iso_bricks(s1, s1)
    assert not iso_bricks(s1, s2)
    w = parse_window(A8, "2,5,8,1,3,4,6,7,9")
    with pytest.raises(ValueError):
        iso_bricks(j_module(w), j_module(w))  # J(w) is not a brick here


def test_iso_bricks_contract(monkeypatch):
    a3 = DynkinType(Family.A, 3)
    q = double_quiver(a3)
    # the two uniserial bricks on vertices 1 and 2: equal dimension vectors,
    # a one-dimensional Hom space between them, not isomorphic
    top1, top2 = brick_rep(parse_window(a3, "2,3,1,4")), brick_rep(parse_window(a3, "3,1,2,4"))
    assert top1.dim_vector() == top2.dim_vector() and hom_dim(top1, top2) == 1
    semisimple = QuiverRepresentation(q, top1.dims, zero_mats(q, top1.dims))
    not_brick = j_module(parse_window(A8, "2,5,8,1,3,4,6,7,9"))
    s1 = simple_rep(q, 1)
    assert not iso_bricks(top1, top2)
    assert not iso_bricks(s1, top1)
    with pytest.raises(ValueError):
        iso_bricks(top1, semisimple)  # n is not a brick
    with pytest.raises(ValueError):
        iso_bricks(semisimple, top1)  # m is not a brick, equal dimension vectors
    with pytest.raises(ValueError):
        iso_bricks(not_brick, simple_rep(double_quiver(A8), 1))  # unequal ones

    # an isomorphism onto the brick n is proof enough that m is one too
    checked = []
    monkeypatch.setattr(homs, "is_brick", lambda m: checked.append(m) or is_brick(m))
    assert iso_bricks(top1, brick_rep(parse_window(a3, "2,3,1,4")))
    assert len(checked) == 1


def test_iso_bricks_of_equal_bricks_solves_only_end(monkeypatch):
    b = brick_rep(parse_window(D5, "-1,2,-5,-4,-3"))
    twin = QuiverRepresentation(b.quiver, dict(b.dims), dict(b.mats))  # equal, not identical
    solved = []
    monkeypatch.setattr(homs, "hom_basis", lambda m, n: solved.append((m, n)) or hom_basis(m, n))
    assert iso_bricks(b, b) and iso_bricks(twin, b)
    assert solved == [(b, b), (b, b)]


def test_socle_over_end_of_a_module_with_zero_radical_is_the_module():
    modules = [j_module(w) for w in join_irreducibles(D5)] + [simple_rep(double_quiver(D5), 2)]
    zero_radical = [m for m in modules if not radical_basis(hom_basis(m, m))]
    assert 0 < len(zero_radical) < len(modules)
    for m in zero_radical:
        whole = {v: [{k: 1} for k in range(d)] for v, d in m.dims.items()}
        assert socle_over_end(m) == subrepresentation(m, whole) == m


def test_socle_over_end_hands_nullspace_no_empty_row(monkeypatch):
    # record the rows of the socle's own kernels, not those of the Hom
    # systems and Gram matrices solved inside hom_basis and radical_basis
    inside, kernels = [], []

    def flagged(f):
        def run(*args):
            inside.append(f)
            try:
                return f(*args)
            finally:
                inside.pop()

        return run

    def recorded(rows, ncols):
        if not inside:
            kernels.append(rows)
        return nullspace(rows, ncols)

    for name in ("hom_basis", "radical_basis"):
        monkeypatch.setattr(homs, name, flagged(getattr(homs, name)))
    nullspace = homs.rl.nullspace
    monkeypatch.setattr(homs.rl, "nullspace", recorded)
    for w in join_irreducibles(D5):
        socle_over_end(j_module(w))
    assert kernels and all(row for rows in kernels for row in rows)


def test_positive_root_examples():
    assert not is_positive_root(A8, {v: 0 for v in A8.vertices})
    interval = {v: 1 if 3 <= v <= 5 else 0 for v in A8.vertices}
    assert is_positive_root(A8, interval)
    d9 = DynkinType(Family.D, 9)
    example = {1: 1, -1: 1, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2, 7: 1, 8: 1}
    assert is_positive_root(d9, example)
    assert tits_form(d9, example) == 1
    assert not is_positive_root(A4, {1: 2, 2: 0, 3: 0, 4: 0})


def test_rep_json_roundtrip():
    w = parse_window(D5, "-1,2,-5,-4,-3")
    rep = j_module(w)
    data = rep_to_json(rep)
    assert data["dims"] == {str(v): rep.dims.get(v, 0) for v in rep.quiver.vertices}
    assert any(data["mats"]["beta2+"])
    mats = dense_mats(rep)
    for a in rep.quiver.arrows:
        text = data["mats"][a.name]
        # every entry is written "p/q", integers too, and the rows are dense
        assert all(re.fullmatch(r"-?\d+/[1-9]\d*", x) for row in text for x in row), a.name
        assert tuple(tuple(Fraction(x) for x in row) for row in text) == mats[a.name], a.name


def test_hom_respects_scalars():
    q = double_quiver(A4)
    s1 = simple_rep(q, 1)
    (f,) = hom_basis(s1, s1)
    block = dense_hom(f, s1)[1]
    assert block in ((Fraction(1),),) or block[0][0] != 0


# --- Hom(M, N) = 0 from vertex sets -----------------------------------------


def test_vertex_sets_of_simple_and_zero_modules():
    q = double_quiver(D5)
    for v in D5.vertices:
        assert vertex_sets(simple_rep(q, v)) == ({v}, {v}, {v}, {v: ()}, {v: ()})
    dims = {v: 0 for v in D5.vertices}
    zero = vertex_sets(QuiverRepresentation(q, dims, zero_mats(q, dims)))
    assert zero == (set(), set(), set(), {}, {})


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_type_a_brick_top_and_socle_are_the_diagram_sources_and_sinks(rank):
    # a type-A brick is a string module: its top sits at the symbols no
    # diagram arrow enters, its socle at those no diagram arrow leaves
    for w in join_irreducibles(DynkinType(Family.A, rank)):
        diagram = brick_diagram(w)
        heads = {y for _, y in diagram.arrows}
        tails = {x for x, _ in diagram.arrows}
        want = [
            {symbol_vertex(s) for s in diagram.symbols if s not in skip}
            for skip in (set(), heads, tails)
        ]
        assert vertex_sets(brick_rep(w))[:3] == tuple(want), w


def _dense_rank(blocks, side_by_side):
    """The rank, by `dense_oracle.rref`, of dense blocks set side by side or
    stacked, each padded with zeros to the tallest or the widest."""
    if side_by_side:
        rows = [
            tuple(x for b in blocks for x in (b[i] if i < len(b) else (0,) * len(b[0])))
            for i in range(max(map(len, blocks)))
        ]
    else:
        width = max(len(b[0]) for b in blocks)
        rows = [row + (0,) * (width - len(row)) for b in blocks for row in b]
    return len(dense_oracle.rref(dense_oracle.mat(rows))[1])


def _minimal(blocks, holds):
    """The sets of keys of `blocks` whose blocks pass `holds` while those of
    no proper subset do."""
    keys = sorted(blocks)
    passing = [
        set(xs)
        for k in range(1, len(keys) + 1)
        for xs in itertools.combinations(keys, k)
        if holds([blocks[x] for x in xs])
    ]
    return {tuple(sorted(xs)) for xs in passing if not any(ys < xs for ys in passing)}


def dense_vertex_sets(m, swap=False):
    """(generated, faithful) of m by dense ranks: the blocks of the arrows
    into a vertex set side by side, those of the arrows out of it stacked
    (the other way round when `swap`)."""
    support = {v for v in m.quiver.vertices if m.dims.get(v, 0)}
    mats = dense_mats(m)
    generated, faithful = {}, {}
    for v in support:
        into = {a.tgt: mats[a.name] for a in m.quiver.arrows if a.src == v and a.tgt in support}
        out = {a.src: mats[a.name] for a in m.quiver.arrows if a.tgt == v and a.src in support}
        generated[v] = _minimal(into, lambda bs: _dense_rank(bs, not swap) == m.dims[v])
        faithful[v] = _minimal(out, lambda bs: _dense_rank(bs, swap) == m.dims[v])
    return generated, faithful


@pytest.mark.parametrize("dynkin", [A4, D4], ids=str)
def test_vertex_sets_equal_a_dense_reference(dynkin):
    elements = join_irreducibles(dynkin)
    disagreements = 0
    for m in [brick_rep(w) for w in elements] + [j_module(w) for w in elements]:
        sets = vertex_sets(m)
        got = tuple({v: set(xs) for v, xs in found.items()} for found in sets[3:])
        want = dense_vertex_sets(m)
        assert got == want
        assert sets.top == {v for v, xs in want[0].items() if not xs}
        assert sets.socle == {v for v, xs in want[1].items() if not xs}
        disagreements += dense_vertex_sets(m, swap=True) != got
    assert disagreements  # the reference tells the two sides apart


def swapped(sets):
    """The certificate's mutant: top and socle exchanged."""
    return sets._replace(top=sets.socle, socle=sets.top)


def certified_pairs(left, right, mutate=lambda sets: sets):
    """Every (m, n), m from `left` and n from `right`, that `hom_vanishes`
    settles on the (possibly mutated) vertex sets."""
    sets_l = [mutate(vertex_sets(m)) for m in left]
    sets_r = [mutate(vertex_sets(n)) for n in right]
    return [
        (m, n)
        for m, sm in zip(left, sets_l)
        for n, sn in zip(right, sets_r)
        if hom_vanishes(sm, sn)
    ]


@pytest.mark.parametrize(
    "family, rank", [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)]
)
def test_hom_vanishes_is_sound_on_every_pair_of_bricks(family, rank):
    bricks = [brick_rep(w) for w in join_irreducibles(DynkinType(Family(family), rank))]
    pairs = certified_pairs(bricks, bricks)
    assert pairs  # the certificate settles some pairs
    assert all(hom_dim(m, n) == 0 for m, n in pairs)


@pytest.mark.parametrize("dynkin", [A4, D4], ids=str)
def test_hom_vanishes_is_sound_between_grid_modules_and_bricks(dynkin):
    elements = join_irreducibles(dynkin)
    grids, bricks = [j_module(w) for w in elements], [brick_rep(w) for w in elements]
    pairs = certified_pairs(grids, bricks) + certified_pairs(bricks, grids)
    assert pairs
    assert all(hom_dim(m, n) == 0 for m, n in pairs)


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_hom_vanishes_settles_every_zero_pair_of_type_a_bricks(rank):
    bricks = [brick_rep(w) for w in join_irreducibles(DynkinType(Family.A, rank))]
    pairs = certified_pairs(bricks, bricks)
    zero = [(m, n) for m in bricks for n in bricks if hom_dim(m, n) == 0]
    assert {(id(m), id(n)) for m, n in pairs} == {(id(m), id(n)) for m, n in zero}


def test_a_tight_top_and_socle_need_the_shrinking_step():
    # M = 5 -> 4 -> 3 <- 2 -> -1 and N = 1 -> 2 -> 3 on D6: top(M) meets
    # supp(N) at 2 and supp(M) meets soc(N) at 3, but the quotient of M
    # supported in supp(N) is the simple at 2, which N does not contain
    d6 = DynkinType(Family.D, 6)
    by_arrows = {
        frozenset(brick_diagram(w).arrows): brick_rep(w) for w in join_irreducibles(d6)
    }
    m = by_arrows[frozenset({(2, -1), (2, 3), (4, 3), (5, 4)})]
    n = by_arrows[frozenset({(1, 2), (2, 3)})]
    sm, sn = vertex_sets(m), vertex_sets(n)
    assert not sm.top.isdisjoint(sn.support) and not sm.support.isdisjoint(sn.socle)
    assert hom_vanishes(sm, sn) and hom_dim(m, n) == 0


@pytest.mark.parametrize("dynkin", [A4, D4], ids=str)
def test_swapped_certificate_claims_a_false_zero(dynkin):
    # the soundness tests above have teeth: exchanging top and socle is wrong
    bricks = [brick_rep(w) for w in join_irreducibles(dynkin)]
    assert any(hom_dim(m, n) for m, n in certified_pairs(bricks, bricks, swapped))
