"""Sparse arrow matrices: shape checks, the relation checker, and the JSON digest."""

import hashlib
import json

import pytest

from coxbrick.bricks import brick_rep
from coxbrick.canjoin import join_irreducibles
from coxbrick.coxeter import DynkinType, Family
from coxbrick.grids import j_module, projective_rep
from coxbrick.quiver import (
    QuiverRepresentation,
    RelationError,
    double_quiver,
    rep_from_basis_action,
    rep_to_json,
    zero_mats,
)
from dense_oracle import relation_vanishes

A1 = DynkinType(Family.A, 1)
A4 = DynkinType(Family.A, 4)
A5 = DynkinType(Family.A, 5)
D2 = DynkinType(Family.D, 2)
D3 = DynkinType(Family.D, 3)
D4 = DynkinType(Family.D, 4)
D5 = DynkinType(Family.D, 5)


def _reps(dynkin):
    yield from (brick_rep(w) for w in join_irreducibles(dynkin))
    yield from (projective_rep(dynkin, l) for l in dynkin.vertices)


def _check_agrees_with_dense(rep) -> bool:
    """check_relations raises exactly when some relation fails densely."""
    expected = all(relation_vanishes(rep, relation) for relation in rep.quiver.relations)
    try:
        rep.check_relations()
    except RelationError:
        return not expected
    return expected


def test_double_quiver_is_built_once_per_type():
    a5 = DynkinType(Family.A, 5)
    quiver = double_quiver(a5)
    assert double_quiver(a5) is quiver
    assert a5.memo["quiver"] is quiver
    other = double_quiver(DynkinType(Family.A, 5))
    assert other == quiver and other is not quiver


@pytest.mark.parametrize("dynkin", [A1, D2, D3, A5, D5], ids=str)
def test_check_relations_equals_dense_evaluator(dynkin):
    for rep in _reps(dynkin):
        assert all(relation_vanishes(rep, relation) for relation in rep.quiver.relations)
        assert _check_agrees_with_dense(rep)
        # each arrow with its sign flipped, the other arrows unchanged
        for arrow in rep.quiver.arrows:
            m = rep.mats[arrow.name]
            if not any(m):
                continue
            flipped = tuple({c: -x for c, x in row.items()} for row in m)
            bad = QuiverRepresentation(rep.quiver, rep.dims, {**rep.mats, arrow.name: flipped})
            assert _check_agrees_with_dense(bad), (rep.dim_vector(), arrow.name)


def _reference_quiver(dynkin):
    """The arrows and relations of each family as written out by hand, one
    list per family with its rank cases: the reference for the one rule."""
    n = dynkin.rank
    arrows, relations = [], []
    if dynkin.family is Family.A:
        for i in range(1, n):
            arrows.append((f"alpha{i}", i, i + 1))
            arrows.append((f"beta{i + 1}", i + 1, i))
        if n >= 2:
            relations.append([(1, ("alpha1", "beta2"))])
            relations.append([(1, (f"beta{n}", f"alpha{n - 1}"))])
        for i in range(2, n):
            relations.append(
                [(1, (f"alpha{i}", f"beta{i + 1}")), (-1, (f"beta{i}", f"alpha{i - 1}"))]
            )
    elif n >= 3:
        arrows += [("alpha1+", 1, 2), ("alpha1-", -1, 2), ("beta2+", 2, 1), ("beta2-", 2, -1)]
        for i in range(2, n - 1):
            arrows.append((f"alpha{i}", i, i + 1))
            arrows.append((f"beta{i + 1}", i + 1, i))
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
    return arrows, relations


@pytest.mark.parametrize(
    "dynkin",
    [DynkinType(Family.A, n) for n in range(1, 10)]
    + [DynkinType(Family.D, n) for n in range(2, 10)],
    ids=str,
)
def test_double_quiver_rule_reproduces_the_hand_written_lists(dynkin):
    ref_arrows, ref_relations = _reference_quiver(dynkin)
    quiver = double_quiver(dynkin)
    assert [(a.name, a.src, a.tgt) for a in quiver.arrows] == ref_arrows

    src = {a.name: a.src for a in quiver.arrows}

    def at_vertex(relations):
        """Each relation's terms as a set, keyed by the vertex its words start at."""
        return {src[r[0][1][0]]: frozenset(r) for r in relations}

    got, ref = at_vertex(quiver.relations), at_vertex(ref_relations)
    assert len(got) == len(quiver.relations) and got.keys() == ref.keys()
    for x, terms in ref.items():
        negated = frozenset((-c, word) for c, word in terms)
        assert got[x] in (terms, negated), x


def test_sign_flipped_arrow_raises_relation_error():
    rep = projective_rep(D5, 2)
    flipped = tuple({c: -x for c, x in row.items()} for row in rep.mats["beta3"])
    bad = QuiverRepresentation(rep.quiver, rep.dims, {**rep.mats, "beta3": flipped})
    with pytest.raises(RelationError):
        bad.check_relations()


def test_post_init_rejects_malformed_rows():
    q = double_quiver(A4)
    dims = {1: 1, 2: 2, 3: 0, 4: 0}
    mats = zero_mats(q, dims)
    QuiverRepresentation(q, dims, {**mats, "alpha1": ({1: 1},)})
    with pytest.raises(ValueError, match="stores a zero"):
        QuiverRepresentation(q, dims, {**mats, "alpha1": ({0: 1, 1: 0},)})
    with pytest.raises(ValueError, match="column outside range"):
        QuiverRepresentation(q, dims, {**mats, "alpha1": ({2: 1},)})
    with pytest.raises(ValueError, match="column outside range"):
        QuiverRepresentation(q, dims, {**mats, "alpha1": ({-1: 1},)})
    with pytest.raises(ValueError, match="has 2 rows, expected 1"):
        QuiverRepresentation(q, dims, {**mats, "alpha1": ({}, {})})


def test_rep_from_basis_action_sums_images_and_drops_cancelled_entries():
    q = double_quiver(A4)
    vertex_of = {"x": 1, "y": 2, "z": 2}
    images = {"y": [(1, "x"), (1, "x")], "z": [(1, "x"), (-1, "x")]}
    rep = rep_from_basis_action(q, vertex_of, images)
    assert rep.mats["alpha1"] == ({0: 2},)
    assert all(type(x) is int for m in rep.mats.values() for row in m for x in row.values())


def test_rep_from_basis_action_reads_an_image_outside_the_basis_as_zero():
    q = double_quiver(A4)
    rep = rep_from_basis_action(q, {"x": 1, "y": 2}, {"y": [(1, "x"), (5, "gone")]})
    assert rep.mats == {**zero_mats(q, rep.dims), "alpha1": ({0: 1},)}


def test_rep_from_basis_action_rejects_an_image_at_a_non_adjacent_vertex():
    q = double_quiver(A4)
    with pytest.raises(ValueError, match="no arrow from vertex 3 to vertex 1"):
        rep_from_basis_action(q, {"x": 1, "z": 3}, {"x": [(1, "z")]})


def test_rep_from_basis_action_finds_the_fork_arrows_by_their_end_points():
    q = double_quiver(D4)
    vertex_of = {"p": 1, "m": -1, "q": 2}
    images = {"p": [(2, "q")], "m": [(3, "q")], "q": [(5, "p"), (7, "m")]}
    rep = rep_from_basis_action(q, vertex_of, images)
    assert rep.mats["beta2+"] == ({0: 2},)
    assert rep.mats["beta2-"] == ({0: 3},)
    assert rep.mats["alpha1+"] == ({0: 5},)
    assert rep.mats["alpha1-"] == ({0: 7},)


# sha256 of the JSON forms of every projective, and of J(w) and S(w) for
# every join-irreducible w, of A5 and of D5: any change to a matrix entry,
# a basis order or an arrow shows here.
GOLDEN = {
    A5: "d4455272ca8142c44eba0c6b036d19ed2017183e9d8af11b20934969fa712ddd",
    D5: "8063b53563ef16d85eeb09cb4ab99269af0ab94c66499f3356e732e2b8863ddc",
}


@pytest.mark.parametrize("dynkin", [A5, D5], ids=str)
def test_grid_and_brick_reps_are_byte_identical_to_the_golden_digest(dynkin):
    t = DynkinType(dynkin.family, dynkin.rank)
    h = hashlib.sha256()
    for l in t.vertices:
        line = json.dumps(["P", l, rep_to_json(projective_rep(t, l))], sort_keys=True)
        h.update((line + "\n").encode())
    for w in join_irreducibles(t):
        reps = [rep_to_json(j_module(w)), rep_to_json(brick_rep(w))]
        h.update((json.dumps([list(w.window), *reps], sort_keys=True) + "\n").encode())
    assert h.hexdigest() == GOLDEN[dynkin]

