"""Lattice structure of the weak order and the brute-force CJR oracle."""

import itertools
import random

import pytest

import scan_oracle
from coxbrick.coxeter import (
    DynkinType,
    Family,
    descents,
    identity,
    join_irreducible_type,
    multiply,
    parse_window,
    simple_reflection,
)
from coxbrick.canjoin import cjr_direct, join_irreducibles
from coxbrick.weak_order import GroupPoset, LatticeError

A3 = DynkinType(Family.A, 3)
A4 = DynkinType(Family.A, 4)
A5 = DynkinType(Family.A, 5)
D3 = DynkinType(Family.D, 3)
D4 = DynkinType(Family.D, 4)


@pytest.fixture(scope="module")
def a3():
    return GroupPoset.build(A3)


@pytest.fixture(scope="module")
def d4():
    return GroupPoset.build(D4)


def test_join_examples(a3):
    el = lambda s: parse_window(A3, s)
    assert a3.join(el("2,1,3,4"), el("1,3,2,4")) == el("3,2,1,4")
    assert a3.join(el("1,2,4,3"), el("3,1,2,4")) == el("4,3,1,2")
    for w in a3.elements[::5]:
        assert a3.join(w, w) == w
        assert a3.join(w, identity(A3)) == w


def test_join_meet_laws(a3):
    els = a3.elements
    for u, v in itertools.product(els[::6], els[::7]):
        assert a3.join(u, v) == a3.join(v, u)
    for u, v, w in itertools.product(els[::8], els[::9], els[::10]):
        assert a3.join(a3.join(u, v), w) == a3.join(u, a3.join(v, w))


@pytest.mark.parametrize("dynkin", [A3, D3, A4, D4], ids=str)
def test_weak_order_is_a_lattice(dynkin):
    # Both raise LatticeError unless the least upper or greatest lower
    # bound is unique.
    poset = GroupPoset.build(dynkin)
    for u, v in itertools.combinations(poset.elements, 2):
        poset.join(u, v)
        scan_oracle.meet(poset, u, v)


@pytest.mark.parametrize("dynkin", [A3, A4, D4], ids=str)
def test_join_and_meet_equal_scan_oracle(dynkin):
    # In a finite lattice the meet of u and v is the join of their common
    # lower bounds, so one bit-sliced join query also answers the meet.
    poset = GroupPoset.build(dynkin)
    els = poset.elements
    for i, u in enumerate(els):
        for v in els[i:]:
            assert poset.join(u, v) == scan_oracle.join(poset, u, v), (u, v)
            common = poset.mask(u) & poset.mask(v)
            lower = [x for x, m in zip(els, poset.masks) if m & ~common == 0]
            assert poset.join(*lower) == scan_oracle.meet(poset, u, v), (u, v)


@pytest.mark.parametrize(
    "dynkin",
    [DynkinType(Family.A, n) for n in range(2, 6)] + [DynkinType(Family.D, n) for n in range(3, 6)],
    ids=str,
)
def test_join_of_every_cjr_equals_scan_fold(dynkin):
    poset = GroupPoset.build(dynkin)
    for w in poset.elements:
        cjr = sorted(cjr_direct(w))
        expected = scan_oracle.join_all(poset, cjr)
        assert poset.join(*cjr) == poset.join_all(cjr) == expected == w, w


def test_join_of_random_subsets_equals_scan_fold(d4):
    rng = random.Random(4)
    for _ in range(500):
        us = rng.sample(d4.elements, rng.choice((3, 4)))
        expected = scan_oracle.join_all(d4, us)
        assert d4.join(*us) == d4.join_all(us) == expected, us


def test_empty_and_single_joins(a3):
    assert a3.join() == a3.join_all([]) == identity(A3)
    for u in a3.elements:
        assert a3.join(u) == a3.join_all([u]) == u


@pytest.mark.parametrize("dynkin", [A4, D4, A5], ids=str)
def test_cjr_oracle_equals_scan_oracle(dynkin):
    poset = GroupPoset.build(dynkin)
    for w in poset.elements:
        assert poset.cjr_oracle(w) == scan_oracle.cjr_oracle(poset, w), w


def test_columns_transpose_masks():
    # D5 has 1920 elements, more than one transpose chunk.
    poset = GroupPoset.build(DynkinType(Family.D, 5))
    order, masks = poset._order, poset.masks
    assert sorted(order) == list(range(len(masks)))
    for k, col in enumerate(poset._cols):
        assert col == sum(1 << b for b, i in enumerate(order) if masks[i] >> k & 1), k
        assert poset._cocols[k] == poset._everything ^ col, k
    # Each length is one contiguous run, the longest first.
    runs = [length for length, _ in itertools.groupby(masks[i].bit_count() for i in order)]
    assert runs == sorted(set(runs), reverse=True)
    # So the top bit of any set of elements is a shortest one of them.
    rng = random.Random(5)
    for _ in range(200):
        bits = rng.sample(range(len(order)), rng.randint(1, 40))
        top = order[(sum(1 << b for b in bits)).bit_length() - 1]
        assert masks[top].bit_count() == min(masks[order[b]].bit_count() for b in bits)


def _hand_built(poset, elements, masks):
    """A GroupPoset on some elements of `poset`'s group with the given masks."""
    return GroupPoset(
        dynkin=poset.dynkin,
        elements=tuple(elements),
        masks=tuple(masks),
    )


def _outcome(query):
    """The result of a query, or the message of the LatticeError it raises."""
    try:
        return query()
    except LatticeError as error:
        return f"LatticeError: {error}"


@pytest.mark.parametrize("dynkin", [A3, D4], ids=str)
@pytest.mark.parametrize("arrange", ["shuffled", "reversed"])
@pytest.mark.parametrize("pruned", [False, True], ids=["whole", "pruned"])
def test_rearranged_poset_equals_scan_oracle(dynkin, arrange, pruned):
    # Elements out of lexicographic order, so bit order and index order
    # disagree within every length.  Pruning s_2 and s_1 s_3 leaves a
    # poset that is no lattice, where some joins and CJRs must raise.
    poset = GroupPoset.build(dynkin)
    picks = list(range(len(poset.elements)))
    if pruned:
        s1, s2, s3 = (simple_reflection(dynkin, i) for i in (1, 2, 3))
        picks.remove(poset.index(s2))
        picks.remove(poset.index(multiply(s1, s3)))
    if arrange == "shuffled":
        random.Random(15).shuffle(picks)
    else:
        picks.reverse()
    moved = _hand_built(poset, [poset.elements[i] for i in picks], [poset.masks[i] for i in picks])
    els = moved.elements
    for w in els:
        fast = _outcome(lambda: moved.cjr_oracle(w))
        assert fast == _outcome(lambda: scan_oracle.cjr_oracle(moved, w)), w
    for i, u in enumerate(els):
        for v in els[i:]:
            fast = _outcome(lambda: moved.join(u, v))
            assert fast == _outcome(lambda: scan_oracle.join(moved, u, v)), (u, v)


def _same_lattice_error(query, reference, message):
    with pytest.raises(LatticeError) as fast:
        query()
    with pytest.raises(LatticeError) as slow:
        reference()
    assert str(fast.value) == str(slow.value) == message


def test_lattice_errors_on_tampered_masks(a3):
    u, v, x, y = a3.elements[:4]
    # x and y are both minimal upper bounds of u and v; nothing lies above
    # x and y.
    tampered = _hand_built(a3, [u, v, x, y], [0b0001, 0b0010, 0b0111, 0b1011])
    _same_lattice_error(
        lambda: tampered.join(u, v),
        lambda: scan_oracle.join(tampered, u, v),
        "no unique extreme element; lattice property violated",
    )
    _same_lattice_error(
        lambda: tampered.join(x, y),
        lambda: scan_oracle.join(tampered, x, y),
        "empty candidate set",
    )


def test_three_element_join_errors_on_tampered_masks(a3):
    e, u, v, z, x, y = a3.elements[:6]
    assert e == identity(A3)
    # x and y are both minimal upper bounds of u, v and z.
    tampered = _hand_built(a3, [e, u, v, z, x, y], [0, 0b1, 0b10, 0b100, 0b10111, 0b1111])
    _same_lattice_error(
        lambda: tampered.join(u, v, z),
        lambda: scan_oracle.join_all(tampered, [u, v, z]),
        "no unique extreme element; lattice property violated",
    )


def test_cjr_oracle_errors_on_tampered_masks(a3):
    el = lambda s: parse_window(A3, s)
    w0, s3 = el("4,3,2,1"), el("1,2,4,3")
    # Without s3, two minimal elements below w0 contain the reflection (4, 3).
    keep = [i for i, w in enumerate(a3.elements) if w != s3]
    pruned = _hand_built(a3, [a3.elements[i] for i in keep], [a3.masks[i] for i in keep])
    _same_lattice_error(
        lambda: pruned.cjr_oracle(w0),
        lambda: scan_oracle.cjr_oracle(pruned, w0),
        "2 minimal elements below 4,3,2,1 containing Reflection(a=4, b=3)",
    )
    # An empty inversion set holds no cover reflection of s3.
    alone = _hand_built(a3, [s3], [0])
    _same_lattice_error(
        lambda: alone.cjr_oracle(s3),
        lambda: scan_oracle.cjr_oracle(alone, s3),
        "0 minimal elements below 1,2,4,3 containing Reflection(a=4, b=3)",
    )


def test_poset_rejects_shared_inversion_sets(a3):
    with pytest.raises(LatticeError, match="share an inversion set"):
        _hand_built(a3, a3.elements[:2], [0b1, 0b1])


def test_cjr_oracle_examples(a3):
    el = lambda s: parse_window(A3, s)
    assert a3.cjr_oracle(el("4,3,1,2")) == {el("1,2,4,3"), el("3,1,2,4")}
    assert a3.cjr_oracle(el("3,2,1,4")) == {el("2,1,3,4"), el("1,3,2,4")}
    s1 = el("2,1,3,4")
    assert a3.cjr_oracle(s1) == {s1}
    assert a3.cjr_oracle(identity(A3)) == frozenset()


@pytest.mark.parametrize("fixture_name", ["a3", "d4"])
def test_cjr_oracle_invariants(fixture_name, request):
    poset = request.getfixturevalue(fixture_name)
    for w in poset.elements:
        cjr = poset.cjr_oracle(w)
        assert len(cjr) == len(descents(w))
        assert poset.join_all(sorted(cjr)) == w
        for u in cjr:
            assert join_irreducible_type(u) is not None
            assert scan_oracle.weak_leq(u, w)
        for u, v in itertools.combinations(sorted(cjr), 2):
            assert not scan_oracle.weak_leq(u, v) and not scan_oracle.weak_leq(v, u)


def test_verify_cjr_definition(a3):
    el = lambda s: parse_window(A3, s)
    verify = lambda w, candidate: scan_oracle.verify_cjr_definition(a3, w, candidate)
    w = el("4,3,1,2")
    assert verify(w, {el("1,2,4,3"), el("3,1,2,4")})
    assert verify(identity(A3), frozenset())
    assert not verify(el("3,2,1,4"), {el("3,2,1,4")})
    # wrong join, and non-minimal sets, both fail
    assert not verify(w, {el("1,2,4,3")})
    assert not verify(el("3,2,1,4"), {el("2,1,3,4"), el("1,3,2,4"), el("3,2,1,4")})


def test_join_irreducible_counts():
    for n in range(2, 7):
        assert len(join_irreducibles(DynkinType(Family.A, n))) == 2 ** (n + 1) - n - 2
    for n in (4, 5):
        assert len(join_irreducibles(DynkinType(Family.D, n))) == 3**n - n * 2 ** (n - 1) - n - 1


def test_poset_rejects_foreign_elements(a3):
    with pytest.raises(ValueError):
        a3.join(identity(A3), identity(DynkinType(Family.A, 2)))


def test_index_rejects_an_element_of_another_type_with_a_shared_window(d4):
    # The window (1,2,3,4) is the identity of both A3 and D4.
    assert identity(A3).window == identity(D4).window
    with pytest.raises(ValueError):
        d4.index(identity(A3))
    assert d4.index(identity(DynkinType(Family.D, 4))) == d4.index(identity(D4))


def test_hand_built_poset_derives_its_index(a3):
    elements = a3.elements[3:7]
    poset = _hand_built(a3, elements, a3.masks[3:7])
    assert [poset.index(w) for w in elements] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        poset.index(a3.elements[0])


@pytest.mark.parametrize("dynkin", [A5, DynkinType(Family.D, 5)], ids=str)
def test_build_masks_equal_the_inversion_sets(dynkin):
    poset = GroupPoset.build(dynkin)
    for w, mask in zip(poset.elements, poset.masks):
        expected = sum(1 << poset._pair_bit[t.a, t.b] for t in scan_oracle.inversions(w))
        assert mask == expected, w
