"""Group-level combinatorics: windows, inversions, descents, enumeration."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxbrick.coxeter import (
    CapacityError,
    DynkinType,
    Family,
    Reflection,
    cover_pairs,
    descents,
    enumerate_group,
    format_window,
    identity,
    inversions,
    join_irreducible_type,
    multiply,
    parse_window,
    simple_reflection,
)
from scan_oracle import cover_reflections, inverse_at, weak_leq

A3 = DynkinType(Family.A, 3)
A8 = DynkinType(Family.A, 8)
D4 = DynkinType(Family.D, 4)
D9 = DynkinType(Family.D, 9)


def A3_el(text):
    return parse_window(A3, text)


def test_multiply_involution():
    s1 = A3_el("2,1,3,4")
    assert multiply(s1, s1) == identity(A3)


def test_multiply_simple_product():
    s1, s2 = A3_el("2,1,3,4"), A3_el("1,3,2,4")
    assert multiply(s1, s2).window == (2, 3, 1, 4)


def test_multiply_type_d_involution():
    s = simple_reflection(D4, -1)
    assert multiply(s, s) == identity(D4)


def test_multiply_rejects_mixed_types():
    with pytest.raises(ValueError):
        multiply(identity(A3), identity(D4))


def test_simple_reflections():
    assert simple_reflection(A3, 1).window == (2, 1, 3, 4)
    assert simple_reflection(D4, -1).window == (-2, -1, 3, 4)
    assert simple_reflection(D4, 2).window == (1, 3, 2, 4)
    with pytest.raises(ValueError):
        simple_reflection(A3, 4)
    with pytest.raises(ValueError):
        simple_reflection(D4, 4)


def test_window_validation():
    with pytest.raises(ValueError):
        parse_window(A3, "1,2,3")
    with pytest.raises(ValueError):
        parse_window(A3, "1,2,2,4")
    with pytest.raises(ValueError):
        parse_window(D4, "1,2,3,-4")  # odd number of negatives
    with pytest.raises(ValueError):
        parse_window(D4, "1,2,3,5")


def test_inversions_examples():
    assert inversions(A3_el("2,1,3,4")) == {Reflection(2, 1)}
    assert inversions(A3_el("3,2,1,4")) == {
        Reflection(2, 1),
        Reflection(3, 1),
        Reflection(3, 2),
    }
    w = parse_window(D4, "-2,-1,3,4")
    assert inversions(w) == {Reflection(2, -1)}


def test_descents_examples():
    assert descents(A3_el("4,3,1,2")) == {1, 2}
    assert descents(identity(A3)) == frozenset()
    assert descents(identity(D9)) == frozenset()
    w = parse_window(D9, "5,3,-7,4,-6,-8,9,-1,2")
    assert descents(w) == {1, 2, 4, 5, 7}


def test_join_irreducible_type_examples():
    assert join_irreducible_type(parse_window(A8, "2,5,8,1,3,4,6,7,9")) == 3
    assert join_irreducible_type(identity(A8)) is None
    assert join_irreducible_type(parse_window(D9, "9,-7,-6,-4,-1,2,3,5,8")) == 1


def test_cover_reflections_examples():
    assert cover_reflections(A3_el("4,3,1,2")) == {Reflection(4, 3), Reflection(3, 1)}
    assert cover_reflections(A3_el("3,2,1,4")) == {Reflection(3, 2), Reflection(2, 1)}
    assert cover_reflections(A3_el("2,1,3,4")) == {Reflection(2, 1)}


@pytest.mark.parametrize("dynkin", [DynkinType(Family.A, 5), DynkinType(Family.D, 5)], ids=str)
def test_cover_pairs_are_the_cover_reflections(dynkin):
    for w in enumerate_group(dynkin):
        pairs = cover_pairs(w)
        # The inversion that w loses at each descent, from the definition.
        expected = {
            next(iter(inversions(w) - inversions(multiply(w, simple_reflection(dynkin, d)))))
            for d in descents(w)
        }
        assert len(pairs) == len(set(pairs)) == len(descents(w)), w
        assert {Reflection(a, b) for a, b in pairs} == cover_reflections(w) == expected, w


def test_weak_leq_examples():
    assert weak_leq(A3_el("1,3,2,4"), A3_el("3,2,1,4"))
    assert not weak_leq(A3_el("2,1,3,4"), A3_el("1,3,2,4"))
    for w in enumerate_group(A3):
        assert weak_leq(identity(A3), w)


def test_enumeration_counts_and_order():
    for dynkin, order in [(A3, 24), (D4, 192), (DynkinType(Family.D, 5), 1920)]:
        group = enumerate_group(dynkin)
        assert len(group) == order
        assert len(set(group)) == order
        windows = [w.window for w in group]
        assert windows == sorted(windows)


def test_enumeration_capacity_error_names_cap():
    with pytest.raises(CapacityError, match="1000"):
        enumerate_group(A8, cap=1000)


def _bfs_lengths(dynkin):
    """Cayley-graph distances from the identity: an independent length oracle."""
    gens = [simple_reflection(dynkin, i) for i in dynkin.vertices]
    dist = {identity(dynkin): 0}
    queue = deque([identity(dynkin)])
    while queue:
        w = queue.popleft()
        for s in gens:
            nxt = multiply(w, s)
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                queue.append(nxt)
    return dist


@pytest.mark.parametrize("dynkin", [A3, D4], ids=str)
def test_inversion_count_is_word_length(dynkin):
    dist = _bfs_lengths(dynkin)
    assert len(dist) == dynkin.group_order
    for w, d in dist.items():
        assert len(inversions(w)) == d


@pytest.mark.parametrize("dynkin", [A3, D4], ids=str)
def test_descents_are_length_drops(dynkin):
    for w in enumerate_group(dynkin):
        lw = len(inversions(w))
        for d in dynkin.vertices:
            shorter = len(inversions(multiply(w, simple_reflection(dynkin, d)))) < lw
            assert shorter == (d in descents(w))


@pytest.mark.parametrize("dynkin", [A3, D4], ids=str)
def test_jirr_iff_single_cover_reflection(dynkin):
    for w in enumerate_group(dynkin):
        single = len(cover_reflections(w)) == 1
        assert (join_irreducible_type(w) is not None) == single


def test_type_d_products_keep_even_negatives():
    group = enumerate_group(D4)
    for u in group[::17]:
        for v in group[::23]:
            product = multiply(u, v)
            assert sum(1 for x in product.window if x < 0) % 2 == 0


@st.composite
def d4_elements(draw):
    group = enumerate_group(D4)
    return draw(st.sampled_from(group))


@given(d4_elements(), d4_elements(), d4_elements())
@settings(max_examples=60, deadline=None)
def test_multiplication_is_associative(u, v, w):
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


@given(d4_elements())
@settings(max_examples=60, deadline=None)
def test_inverse_inverts(w):
    assert multiply(w, w.inverse()) == identity(D4)
    assert w.inverse().inverse() == w


@given(d4_elements())
@settings(max_examples=60, deadline=None)
def test_window_text_roundtrip(w):
    assert parse_window(D4, format_window(w.window)) == w


@given(d4_elements())
@settings(max_examples=60, deadline=None)
def test_inverse_at_extends_by_sign(w):
    for v in range(1, 5):
        assert w(inverse_at(w, v)) == v
        assert inverse_at(w, -v) == -inverse_at(w, v)
