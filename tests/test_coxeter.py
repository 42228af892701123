"""Group-level combinatorics: windows, inversions, descents, enumeration."""

import hashlib
import itertools
import json
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxbrick.coxeter import (
    CapacityError,
    CoxeterElement,
    DynkinType,
    Family,
    Reflection,
    all_reflections,
    cover_pairs,
    descents,
    enumerate_group,
    format_window,
    identity,
    inversion_masks,
    inversions,
    join_irreducible_type,
    length,
    lower_covers,
    multiply,
    parse_window,
    simple_reflection,
    unique_descent,
)
import scan_oracle
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


def test_call_rejects_arguments_beyond_the_window():
    w = parse_window(DynkinType(Family.A, 4), "1,3,2,4,5")
    assert w(5) == 5
    for i in (0, 6, 9, -1):
        with pytest.raises(ValueError, match=f"bad argument {i}"):
            w(i)
    v = parse_window(D4, "-2,-1,3,4")
    assert v(-4) == -4
    for i in (0, 5, -5):
        with pytest.raises(ValueError, match=f"bad argument {i}"):
            v(i)


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


def _pair_count(w) -> int:
    """The Coxeter length counted on window pairs (Björner–Brenti §8.2):
    pairs x before y with x > y, plus, in type D, those with x + y < 0
    (never in type A, whose values are positive)."""
    pairs = list(itertools.combinations(w.window, 2))
    return sum(x > y for x, y in pairs) + sum(x + y < 0 for x, y in pairs)


@pytest.mark.parametrize(
    "dynkin",
    [DynkinType(Family.A, n) for n in range(1, 7)] + [DynkinType(Family.D, n) for n in range(2, 7)],
    ids=str,
)
def test_inversions_length_and_masks_follow_the_inverse_rule(dynkin):
    elements = enumerate_group(dynkin)
    refl = all_reflections(dynkin)
    masks = list(inversion_masks(dynkin, (w.window for w in elements)))
    assert len(masks) == len(elements)
    for w, mask in zip(elements, masks):
        expected = scan_oracle.inversions(w)
        assert inversions(w) == expected, w
        assert mask == sum(1 << k for k, t in enumerate(refl) if t in expected), w
        assert length(w) == len(expected) == _pair_count(w), w


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
    assert unique_descent(parse_window(A8, "2,5,8,1,3,4,6,7,9")) == 3
    for w in (identity(A8), A3_el("4,3,1,2")):
        with pytest.raises(ValueError, match=f"{w} is not join-irreducible"):
            unique_descent(w)


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


@pytest.mark.parametrize(
    "family, rank", [("A", n) for n in range(1, 7)] + [("D", n) for n in range(2, 7)]
)
def test_enumerated_elements_equal_validated_ones(family, rank):
    dynkin = DynkinType(Family(family), rank)
    group = enumerate_group(dynkin)
    assert len(group) == dynkin.group_order
    for w in group:
        checked = CoxeterElement(dynkin, w.window)  # runs the window checks
        assert type(w) is CoxeterElement and type(w.window) is tuple
        assert w == checked and hash(w) == hash(checked) and w.dynkin is dynkin


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


def hasse_edges(dynkin):
    """(upper, lower) for every cover of the weak order, as `coxbrick hasse` lists them."""
    return [(w, lower) for w in enumerate_group(dynkin) for lower in lower_covers(w)]


def test_hasse_edge_counts():
    assert len(hasse_edges(DynkinType(Family.A, 1))) == 1
    for dynkin in (A3, D4):
        edges = hasse_edges(dynkin)
        assert len(edges) == sum(len(descents(w)) for w in enumerate_group(dynkin))
        # each simple reflection is a descent of exactly half the group
        assert len(edges) == dynkin.rank * dynkin.group_order // 2
    assert len(hasse_edges(A3)) == 36


def test_hasse_edges_are_covers():
    # D4 has the fork descent -1, which type A never has
    for dynkin in (A3, D4):
        elements = enumerate_group(dynkin)
        edges = hasse_edges(dynkin)
        assert edges == sorted(edges, key=lambda e: (e[0].window, e[1].window))
        for upper, lower in edges:
            assert weak_leq(lower, upper) and lower != upper
        # weak_leq(u, w) is inv(u) <= inv(w); read each set once, then every
        # pair u < w with nothing strictly between is a cover
        inv = {w: scan_oracle.inversions(w) for w in elements}
        covers = {
            (w, u)
            for u, w in itertools.permutations(elements, 2)
            if inv[u] < inv[w] and not any(inv[u] < inv[v] < inv[w] for v in elements)
        }
        assert set(edges) == covers


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
    assert multiply(w, scan_oracle.inverse(w)) == identity(D4)
    assert scan_oracle.inverse(scan_oracle.inverse(w)) == w


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


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update((json.dumps(line) + "\n").encode())
    return h.hexdigest()


# sha256 of the JSON lines of each listing, computed while type A still had
# its own reflections, inversions and enumeration.
ENUMERATION_GOLDEN = {
    (Family.A, 1): "aedb8ed72c4bbb997c06552b71609ffdb4f36b8c41b67efd4309fb65abfe4251",
    (Family.A, 2): "0cb17c0ac4a25b6d3db877aed3c7bfafc55165a425117bc39ce91946934ca19a",
    (Family.A, 3): "61c1e64c1cf6496ae3a17efba335e573eb15022ea7520b2c061f66ae4ceec0a7",
    (Family.A, 4): "1d82f6f7554fa70d3bb3b7734d12833d826279b24dc79cdd31cee312eb83c264",
    (Family.A, 5): "331d99fc26967d380d21fad622b21228c68086f095cdd72fec9c0c754a95fd0f",
    (Family.A, 6): "77293523b09995e0ebef7342dffdf7115c855c8f780aebfa119238ed4bef9ead",
    (Family.A, 7): "4cb3b79f4c07f5a50eaf11fd50c3c35eb2f5187883ca00f62137a27c74c249c1",
    (Family.D, 2): "bd5dcfa23acfa3d5e0a6fea9031661bb85164d68c7ffe452118a8e97106559a6",
    (Family.D, 3): "bc71dd9c7c36af51e9aeea4d5833ed1d0076eb4eaca520b08408e24cf2baec6c",
    (Family.D, 4): "82da985e3cf1a426c15ae7a0a82b0424efeeb473ba30ac0e59950c00244cc3a5",
    (Family.D, 5): "f95f11ee781602c4dcf5a63aff09f65add069aae89514b90dbfb702d62daa2f5",
    (Family.D, 6): "c9f31d3fe0611c46e39f46e194ed771b4246e7fe66ac93989d6c7dde426790ac",
}
REFLECTIONS_GOLDEN = "a4521c40ca9f3d295c2c95cdbfa3e64a147ac0525eea84dc01889338a33f4121"
INVERSIONS_GOLDEN = {
    (Family.A, 1): "206795eb9734b02f16faeaafc638237c5520aff5bf8fe2f8a8ea430ba8165d1a",
    (Family.A, 2): "a78d46e44d0b4d05c688254d446252ad67f50e0a2d541d635fe9ef6cadf46dc4",
    (Family.A, 3): "5be6d6b9ff42d9a1a4032dd9b73cd8058a77071e2263e4ea7252cf381c44606e",
    (Family.A, 4): "635ff38f3d8538c7d1092d73af0ab5a766f36379cc38be8c0fbe8fbfc80a5b9a",
    (Family.A, 5): "498758dbd3461801c34821d1a2c95aae9e7a57c1a710900644378999b27c9371",
    (Family.A, 6): "7403b9fb9a1f33d2a7fef47b9e110fda1b147efe3055adf0b55fe81e30b8e410",
    (Family.D, 2): "35d80652b58515839b5c213fc73e0699e5076c66002b1c24dcccf3cde5f3d8be",
    (Family.D, 3): "baf37016a40490ec9ce2bc4ec52568d01d7af436cc113ddcf064f10f11fb01c4",
    (Family.D, 4): "3fabf670a03ed37a5bd938b14a3219a97ade512cd704df65be047ab4b0d8a7ef",
    (Family.D, 5): "0b1b9db3e4cc4512e5105d5dc60591d5791669aced867edf2d5dd7ca8943fa09",
    (Family.D, 6): "04fdaedd995ee8e40df9ad851fd0d081604a89d01da5a4983e8db04d1063265c",
}


def _type_id(key) -> str:
    return f"{key[0].value}{key[1]}"


@pytest.mark.parametrize("key", ENUMERATION_GOLDEN, ids=_type_id)
def test_enumeration_is_byte_identical_to_the_golden_digest(key):
    windows = (list(w.window) for w in enumerate_group(DynkinType(*key)))
    assert _sha256(windows) == ENUMERATION_GOLDEN[key]


def test_reflections_are_byte_identical_to_the_golden_digest():
    types = [DynkinType(*key) for key in ENUMERATION_GOLDEN]
    lists = ([str(t), [[r.a, r.b] for r in all_reflections(t)]] for t in types)
    assert _sha256(lists) == REFLECTIONS_GOLDEN


@pytest.mark.parametrize("key", INVERSIONS_GOLDEN, ids=_type_id)
def test_inversions_are_byte_identical_to_the_golden_digest(key):
    sets = (sorted([r.a, r.b] for r in inversions(w)) for w in enumerate_group(DynkinType(*key)))
    assert _sha256(sets) == INVERSIONS_GOLDEN[key]
