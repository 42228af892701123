"""R-set reconstruction and the closed-form canonical join representations."""

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxbrick.canjoin import cjr_direct, decompose, jirr_from_R, join_irreducibles, r_set
from coxbrick.census import global_count
from coxbrick.coxeter import (
    DynkinType,
    Family,
    descents,
    enumerate_group,
    identity,
    join_irreducible_type,
    length,
    parse_window,
)
from coxbrick.weak_order import GroupPoset

A2 = DynkinType(Family.A, 2)
A4 = DynkinType(Family.A, 4)
A8 = DynkinType(Family.A, 8)
D4 = DynkinType(Family.D, 4)
D5 = DynkinType(Family.D, 5)
D9 = DynkinType(Family.D, 9)


def test_jirr_from_R_examples():
    assert jirr_from_R(A8, {3, 5, 6, 7, 8}).window == (1, 2, 4, 9, 3, 5, 6, 7, 8)
    assert jirr_from_R(A4, {1, 3, 4, 5}).window == (2, 1, 3, 4, 5)  # s_1
    assert jirr_from_R(D9, {6, 7, 9}).window == (1, 2, 3, 4, 5, 8, 6, 7, 9)


def test_jirr_from_R_is_memoised_per_type():
    a4, other = DynkinType(Family.A, 4), DynkinType(Family.A, 4)
    w = jirr_from_R(a4, {1, 3, 4, 5})
    assert jirr_from_R(a4, frozenset({1, 3, 4, 5})) is w
    assert w.dynkin is a4
    assert jirr_from_R(other, {1, 3, 4, 5}) == w
    assert jirr_from_R(other, {1, 3, 4, 5}) is not w
    with pytest.raises(ValueError):
        jirr_from_R(a4, {2, 3, 4, 5})
    assert set(a4.memo) == {("jirr", frozenset({1, 3, 4, 5}))}


def test_jirr_from_R_rejects_non_jirr_sets():
    with pytest.raises(ValueError):
        jirr_from_R(A4, {2, 3, 4, 5})  # increasing window, no descent
    with pytest.raises(ValueError):
        jirr_from_R(A4, set())
    with pytest.raises(ValueError):
        jirr_from_R(A4, {1, 2, 3, 4, 5})  # |R| = n+1 leaves no left block
    with pytest.raises(ValueError):
        jirr_from_R(D4, {1, -1, 2})  # repeated absolute value
    with pytest.raises(ValueError):
        jirr_from_R(D4, {-4, -3, 1})  # window (-2,-4,-3,1): two descents


def test_jirr_from_R_type_d_one_descent_at_negative_vertex():
    w = jirr_from_R(D4, {-1, 3, 4})
    assert w.window == (-2, -1, 3, 4)
    assert join_irreducible_type(w) == -1


@pytest.mark.parametrize("dynkin", [A4, D4, D5], ids=str)
def test_jirr_from_R_inverts_r_set(dynkin):
    for w in join_irreducibles(dynkin):
        assert jirr_from_R(dynkin, r_set(w)) == w


@pytest.mark.parametrize(
    "family, rank", [*(("A", n) for n in range(1, 8)), *(("D", n) for n in range(2, 7))]
)
def test_join_irreducibles_are_the_enumerated_one_descent_elements(family, rank):
    dynkin = DynkinType(Family(family), rank)
    enumerated = [w.window for w in enumerate_group(dynkin) if join_irreducible_type(w) is not None]
    assert [w.window for w in join_irreducibles(dynkin)] == enumerated


@pytest.mark.parametrize(
    "family, rank", [("A", 8), ("A", 9), ("A", 10), ("D", 7), ("D", 8), ("D", 9)]
)
def test_join_irreducibles_past_the_enumeration_cap_match_the_formula(family, rank):
    dynkin = DynkinType(Family(family), rank)
    assert len(join_irreducibles(dynkin)) == global_count(dynkin)


def test_decompose_a8_table():
    w = parse_window(A8, "4,9,3,6,2,8,5,1,7")
    rows = decompose(w)
    table = [(r.d, r.a, r.b, sorted(r.r_values), r.element.window) for r in rows]
    assert table == [
        (2, 9, 3, [3, 5, 6, 7, 8], (1, 2, 4, 9, 3, 5, 6, 7, 8)),
        (4, 6, 2, [2, 5, 7, 8, 9], (1, 3, 4, 6, 2, 5, 7, 8, 9)),
        (6, 8, 5, [5, 7, 9], (1, 2, 3, 4, 6, 8, 5, 7, 9)),
        (7, 5, 1, [1, 6, 7, 8, 9], (2, 3, 4, 5, 1, 6, 7, 8, 9)),
    ]


def test_decompose_d9_table():
    w = parse_window(D9, "5,3,-7,4,-6,-8,9,-1,2")
    rows = decompose(w)
    table = [
        (r.d, r.a, r.b, r.case, sorted(r.r_values), r.element.window) for r in rows
    ]
    assert table == [
        (1, 5, 3, "B", [3, 4, 6, 7, 8, 9], (1, 2, 5, 3, 4, 6, 7, 8, 9)),
        (2, 3, -7, "A", [-3, -1, 2, 4, 5, 8, 9], (6, 7, -3, -1, 2, 4, 5, 8, 9)),
        (4, 4, -6, "B", [-6, -1, 2, 5, 7, 8, 9], (3, 4, -6, -1, 2, 5, 7, 8, 9)),
        (5, -6, -8, "A", [6, 7, 9], (1, 2, 3, 4, 5, 8, 6, 7, 9)),
        (7, 9, -1, "B", [-1, 2], (-3, 4, 5, 6, 7, 8, 9, -1, 2)),
    ]


def test_cjr_direct_small_examples():
    w0 = parse_window(A2, "3,2,1")
    assert cjr_direct(w0) == {
        parse_window(A2, "1,3,2"),
        parse_window(A2, "2,1,3"),
    }
    assert cjr_direct(identity(A8)) == frozenset()
    assert cjr_direct(identity(D9)) == frozenset()


def test_cjr_of_jirr_is_itself():
    w = parse_window(A8, "2,5,8,1,3,4,6,7,9")
    assert cjr_direct(w) == {w}


def test_type_a_jirr_value_at_descent_is_at_least_two():
    for w in enumerate_group(A4):
        l = join_irreducible_type(w)
        if l is not None:
            assert w(l) >= 2


def test_d4_longest_element_joins_back():
    poset = GroupPoset.build(D4)
    w0 = max(poset.elements, key=length)
    cjr = cjr_direct(w0)
    assert poset.join_all(sorted(cjr)) == w0
    assert len(cjr) == len(D4.vertices)


@pytest.mark.parametrize("dynkin", [D4, D5], ids=str)
def test_case_a_needs_b_below_minus_one(dynkin):
    for w in enumerate_group(dynkin):
        for row in decompose(w):
            if row.case == "A":
                assert row.b <= -2


@st.composite
def candidate_r_sets_a(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    size = draw(st.integers(min_value=1, max_value=n))
    values = draw(
        st.sets(st.integers(min_value=1, max_value=n + 1), min_size=size, max_size=size)
    )
    return DynkinType(Family.A, n), frozenset(values)


@given(candidate_r_sets_a())
@settings(max_examples=120, deadline=None)
def test_jirr_from_R_type_a_total_behaviour(case):
    dynkin, values = case
    try:
        w = jirr_from_R(dynkin, values)
    except ValueError:
        # not an R-set: the complement maximum does not exceed min(values)
        complement = set(range(1, dynkin.rank + 2)) - set(values)
        assert not complement or max(complement) < min(values)
        return
    assert r_set(w) == values


@st.composite
def candidate_r_sets_d(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    size = draw(st.integers(min_value=1, max_value=n - 1))
    absolutes = draw(
        st.sets(st.integers(min_value=1, max_value=n), min_size=size, max_size=size)
    )
    signs = [draw(st.booleans()) for _ in absolutes]
    values = frozenset(a if s else -a for a, s in zip(sorted(absolutes), signs))
    return DynkinType(Family.D, n), values


@given(candidate_r_sets_d())
@settings(max_examples=120, deadline=None)
def test_jirr_from_R_type_d_total_behaviour(case):
    dynkin, values = case
    try:
        w = jirr_from_R(dynkin, values)
    except ValueError:
        return  # the constructed window had zero or two descents
    assert r_set(w) == values
    assert join_irreducible_type(w) is not None


@st.composite
def elements(draw):
    dynkin = draw(st.sampled_from([DynkinType(Family.A, 5), D5]))
    return draw(st.sampled_from(enumerate_group(dynkin)))


@given(elements())
@settings(max_examples=80, deadline=None)
def test_one_summand_per_descent(w):
    rows = decompose(w)
    assert [r.d for r in rows] == sorted(descents(w))
    assert len(cjr_direct(w)) == len(descents(w))
    for row in rows:
        assert join_irreducible_type(row.element) is not None


ROWS_GOLDEN = {
    (Family.A, 6): "a2a31685797d7fc650083ecb3ef7e5e289dedd19fb57185fae612de78bf5ea33",
    (Family.D, 6): "cf2b780cd62db60569d36b61e552271f500eca9bd94726d9301d721b45605713",
}


@pytest.mark.parametrize("key", ROWS_GOLDEN, ids=lambda k: f"{k[0].value}{k[1]}")
def test_every_row_is_byte_identical_to_the_golden_digest(key):
    h = hashlib.sha256()
    for w in enumerate_group(DynkinType(*key)):
        rows = [
            [r.d, r.a, r.b, r.case, sorted(r.r_values), list(r.element.window)]
            for r in decompose(w)
        ]
        h.update((json.dumps(rows) + "\n").encode())
    assert h.hexdigest() == ROWS_GOLDEN[key]


# sha256 of the outcome of `jirr_from_R` on every set of values with distinct
# absolute values in [1, n+1], n the window size, with and without 0: the
# window, or the exception's type and message.  Computed while type A still
# had its own R-set inversion.
JIRR_GOLDEN = {
    (Family.A, 2): "81367fd7fa13a71189eb09615614c229342fe4e125389b6754b7ccedfa9d5fd5",
    (Family.A, 3): "f77f6ef3849b017f41cedc26925e6b4b894093c991bcb467ca5ec13d53b6e462",
    (Family.A, 4): "8963ede7e92224826cb4dd80f1c08139cf5f5b2744ffdd214c99b6f8f67ec778",
    (Family.A, 5): "708ee636d440aab4cb557036f1610da6ea0f5422fae73731cb8e8f77351eb69c",
    (Family.A, 6): "93c2e35ef318acf541d0694b46b77be1af09d96e170fff74c7b23e30cb357803",
    (Family.D, 3): "a0060bbfde395bb2b17562774b5dc09fad2b5e6a476cdc7598834739a1b48d72",
    (Family.D, 4): "ab58d512c0d8647b6f7dda9b075762f93f7cd518f2b48be046a1732d54e944a1",
    (Family.D, 5): "abc8a61bd33d186e4b60cb27a3114e7ca400d35253f192cbea6c1eee33bdcfed",
    (Family.D, 6): "ee24aa4a32617227533b09446a77cc6095b4ee262e782f16e75516335e0687df",
}


@pytest.mark.parametrize("key", JIRR_GOLDEN, ids=lambda k: f"{k[0].value}{k[1]}")
def test_every_r_set_outcome_is_byte_identical_to_the_golden_digest(key):
    dynkin = DynkinType(*key)
    h = hashlib.sha256()
    for zero in (False, True):
        for signs in itertools.product((0, 1, -1), repeat=dynkin.window_size + 1):
            values = frozenset([0] * zero + [s * v for v, s in enumerate(signs, start=1) if s])
            try:
                outcome = [sorted(values), list(jirr_from_R(dynkin, values).window)]
            except Exception as err:
                outcome = [sorted(values), type(err).__name__, str(err)]
            h.update((json.dumps(outcome) + "\n").encode())
    assert h.hexdigest() == JIRR_GOLDEN[key]
