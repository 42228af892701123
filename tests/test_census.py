"""Shape/character invariants and the rank-5 reference list."""

import itertools

import pytest

from coxbrick.canjoin import join_irreducibles
from coxbrick.census import (
    chi_values,
    ShapeSigma,
    census,
    census_diff,
    census_lines,
    census_record,
    chi,
    feasible_shapes,
    global_count,
    parse_census_line,
    shape_count,
    sigma,
)
from coxbrick.coxeter import (
    DynkinType,
    Family,
    parse_window,
    simple_reflection,
)
from coxbrick.verify import default_fixture_lines

A3 = DynkinType(Family.A, 3)
D4 = DynkinType(Family.D, 4)
D5 = DynkinType(Family.D, 5)
D6 = DynkinType(Family.D, 6)


def test_sigma_examples():
    assert sigma(parse_window(D5, "-1,2,-5,-4,-3")) == ShapeSigma(2, -5, 0)
    assert sigma(simple_reflection(D5, 1)) == ShapeSigma(2, 1, 0)


def test_chi_examples():
    # set-level arithmetic
    assert chi_values({2, -5, 3, 4}, 5) == (0, 2, 2, 2, 1)
    # element-level wrapper
    assert chi(parse_window(D5, "-1,2,-5,3,4")) == (0, 0, 2, 2, 1)
    assert chi(simple_reflection(D5, 1)) == (2, 0, 2, 2, 2)


def test_shape_count_examples():
    assert shape_count(ShapeSigma(5, -4, 3), 5) == 8
    assert shape_count(ShapeSigma(2, 1, 0), 5) == 1
    assert shape_count(ShapeSigma(4, -5, 1), 5) == 6
    with pytest.raises(ValueError):
        shape_count(ShapeSigma(2, -2, 0), 5)


def test_global_count_examples():
    assert global_count(A3) == 11
    assert global_count(DynkinType(Family.A, 8)) == 502
    assert global_count(D5) == 157
    assert global_count(D4) == 44
    assert global_count(DynkinType(Family.A, 4)) == 26


@pytest.mark.parametrize("n", [4, 5, 6])
def test_shape_counts_sum_to_global(n):
    total = sum(shape_count(s, n) for s in feasible_shapes(n))
    assert total == global_count(DynkinType(Family.D, n))


def test_census_d4_total():
    groups = census(D4)
    assert sum(len(v) for v in groups.values()) == 44
    for shape, entries in groups.items():
        assert len(entries) == shape_count(shape, 4)


def test_census_d6_per_shape_counts():
    groups = census(D6)
    assert sum(len(v) for v in groups.values()) == 530
    for shape, entries in groups.items():
        assert len(entries) == shape_count(shape, 6)


def test_census_entries_sorted_by_chi():
    groups = census(D5)
    for entries in groups.values():
        chis = [chi(w) for w, _ in entries]
        assert chis == sorted(chis)
        assert len(set(chis)) == len(chis)


def test_census_rejects_type_a():
    with pytest.raises(ValueError):
        census(DynkinType(Family.A, 4))


def test_census_d8_past_the_enumeration_cap():
    # |W(D8)| = 5,160,960 is over the default cap; the census never enumerates
    groups = census(DynkinType(Family.D, 8))
    assert sum(len(v) for v in groups.values()) == 5528
    for shape, entries in groups.items():
        assert len(entries) == shape_count(shape, 8)


def test_chi_injective():
    for dynkin in (D4, D5):
        seen = set()
        for w in join_irreducibles(dynkin):
            value = chi(w)
            assert value not in seen
            seen.add(value)


def _chi_product_set(shape: ShapeSigma, n: int) -> set[tuple[int, ...]]:
    """The predicted chi fibre over one shape, as a product of per-index sets."""
    a, b, rp = shape.a, shape.b, shape.rp
    factors = []
    for i in range(1, n + 1):
        if b >= -1:
            if i < abs(b):
                factors.append({0})
            elif i == abs(b):
                factors.append({1} if b == -1 else {2})
            elif i < a:
                factors.append({0, 2})
            elif i == a:
                factors.append({0})
            else:
                factors.append({2})
        elif -a < b <= -2:
            if i <= rp:
                factors.append({1, 2})
            elif i == rp + 1 and i != abs(b):
                factors.append({0})
            elif i < abs(b):
                factors.append({0, 1, 2})
            elif i == abs(b):
                factors.append({1})
            elif i < a:
                factors.append({0, 2})
            elif i == a:
                factors.append({0})
            else:
                factors.append({2})
        else:  # b < -a
            if i <= rp:
                factors.append({1, 2})
            elif i == rp + 1:
                factors.append({0})
            elif i < a:
                factors.append({0, 1, 2})
            elif i == a:
                factors.append({0})
            elif i < abs(b):
                factors.append({1, 2})
            elif i == abs(b):
                factors.append({1})
            else:
                factors.append({2})
    return {tuple(t) for t in itertools.product(*factors)}


def test_chi_fibres_are_product_sets_at_rank_5():
    groups = census(D5)
    for shape, entries in groups.items():
        got = {chi(w) for w, _ in entries}
        assert got == _chi_product_set(shape, 5), shape


def test_census_matches_fixture():
    groups = census(D5)
    problems = census_diff(groups, default_fixture_lines())
    assert problems == []


def test_census_record_roundtrip():
    groups = census(D5)
    shape = ShapeSigma(2, -5, 0)
    w, diag = groups[shape][0]
    line = census_record(shape, w, diag)
    rec = parse_census_line(line)
    assert rec["sigma"] == shape
    assert rec["window"] == w.window
    assert rec["symbols"] == diag.symbols
    assert rec["arrows"] == diag.arrows


def test_census_diff_detects_tampering():
    groups = census(D5)
    fixture = default_fixture_lines()
    broken = list(fixture)
    broken[0] = broken[0].replace("arrows=", "arrows=4>3;")
    assert census_diff(groups, broken)
    assert census_diff(groups, fixture[:-1])


def test_census_lines_match_fixture_text():
    assert census_lines(census(D5)) == default_fixture_lines()
