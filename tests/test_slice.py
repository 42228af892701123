"""Type A as the all-positive slice of type D: A_n = <s_1,...,s_n> inside
D_{n+1}, its elements being the D_{n+1} windows with positive values."""

import pytest

from coxbrick.canjoin import decompose, r_set
from coxbrick.coxeter import (
    CoxeterElement,
    DynkinType,
    Family,
    descents,
    enumerate_group,
    inversions,
    join_irreducible_type,
)

RANKS = range(1, 6)


def _row(row, case):
    return (row.d, row.a, row.b, case, row.r_values, row.element.window)


@pytest.mark.parametrize("n", RANKS, ids=lambda n: f"A{n}")
def test_enumeration_is_the_positive_windows_of_type_d(n):
    windows = [w.window for w in enumerate_group(DynkinType(Family.A, n))]
    positive = [
        w.window for w in enumerate_group(DynkinType(Family.D, n + 1)) if min(w.window) > 0
    ]
    assert windows == positive


@pytest.mark.parametrize("n", RANKS, ids=lambda n: f"A{n}")
def test_every_type_a_element_reads_the_same_as_a_type_d_window(n):
    dn1 = DynkinType(Family.D, n + 1)
    for w in enumerate_group(DynkinType(Family.A, n)):
        v = CoxeterElement(dn1, w.window)
        assert inversions(w) == inversions(v), w
        assert descents(w) == descents(v), w
        assert join_irreducible_type(w) == join_irreducible_type(v), w
        if join_irreducible_type(w) is not None:
            assert r_set(w) == r_set(v), w
        assert [_row(r, "B") for r in decompose(w)] == [
            _row(r, r.case) for r in decompose(v)
        ], w
        assert all(r.case is None for r in decompose(w)), w
