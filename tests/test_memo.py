"""Per-join-irreducible and per-row memoisation in `DynkinType.memo`."""

import pytest

from coxbrick import canjoin, verify
from coxbrick.bricks import brick_diagram
from coxbrick.canjoin import decompose, jirr_from_R, r_set
from coxbrick.census import chi, sigma
from coxbrick.coxeter import (
    CoxeterElement,
    DynkinType,
    Family,
    enumerate_group,
    join_irreducible_type,
)

MEMOISED = {
    Family.A: (r_set, brick_diagram),
    Family.D: (r_set, brick_diagram, sigma, chi),
}
NAMES = {fn.__name__ for fns in MEMOISED.values() for fn in fns}


@pytest.mark.parametrize("family", [Family.A, Family.D])
def test_memoised_values_equal_a_fresh_type_and_repeat(family):
    dynkin = DynkinType(family, 5)
    for w in enumerate_group(dynkin):
        if join_irreducible_type(w) is None:
            continue
        fresh = CoxeterElement(DynkinType(family, 5), w.window)
        for fn in MEMOISED[family]:
            value = fn(w)
            assert value == fn(fresh), (fn.__name__, w)
            assert fn(w) is value, (fn.__name__, w)
            assert dynkin.memo[fn.__name__, w.window] is value


@pytest.mark.parametrize("family", [Family.A, Family.D])
def test_non_join_irreducibles_raise_and_store_nothing(family):
    dynkin = DynkinType(family, 4)
    for w in enumerate_group(dynkin):
        if join_irreducible_type(w) is not None:
            continue
        for fn in MEMOISED[family]:
            size = len(dynkin.memo)
            with pytest.raises(ValueError):
                fn(w)
            assert len(dynkin.memo) == size, (fn.__name__, w)


def test_sweeps_memoise_join_irreducibles_only():
    d5 = DynkinType(Family.D, 5)
    assert verify.cjr(d5).ok
    assert verify.census(d5, verify.default_fixture_lines()).ok
    keys = [key for key in d5.memo if isinstance(key, tuple) and key[0] in NAMES]
    assert {name for name, _ in keys} >= {"r_set", "brick_diagram", "sigma", "chi"}
    for _name, window in keys:
        assert join_irreducible_type(CoxeterElement(d5, window)) is not None, window


def _row_key(w, d):
    """(d, a, b, X) of the descent d of w, X as a set."""
    return (d, w(d), w(abs(d) + 1), frozenset(w.window[abs(d) :]))


@pytest.mark.parametrize("family", [Family.A, Family.D])
def test_rows_on_a_warm_type_equal_rows_on_a_fresh_type(family):
    dynkin = DynkinType(family, 5)
    elements = enumerate_group(dynkin)
    for w in elements:
        decompose(w)
    size = len(dynkin.memo["cjr_rows"])
    for w in elements:
        # A fresh type has an empty row table, so every row is recomputed.
        cold = decompose(CoxeterElement(DynkinType(family, 5), w.window))
        warm = decompose(w)
        assert warm == cold, w
        assert all(x is y for x, y in zip(warm, decompose(w))), w
    assert len(dynkin.memo["cjr_rows"]) == size


@pytest.mark.parametrize("family", [Family.A, Family.D])
def test_row_table_holds_one_row_per_key(family):
    dynkin = DynkinType(family, 5)
    keys = set()
    for w in enumerate_group(dynkin):
        for row in decompose(w):
            keys.add(_row_key(w, row.d))
            assert (row.d, row.a, row.b) == _row_key(w, row.d)[:3]
    rows = dynkin.memo["cjr_rows"]
    assert len(rows) == len(keys)
    assert len(set(map(id, rows.values()))) == len(rows)


@pytest.mark.parametrize("family", [Family.A, Family.D])
def test_rows_of_one_join_irreducible_share_its_r_set(family):
    dynkin = DynkinType(family, 4)
    for w in enumerate_group(dynkin):
        for row in decompose(w):
            assert row.r_values is r_set(row.element), (w, row.d)


def _reversed_jirr(dynkin, r_values):
    """w_d with its window reversed.  Of the n - |R| values that the row check
    reads before the R block, one then lies in +/-R, so their absolute values
    never give L(w_d), the complement of |R|."""
    w = jirr_from_R(dynkin, r_values)
    return CoxeterElement(dynkin, w.window[::-1])


@pytest.mark.parametrize("family", [Family.A, Family.D])
def test_failed_row_check_raises_and_stores_no_row(monkeypatch, family):
    monkeypatch.setattr(canjoin, "jirr_from_R", _reversed_jirr)
    for w in enumerate_group(DynkinType(family, 3)):
        if join_irreducible_type(w) is None:
            continue
        with pytest.raises(AssertionError, match=str(w)):
            decompose(w)
        assert len(w.dynkin.memo.get("cjr_rows", {})) == 0, w
