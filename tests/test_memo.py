"""Per-join-irreducible memoisation in `DynkinType.memo`."""

import pytest

from coxbrick import verify
from coxbrick.bricks import brick_diagram, brick_params_a, brick_params_d
from coxbrick.canjoin import _left_values, r_set
from coxbrick.census import chi, sigma
from coxbrick.coxeter import (
    CoxeterElement,
    DynkinType,
    Family,
    enumerate_group,
    join_irreducible_type,
)

MEMOISED = {
    Family.A: (r_set, _left_values, brick_params_a, brick_diagram),
    Family.D: (r_set, _left_values, brick_params_d, brick_diagram, sigma, chi),
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
    assert {name for name, _ in keys} >= {"_left_values", "brick_diagram", "sigma", "chi"}
    for _name, window in keys:
        assert join_irreducible_type(CoxeterElement(d5, window)) is not None, window
