from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxbrick.ratlinalg as rl
import dense_oracle as oracle
from coxbrick import verify
from coxbrick.coxeter import DynkinType, Family


# Dense-input conveniences over the sparse kernel, kept here as the tests'
# own: the package itself only ever passes sparse rows.


def row_space_rref(rows: list[tuple]) -> oracle.Mat:
    """Canonical (RREF, zero rows dropped) basis of the span of dense rows."""
    ncols = len(rows[0]) if rows else 0
    return oracle.dense(rl.rref(rl.sparse(rows))[0], ncols)


def same_row_space(rows_a: list[tuple], rows_b: list[tuple]) -> bool:
    return row_space_rref(rows_a) == row_space_rref(rows_b)


def solve_exact(a: oracle.Mat, b: tuple) -> tuple | None:
    """One solution of a x = b, or None when inconsistent."""
    ncols = oracle.shape(a)[1]
    reduced, pivots = rl.rref(rl.sparse(tuple(row) + (y,) for row, y in zip(a, b)))
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = Fraction(row.get(ncols, 0))
    return tuple(x)


def test_rref_basic():
    m = oracle.mat([[2, 4], [1, 2]])
    reduced, pivots = rl.rref(rl.sparse(m))
    assert pivots == (0,)
    assert reduced == [{0: Fraction(1), 1: Fraction(2)}]


def test_nullspace_solves():
    m = oracle.mat([[1, 2, 3], [4, 5, 6]])
    basis = rl.nullspace(rl.sparse(m), 3)
    assert len(basis) == 1
    (v,) = oracle.dense(basis, 3)
    for row in m:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve_exact():
    m = oracle.mat([[1, 1], [1, -1]])
    x = solve_exact(m, (Fraction(3), Fraction(1)))
    assert x == (Fraction(2), Fraction(1))
    inconsistent = oracle.mat([[1, 1], [2, 2]])
    assert solve_exact(inconsistent, (Fraction(1), Fraction(3))) is None


def test_row_space_comparison():
    a = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    b = [(Fraction(0), Fraction(2)), (Fraction(3), Fraction(0))]
    assert same_row_space(a, b)
    assert not same_row_space(a, [(Fraction(1), Fraction(1))])


def test_rref_stays_integral_under_unit_pivots():
    reduced, pivots = rl.rref([{0: 1, 1: 2, 2: -3}, {0: 1, 1: 3}, {1: -1, 2: -3}])
    assert pivots == (0, 1)
    assert reduced == [{0: 1, 2: -9}, {1: 1, 2: 3}]
    assert all(type(x) is int for row in reduced for x in row.values())


def test_rref_promotes_at_a_non_unit_pivot():
    reduced, pivots = rl.rref([{1: 2, 3: 1}, {0: -1, 1: 1}])
    assert pivots == (0, 1)
    assert reduced == [{0: 1, 3: Fraction(1, 2)}, {1: 1, 3: Fraction(1, 2)}]
    assert type(reduced[1][3]) is Fraction


def test_rref_leaves_its_input_unchanged():
    rows = [{0: 2, 1: 4}, {0: 1, 2: 1}]
    rl.rref(rows)
    assert rows == [{0: 2, 1: 4}, {0: 1, 2: 1}]


def test_nullspace_without_equations_is_the_standard_basis():
    assert rl.nullspace([], 0) == []
    assert rl.nullspace([{}, {}], 2) == [{0: 1}, {1: 1}]


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    data = [[draw(small_entries) for _ in range(cols)] for _ in range(rows)]
    return oracle.mat(data)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_nullity(m):
    ncols = oracle.shape(m)[1]
    assert rl.rank(rl.sparse(m)) + len(rl.nullspace(rl.sparse(m), ncols)) == ncols


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_nullspace_vectors_annihilate(m):
    ncols = oracle.shape(m)[1]
    for v in oracle.dense(rl.nullspace(rl.sparse(m), ncols), ncols):
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rref_idempotent(m):
    reduced, pivots = rl.rref(rl.sparse(m))
    assert rl.rref(reduced) == (reduced, pivots)


# Differential tests: the sparse kernel against dense Gauss-Jordan.

entry_kinds = {
    "unit": st.sampled_from([0, 0, 0, 1, -1]),
    "integer": small_entries,
    "rational": st.builds(
        Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
    ),
}


@st.composite
def shaped_matrices(draw):
    """(matrix, ncols) with 0-6 rows and 0-6 columns, some rows all zero."""
    entries = entry_kinds[draw(st.sampled_from(sorted(entry_kinds)))]
    nrows = draw(st.integers(min_value=0, max_value=6))
    ncols = draw(st.integers(min_value=0, max_value=6))
    data = []
    for _ in range(nrows):
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            data.append([0] * ncols)
        else:
            data.append([draw(entries) for _ in range(ncols)])
    return oracle.mat(data), ncols


def _densify(row: dict, ncols: int) -> tuple:
    return tuple(row.get(c, 0) for c in range(ncols))


@given(shaped_matrices())
@settings(max_examples=300, deadline=None)
def test_sparse_rref_equals_dense_oracle(case):
    m, ncols = case
    reduced, pivots = rl.rref(rl.sparse(m))
    dense, dense_pivots = oracle.rref(m)
    assert pivots == dense_pivots
    assert [_densify(row, ncols) for row in reduced] == list(dense[: len(pivots)])
    assert all(x != 0 for row in reduced for x in row.values())


@given(shaped_matrices())
@settings(max_examples=300, deadline=None)
def test_sparse_nullspace_equals_dense_oracle(case):
    m, ncols = case
    basis = rl.nullspace(rl.sparse(m), ncols)
    assert list(oracle.dense(basis, ncols)) == oracle.nullspace(m, ncols)
    # int, or Fraction where not integral, and never a stored zero
    assert all(
        x != 0 and (type(x) is int or (type(x) is Fraction and x.denominator != 1))
        for v in basis
        for x in v.values()
    )


@given(shaped_matrices())
@settings(max_examples=200, deadline=None)
def test_row_space_rref_equals_dense_oracle(case):
    m, _ = case
    dense, pivots = oracle.rref(m)
    assert row_space_rref(list(m)) == dense[: len(pivots)]
    assert rl.rank(rl.sparse(m)) == len(pivots)


@given(shaped_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_solve_exact_agrees_with_dense_oracle(case, data):
    m, _ = case
    ncols = oracle.shape(m)[1]  # a dense matrix without rows has no columns
    b = tuple(Fraction(data.draw(small_entries)) for _ in m)
    augmented = tuple(row + (y,) for row, y in zip(m, b))
    consistent = ncols not in oracle.rref(augmented)[1]
    x = solve_exact(m, b)
    assert (x is not None) == consistent
    if x is not None:
        assert len(x) == ncols and all(type(e) is Fraction for e in x)
        assert all(sum(a * e for a, e in zip(row, x)) == y for row, y in zip(m, b))


@st.composite
def product_cases(draw):
    """(a, b): dense matrices of shapes r x k and k x c, 1 <= r, k, c <= 6,
    with entries of one kind and some rows all zero."""
    entries = entry_kinds[draw(st.sampled_from(sorted(entry_kinds)))]
    r, k, c = (draw(st.integers(min_value=1, max_value=6)) for _ in range(3))

    def matrix(nrows, ncols):
        rows = []
        for _ in range(nrows):
            zero = draw(st.integers(min_value=0, max_value=4)) == 0
            rows.append([0 if zero else draw(entries) for _ in range(ncols)])
        return oracle.mat(rows)

    return matrix(r, k), matrix(k, c)


@given(product_cases())
@settings(max_examples=300, deadline=None)
def test_sparse_mat_mul_equals_dense_product(case):
    a, b = case
    product = rl.mat_mul(tuple(rl.sparse(a)), tuple(rl.sparse(b)))
    assert oracle.dense(product, oracle.shape(b)[1]) == oracle.mat_mul(a, b)
    assert all(x != 0 for row in product for x in row.values())


def test_mat_mul_rejects_a_column_past_the_rows_of_the_right_factor():
    with pytest.raises(ValueError, match="shape mismatch"):
        rl.mat_mul(({0: 1, 2: 1},), ({0: 1}, {1: 1}))


# The presolve of `nullspace`: rows x_a = 0 and x_a = +-x_b read as signed
# classes before elimination, checked against dense Gauss-Jordan.


def test_nullspace_presolve_merges_a_chain_onto_its_largest_column():
    # x0 = x2 and x2 = -x3: one class, read off at column 3
    assert rl.nullspace([{0: 1, 2: -1}, {2: 2, 3: 2}], 4) == [{1: 1}, {0: -1, 2: -1, 3: 1}]


def test_nullspace_presolve_zeroes_an_odd_sign_cycle():
    # x0 = x1 = x2 and x0 = -x2 leave only x = 0
    assert rl.nullspace([{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: 1}], 3) == []


def test_nullspace_presolve_zeroes_a_class_merged_with_a_zeroed_one():
    assert rl.nullspace([{1: 5}, {0: 1, 2: -1}, {2: -1, 1: 1}], 4) == [{3: 1}]


def test_nullspace_presolve_rewrites_the_rest_on_class_columns():
    # x0 = -x1 and 2 x1 + x2 = 0: x = t (1/2, -1/2, 1)
    basis = rl.nullspace([{0: 1, 1: 1}, {1: 2, 2: 1}], 3)
    assert basis == [{0: Fraction(1, 2), 1: Fraction(-1, 2), 2: 1}]
    assert type(basis[0][2]) is int


@pytest.mark.parametrize("order", ["increasing", "decreasing", "interleaved"])
def test_nullspace_presolve_reads_a_long_signed_chain(order):
    # x_i = s_i x_{i+1} for i < n - 1 leaves one vector with 1 at column n - 1,
    # and column n is free; far longer than Python's recursion limit
    n = 5_001
    signs = [1 if i % 3 else -1 for i in range(n - 1)]
    links = list(range(n - 1))
    if order == "decreasing":
        links.reverse()
    elif order == "interleaved":
        links = links[::2] + links[-1::-2]
    rows = [{i: 2, i + 1: -2 * signs[i]} if i % 2 else {i + 1: signs[i], i: -1} for i in links]
    chain = {n - 1: 1}
    for i in reversed(range(n - 1)):
        chain[i] = signs[i] * chain[i + 1]
    assert rl.nullspace(rows, n + 1) == [chain, {n: 1}]
    # closing the chain with x_0 = -chain[0] x_{n-1} zeroes all of it, and so
    # does zeroing one column before the chain is linked
    assert rl.nullspace(rows + [{0: 1, n - 1: chain[0]}], n + 1) == [{n: 1}]
    assert rl.nullspace([{0: 3}] + rows, n + 1) == [{n: 1}]


def test_nullspace_hands_rref_an_empty_system_when_the_presolve_reads_every_row(monkeypatch):
    calls = []
    rref = rl.rref
    monkeypatch.setattr(rl, "rref", lambda rows: calls.append(rows) or rref(rows))
    # x0 = -x3 and x1 = x0, x2 = 0 merged into x4 = -x5, and x6 = 0
    rows = [{0: 2, 3: 2}, {}, {0: 1, 1: -1}, {2: 5}, {4: 1, 5: 1}, {2: -1, 4: 1}, {6: -1}]
    assert rl.nullspace(rows, 8) == [{3: 1, 0: -1, 1: -1}, {7: 1}]
    assert calls == [[]]


unit = st.sampled_from([1, -1])
coefficient = st.sampled_from([1, -1, 1, -1, 2, -3, Fraction(1, 2), Fraction(-4, 3)])


@st.composite
def presolve_systems(draw):
    """(rows, ncols): systems in up to 8 unknowns made mostly of the rows the
    presolve reads (one term; two terms with equal or opposite
    coefficients, alone, in chains, in odd sign cycles, or merged into a
    zeroed unknown), with empty rows and residue rows of integer and
    `Fraction` entries, non-unit ones included."""
    ncols = draw(st.integers(min_value=0, max_value=8))
    rows: list[dict] = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from(["zero", "pair", "chain", "cycle", "zeroed", "empty", "rest"]))
        cols = draw(st.permutations(range(ncols)))
        if kind == "empty" or not cols:
            rows.append({})
        elif kind == "zero" or len(cols) == 1:
            rows.append({cols[0]: draw(coefficient)})
        elif kind == "pair":
            x = draw(coefficient)
            rows.append({cols[0]: x, cols[1]: x * draw(unit)})
        elif kind in ("chain", "cycle"):
            k = draw(st.integers(min_value=2, max_value=len(cols)))
            signs = [draw(unit) for _ in range(k - 1)]
            for a, b, s in zip(cols, cols[1:k], signs):
                x = draw(coefficient)
                rows.append({a: x, b: s * x})
            if kind == "cycle" and k > 2:
                # close the loop with the sign that makes it inconsistent
                x = draw(coefficient)
                odd = -1 if signs.count(1) % 2 == 0 else 1
                rows.append({cols[k - 1]: x, cols[0]: odd * x})
        elif kind == "zeroed":
            rows += [{cols[0]: draw(coefficient)}, {cols[0]: 1, cols[1]: draw(unit)}]
        else:
            k = draw(st.integers(min_value=1, max_value=len(cols)))
            rows.append({c: draw(entry_kinds["rational"].filter(bool) | coefficient) for c in cols[:k]})
    return rows, ncols


@given(presolve_systems())
@settings(max_examples=300, deadline=None)
def test_presolved_nullspace_equals_dense_oracle(case):
    rows, ncols = case
    before = [dict(row) for row in rows]
    basis = rl.nullspace(rows, ncols)
    assert rows == before
    assert list(oracle.dense(basis, ncols)) == oracle.nullspace(oracle.dense(rows, ncols), ncols)
    # int, or Fraction where not integral, and never a stored zero
    assert all(
        x != 0 and (type(x) is int or (type(x) is Fraction and x.denominator != 1))
        for v in basis
        for x in v.values()
    )


def rref_readout(rows: list[dict], ncols: int) -> list[dict]:
    """The nullspace basis read off `rref` alone, with no presolve."""
    reduced, pivots = rl.rref(rows)
    basis = []
    for free in sorted(set(range(ncols)).difference(pivots)):
        v = {free: 1}
        for p, row in zip(pivots, reduced):
            if free in row:
                v[p] = rl.integral(-row[free])
        basis.append(v)
    return basis


@pytest.mark.parametrize("dynkin", [DynkinType(Family.A, 6), DynkinType(Family.D, 5)], ids=str)
def test_every_oracle_system_equals_the_rref_readout(dynkin, monkeypatch):
    systems = []
    nullspace = rl.nullspace

    def recorded(rows, ncols):
        systems.append(([dict(row) for row in rows], ncols))
        return nullspace(rows, ncols)

    monkeypatch.setattr(rl, "nullspace", recorded)
    assert verify.oracle(dynkin).ok
    monkeypatch.undo()
    # Hom systems, the radical's Gram matrices and the socles' kernels
    assert len(systems) >= 500
    assert sum(any(len(row) <= 2 for row in rows) for rows, _ in systems) > len(systems) // 2
    for rows, ncols in systems:
        assert nullspace(rows, ncols) == rref_readout(rows, ncols), (rows, ncols)
