"""Projective grids, the modules J(w), and the kernel route to the socle."""

import re

import pytest

from coxbrick import grids
from coxbrick.canjoin import join_irreducibles
from coxbrick.coxeter import (
    DynkinType,
    Family,
    enumerate_group,
    join_irreducible_type,
    parse_window,
    simple_reflection,
)
from coxbrick.grids import (
    UnsupportedCaseError,
    epsilon_for,
    gamma_full,
    gamma_of,
    j_module,
    kernel_socle,
    projective_rep,
)
from coxbrick.homs import hom_dim, socle_over_end, subrepresentation
from coxbrick.quiver import RelationError, double_quiver, symbol_vertex

A2 = DynkinType(Family.A, 2)
A8 = DynkinType(Family.A, 8)
D5 = DynkinType(Family.D, 5)
D9 = DynkinType(Family.D, 9)


def test_double_quiver_shape():
    q = double_quiver(A8)
    assert len(q.arrows) == 2 * 7
    q5 = double_quiver(D5)
    assert len(q5.arrows) == 2 * 4
    names = {a.name for a in q5.arrows}
    assert {"alpha1+", "alpha1-", "beta2+", "beta2-", "alpha2", "beta3"} <= names


def test_projective_dimensions():
    p = projective_rep(A2, 1)
    assert p.dim_vector() == {1: 1, 2: 1}
    p = projective_rep(A8, 3)
    assert [p.dims[v] for v in A8.vertices] == [1, 2, 3, 3, 3, 3, 2, 1]
    assert p.total_dim == 18
    p = projective_rep(D5, 1)
    assert p.total_dim == 10
    rows = {}
    for (i, j) in gamma_full(D5, 1).entries:
        rows.setdefault(j, []).append(i)
    assert sorted(len(v) for v in rows.values()) == [1, 2, 3, 4]


def test_projectives_satisfy_relations_everywhere():
    for dynkin in (A2, DynkinType(Family.A, 5), DynkinType(Family.D, 4), D5):
        for l in dynkin.vertices:
            projective_rep(dynkin, l).check_relations()


def test_relation_checker_catches_corruption():
    rep = projective_rep(DynkinType(Family.A, 3), 2)
    bad_mats = dict(rep.mats)
    bad_mats["alpha1"] = tuple(
        {c: -x for c, x in row.items()} for row in bad_mats["alpha1"]
    )
    # the mesh at vertex 2 (alpha2 beta3 = beta2 alpha1) now fails by a sign
    from coxbrick.quiver import QuiverRepresentation

    with pytest.raises(RelationError):
        QuiverRepresentation(rep.quiver, rep.dims, bad_mats).check_relations()


def test_j_module_a8_example():
    w = parse_window(A8, "2,5,8,1,3,4,6,7,9")
    J = j_module(w)
    assert J.total_dim == 9
    assert [J.dims[v] for v in A8.vertices] == [1, 1, 2, 2, 1, 1, 1, 0]


def test_j_module_of_simple_generator():
    for dynkin, l in [(A8, 3), (D5, -1), (D5, 2)]:
        s = simple_reflection(dynkin, l)
        J = j_module(s)
        assert J.total_dim == 1
        assert J.dims[l] == 1


def test_epsilon_for_rejects_all_but_type_d_with_descent_at_least_two():
    # ValueError, not an assertion, so `python -O` keeps the check.
    a4 = DynkinType(Family.A, 4)
    for dynkin, text in [(D5, "2,1,3,4,5"), (a4, "1,3,2,4,5"), (D5, "2,1,4,3,5")]:
        with pytest.raises(ValueError):
            epsilon_for(parse_window(dynkin, text))


def test_j_module_d9_squares():
    w = parse_window(D9, "-6,9,-7,-4,-1,2,3,5,8")
    assert epsilon_for(w) == -1
    grid = gamma_of(w)
    rows: dict[int, list[int]] = {}
    for (i, j) in grid.entries:
        rows.setdefault(j, []).append(i)
    sizes = [len(rows[j]) for j in sorted(rows)]
    assert sizes == [8, 6, 4, 4, 4, 3, 1]
    # drawn squares merge the two +-1 entries of a row into one box
    squares = [
        len(rows[j]) - (1 if {1, -1} <= set(rows[j]) else 0) for j in sorted(rows)
    ]
    assert squares == [7, 5, 4, 4, 4, 3, 1]
    assert sum(squares) == 28
    assert j_module(w).total_dim == 30


def test_j_module_rejects_non_jirr():
    with pytest.raises(ValueError):
        j_module(parse_window(A2, "3,2,1"))


def test_gamma_full_rejects_a_non_vertex():
    with pytest.raises(ValueError, match="^7 is not a vertex of D5$"):
        gamma_full(D5, 7)


def test_projectivity_dimension_identity():
    # dim Hom(Pi e_l, M) = dim e_l M
    w = parse_window(A8, "2,5,8,1,3,4,6,7,9")
    J = j_module(w)
    for l in (1, 3, 5):
        assert hom_dim(projective_rep(A8, l), J) == J.dims[l]
    d5_w = parse_window(D5, "-1,2,-5,-4,-3")
    J5 = j_module(d5_w)
    for l in D5.vertices:
        assert hom_dim(projective_rep(D5, l), J5) == J5.dims[l]


def test_kernel_socle_a8():
    w = parse_window(A8, "2,5,8,1,3,4,6,7,9")
    K = kernel_socle(w)
    S = socle_over_end(j_module(w))
    assert K.dims == S.dims and K.mats == S.mats
    assert [K.dims[v] for v in A8.vertices] == [1, 1, 1, 1, 1, 1, 1, 0]


def test_kernel_socle_of_generator_is_whole_module():
    s = simple_reflection(A8, 4)
    assert kernel_socle(s).total_dim == j_module(s).total_dim == 1


def test_kernel_socle_d9_type_one():
    w = parse_window(D9, "9,-7,-6,-4,-1,2,3,5,8")
    K = kernel_socle(w)
    assert K.total_dim == 14
    S = socle_over_end(j_module(w))
    assert K.dims == S.dims and K.mats == S.mats


def test_kernel_positions_d9_type_one():
    # the exact grid squares spanning the socle inside J(w)
    w = parse_window(D9, "9,-7,-6,-4,-1,2,3,5,8")
    grid = gamma_of(w)
    kernel = set()
    for (i, j) in grid.entries:
        two_down = 3 if abs(j) == 1 else j + 2
        if two_down > 8 or (i, two_down) not in grid.entries:
            kernel.add((i, j))
    assert kernel == {
        (1, 3),
        (2, 4), (-1, 4),
        (4, 5), (3, 5), (2, 5),
        (6, 6), (5, 6), (4, 6), (3, 6),
        (7, 7), (6, 7), (5, 7),
        (8, 8),
    }


def _keep(l: int, w, i: int, j: int) -> bool:
    """Whether entry (i, j) of Gamma[l] survives in Gamma(w), decided entry
    by entry: the oracle for `gamma_of`, which decides a row at a time."""
    if abs(l) == 1:
        return i >= w(abs(j) + 1)
    threshold = w(j + 1)
    if threshold >= 2:
        return i >= threshold
    if abs(threshold) == 1:
        return i >= 2 or i == threshold
    return i >= threshold + 1


@pytest.mark.parametrize(
    "dynkin",
    [DynkinType(Family.A, n) for n in range(2, 7)] + [DynkinType(Family.D, n) for n in range(4, 7)],
    ids=str,
)
def test_gamma_of_equals_the_per_entry_rule(dynkin):
    for w in join_irreducibles(dynkin):
        l = join_irreducible_type(w)
        kept = {(i, j) for (i, j) in gamma_full(dynkin, l).entries if _keep(l, w, i, j)}
        assert gamma_of(w).entries == kept, w


def test_j_module_d9_type_two_row_with_single_sign():
    # threshold w(j+1) = -1 keeps both of +-1 only above it; at the
    # threshold row exactly the matching sign survives
    w = parse_window(D9, "-6,9,-7,-4,-1,2,3,5,8")
    grid = gamma_of(w)
    row4 = {i for (i, j) in grid.entries if j == 4}
    assert row4 == {-1, 2, 3, 4}


def shifted_out(w) -> set:
    """The kept entries of Gamma(w) whose loop shift leaves Gamma(w): one
    row down in type A, two rows down in type D with descent +-1."""
    grid = gamma_of(w)
    rows = sorted({j for (_, j) in gamma_full(w.dynkin, grid.l).entries}, key=abs)
    below = {j: rows[k + 1 : k + 3] for k, j in enumerate(rows)}
    step = 1 if w.dynkin.family is Family.A else 2
    return {
        (i, j)
        for (i, j) in grid.entries
        if len(below[j]) < step or (i, below[j][step - 1]) not in grid.entries
    }


def kernel_by_subrepresentation(w):
    """The kernel route through J(w): `subrepresentation` of `j_module(w)`
    on the unit vectors of the shifted-out entries, each vertex's basis in
    sorted key order.  The reference for `kernel_socle`."""
    grid = gamma_of(w)
    kernel = shifted_out(w)
    basis_rows = {}
    for v in w.dynkin.vertices:
        keys = sorted(key for key in grid.entries if symbol_vertex(key[0]) == v)
        basis_rows[v] = [{c: 1} for c, key in enumerate(keys) if key in kernel]
    return subrepresentation(j_module(w), basis_rows)


KERNEL_TYPES = [DynkinType(Family.A, n) for n in range(2, 7)] + [
    DynkinType(Family.D, n) for n in range(4, 7)
]


@pytest.mark.parametrize("dynkin", KERNEL_TYPES, ids=str)
def test_kernel_socle_equals_the_subrepresentation_of_j(dynkin):
    checked = 0
    for w in join_irreducibles(dynkin):
        if dynkin.family is Family.D and join_irreducible_type(w) >= 2:
            continue
        reference, kernel = kernel_by_subrepresentation(w), kernel_socle(w)
        assert kernel.dims == reference.dims and kernel.mats == reference.mats, w
        checked += 1
    assert checked > 0


def _leak_into_kept_entry(monkeypatch, w, coeffs):
    """Make `_grid_images` send one kernel entry of w to a kept entry outside
    the kernel, with the coefficients `coeffs`; return the arrow they use."""
    grid = gamma_of(w)
    kernel = shifted_out(w)
    quiver = double_quiver(w.dynkin)
    arrow, key, image = next(
        (a, key, image)
        for a in quiver.arrows
        for key in sorted(kernel)
        for image in sorted(grid.entries - kernel)
        if (symbol_vertex(image[0]), symbol_vertex(key[0])) == (a.src, a.tgt)
    )
    images = grids._grid_images

    def leaky(g):
        out = images(g)
        if g.entries == grid.entries:
            out[key] = out[key] + [(x, image) for x in coeffs]
        return out

    monkeypatch.setattr(grids, "_grid_images", leaky)
    return arrow


@pytest.mark.parametrize(
    "dynkin, window", [(A8, "2,5,8,1,3,4,6,7,9"), (D9, "9,-7,-6,-4,-1,2,3,5,8")], ids=str
)
def test_kernel_socle_rejects_a_kernel_that_is_not_invariant(monkeypatch, dynkin, window):
    w = parse_window(dynkin, window)
    arrow = _leak_into_kept_entry(monkeypatch, w, [1])
    message = re.escape(f"subspace not invariant under {arrow.name}") + "$"
    with pytest.raises(ValueError, match=message):
        kernel_socle(w)


def test_kernel_socle_sums_the_images_under_one_arrow(monkeypatch):
    # images that cancel leave the kernel invariant, as in subrepresentation
    w = parse_window(A8, "2,5,8,1,3,4,6,7,9")
    expected = kernel_socle(w)
    _leak_into_kept_entry(monkeypatch, w, [1, -1])
    assert kernel_socle(w) == expected


def test_kernel_socle_unsupported_for_d_high_type():
    w = parse_window(D9, "-6,9,-7,-4,-1,2,3,5,8")
    with pytest.raises(UnsupportedCaseError):
        kernel_socle(w)


def test_epsilon_prop_and_lemma_agree():
    from coxbrick.bricks import brick_diagram

    for dynkin in (DynkinType(Family.D, 4), D5):
        for w in enumerate_group(dynkin):
            l = join_irreducible_type(w)
            if l is None or l < 2:
                continue
            if w(l + 1) <= 1:
                m = max(k for k in range(l + 1, dynkin.rank + 1) if w(k) <= 1)
                sign = -1 if (m - (l + 1)) % 2 else 1
                assert epsilon_for(w) == sign * brick_diagram(w).c
            else:
                assert epsilon_for(w) == 1
