"""Semibricks: the two construction routes, the brick table and the verification report."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxbrick.coxeter import (
    CoxeterElement,
    DynkinType,
    Family,
    descents,
    enumerate_group,
    identity,
    length,
    parse_window,
)
from coxbrick import homs, semibricks, verify
from coxbrick.bricks import brick_diagram, brick_rep, diagram_from_params_d, rep_from_params_d
from coxbrick.canjoin import decompose, jirr_from_R
from coxbrick.homs import iso_bricks
from coxbrick.quiver import QuiverRepresentation, double_quiver, zero_mats
from coxbrick.semibricks import (
    Semibrick,
    SemibrickSummand,
    brick_table,
    render_semibrick,
    semibrick,
    semibrick_direct,
    semibrick_to_json,
    verify_semibrick,
)
from coxbrick.weak_order import GroupPoset

import semibrick_oracle

A2 = DynkinType(Family.A, 2)
A4 = DynkinType(Family.A, 4)
A8 = DynkinType(Family.A, 8)
D4 = DynkinType(Family.D, 4)
D5 = DynkinType(Family.D, 5)
D9 = DynkinType(Family.D, 9)


def test_a8_intro_example():
    w = parse_window(A8, "4,9,3,6,2,8,5,1,7")
    s = semibrick(w)
    assert [sm.d for sm in s.summands] == [2, 4, 6, 7]
    assert render_semibrick(s) == "\n".join(
        [
            "S_2: 3 <- 4 -> 5 -> 6 -> 7 -> 8",
            "S_4: 2 <- 3 <- 4 -> 5",
            "S_6: 5 <- 6 -> 7",
            "S_7: 1 <- 2 <- 3 <- 4",
        ]
    )
    report = verify_semibrick(s)
    assert report.ok


def test_identity_yields_empty_semibrick():
    for dynkin in (A8, D9):
        s = semibrick(identity(dynkin))
        assert s.summands == ()
        assert verify_semibrick(s).ok


def test_a2_longest_element():
    s = semibrick(parse_window(A2, "3,2,1"))
    dims = sorted(tuple(sm.rep.dim_vector().values()) for sm in s.summands)
    assert dims == [(0, 1), (1, 0)]  # the two simple modules


@pytest.mark.parametrize("dynkin", [A4, D4], ids=str)
def test_routes_agree_exhaustively(dynkin):
    for w in enumerate_group(dynkin):
        via_elements = semibrick(w)
        direct = semibrick_direct(w)
        assert len(via_elements.summands) == len(direct.summands) == len(descents(w))
        for a, b in zip(via_elements.summands, direct.summands):
            assert a.d == b.d
            assert a.diagram.symbols == b.diagram.symbols
            assert a.diagram.arrows == b.diagram.arrows
            assert iso_bricks(a.rep, b.rep)
        assert verify_semibrick(via_elements).ok


@pytest.mark.parametrize("dynkin", [A4, D4], ids=str)
def test_longest_element_has_full_rank_semibrick(dynkin):
    poset = GroupPoset.build(dynkin)
    w0 = max(poset.elements, key=length)
    assert len(semibrick(w0).summands) == len(dynkin.vertices)


def test_verify_flags_duplicated_summand():
    w = parse_window(A4, "2,1,3,4,5")
    sm = semibrick(w).summands[0]
    fake = Semibrick(w, (sm, SemibrickSummand(2, sm.diagram, sm.rep)))
    report = verify_semibrick(fake)
    assert not report.ok
    assert any(d > 0 for d in report.hom_dims.values())
    assert not report.summands_match_descents


def test_single_descent_direct_matches_brick_diagram():
    from coxbrick.bricks import brick_diagram

    w = parse_window(D9, "9,-7,-6,-4,-1,2,3,5,8")
    s = semibrick_direct(w)
    assert len(s.summands) == 1
    diag = brick_diagram(w)
    assert s.summands[0].diagram.arrows == diag.arrows
    assert s.summands[0].diagram.symbols == diag.symbols


def test_d9_reference_element_direct():
    w = parse_window(D9, "5,3,-7,4,-6,-8,9,-1,2")
    s = semibrick_direct(w)
    assert [sm.d for sm in s.summands] == [1, 2, 4, 5, 7]
    report = verify_semibrick(s)
    assert report.ok
    by_d = {sm.d: sm.diagram for sm in s.summands}
    assert by_d[1].symbols == {3, 4} and by_d[1].arrows == {(3, 4)}
    assert by_d[5].symbols == {6, 7} and by_d[5].arrows == {(6, 7)}
    assert by_d[7].symbols == {-1} | set(range(2, 9))
    assert by_d[7].arrows == {(k + 1, k) for k in range(2, 8)} | {(-1, 2)}


def test_semibrick_json_roundtrip():
    w = parse_window(D9, "5,3,-7,4,-6,-8,9,-1,2")
    s = semibrick(w)
    payload = semibrick_to_json(s)
    assert payload["window"] == list(w.window)
    assert [item["d"] for item in payload["summands"]] == [sm.d for sm in s.summands]
    assert [{tuple(e) for e in item["brick"]["arrows"]} for item in payload["summands"]] == [
        sm.diagram.arrows for sm in s.summands
    ]


@st.composite
def sampled_elements(draw):
    dynkin = draw(st.sampled_from([DynkinType(Family.A, 6), D5]))
    return draw(st.sampled_from(enumerate_group(dynkin)))


@given(sampled_elements())
@settings(max_examples=40, deadline=None)
def test_semibrick_direct_verifies(w):
    report = verify_semibrick(semibrick_direct(w))
    assert report.ok


# --- the brick table against the per-summand reference ----------------------
#
# Module-level types such as A4 share one warm table across tests, so every
# test below that depends on the table's state builds its own DynkinType.

REFERENCE_FIELDS = (
    "element",
    "brick_flags",
    "positive_root_flags",
    "hom_dims",
    "summands_match_descents",
)


def assert_same_report(got, want):
    for name in REFERENCE_FIELDS:
        assert getattr(got, name) == getattr(want, name), (got.element, name)
    assert got.table_flags == {d: True for d in got.brick_flags}, got.element
    assert got.ok == want.ok, got.element


@pytest.mark.parametrize("family, rank", [("A", 4), ("D", 4), ("A", 5), ("D", 5)])
def test_verify_semibrick_equals_reference(family, rank):
    dynkin = DynkinType(Family(family), rank)  # its table starts empty
    elements = enumerate_group(dynkin)
    expected = []
    for w in elements:
        s = semibrick_direct(w)
        expected.append(semibrick_oracle.verify_semibrick(s))
        assert_same_report(verify_semibrick(s), expected[-1])
    table = brick_table(dynkin)
    sizes = len(table.entries), len(table.pairs)
    for w, want in zip(elements, expected):  # warm: every entry and pair cached
        assert_same_report(verify_semibrick(semibrick_direct(w)), want)
        assert_same_report(verify_semibrick(semibrick(w)), want)
    assert (len(table.entries), len(table.pairs)) == sizes


def test_summand_not_its_table_brick_is_flagged():
    a4 = DynkinType(Family.A, 4)
    w = parse_window(a4, "2,1,4,3,5")
    x, y = semibrick(w).summands
    swapped = Semibrick(w, (dataclasses.replace(x, rep=y.rep), dataclasses.replace(y, rep=x.rep)))
    # still two Hom-orthogonal bricks, so only the table comparison catches it
    assert semibrick_oracle.verify_semibrick(swapped).ok
    report = verify_semibrick(swapped)
    assert report.table_flags == {x.d: False, y.d: False}
    assert not report.ok


def test_wrong_direct_rep_for_one_datum_fails(monkeypatch):
    d4 = DynkinType(Family.D, 4)
    w = parse_window(d4, "-2,-1,4,3")
    rows = decompose(w)
    assert len(rows) >= 2
    target = rows[0].r_values
    other = jirr_from_R(d4, rows[-1].r_values)
    original = semibricks.rep_from_params_d

    def wrong(dynkin, a, b, r_values):
        if r_values == target:
            return brick_rep(other)
        return original(dynkin, a, b, r_values)

    monkeypatch.setattr(semibricks, "rep_from_params_d", wrong)
    via_cjr, direct = semibrick(w), semibrick_direct(w)
    assert via_cjr.summands[0].rep != direct.summands[0].rep
    report = verify_semibrick(direct)
    assert report.table_flags[direct.summands[0].d] is False
    assert not report.ok
    result = verify.semibrick(d4)
    assert w in result.failures


def test_table_entry_flags_are_checked_once_built(monkeypatch):
    a4 = DynkinType(Family.A, 4)
    w = parse_window(a4, "2,1,4,3,5")
    target = decompose(w)[0].element
    original = semibricks.brick_rep

    def zero_for_target(v):
        if v != target:
            return original(v)
        dims = {u: 0 for u in a4.vertices}
        return QuiverRepresentation(double_quiver(a4), dims, zero_mats(double_quiver(a4), dims))

    monkeypatch.setattr(semibricks, "brick_rep", zero_for_target)
    s = semibrick(w)
    report = verify_semibrick(s)
    assert report.brick_flags[s.summands[0].d] is False
    assert report.positive_root_flags[s.summands[0].d] is False
    assert_same_report(report, semibrick_oracle.verify_semibrick(s))
    assert not report.ok


@pytest.mark.parametrize(
    "r_values", [frozenset({7}), frozenset({5})], ids=["out-of-range", "no-descent"]
)
def test_invalid_r_set_is_a_mismatch(r_values):
    a4 = DynkinType(Family.A, 4)
    w = parse_window(a4, "2,1,4,3,5")
    x, y = semibrick(w).summands
    bad = dataclasses.replace(x, diagram=dataclasses.replace(x.diagram, r_values=r_values))
    report = verify_semibrick(Semibrick(w, (bad, y)))
    assert report.table_flags == {x.d: False, y.d: True}
    assert report.brick_flags == {x.d: True, y.d: True}
    assert not report.ok
    assert r_values not in brick_table(a4).entries
    assert ("jirr", r_values) not in a4.memo


def test_dynkin_type_memo_is_per_instance():
    a, b = DynkinType(Family.A, 4), DynkinType(Family.A, 4)
    semibrick(parse_window(a, "2,1,4,3,5"))
    assert len(brick_table(a).entries) == 2
    assert b.memo == {}
    assert brick_table(b) is not brick_table(a)
    assert a == b and hash(a) == hash(b) == hash((Family.A, 4))
    assert a != DynkinType(Family.A, 5) and a != DynkinType(Family.D, 4)
    assert repr(a) == "DynkinType(family=<Family.A: 'A'>, rank=4)"
    assert str(a) == "A4"
    assert {a: 1}[b] == 1


# --- the Hom certificate and the warm table path ----------------------------


@pytest.mark.parametrize("family, rank", [("A", 5), ("D", 5)])
def test_recorded_hom_dims_equal_solved_ones(family, rank):
    dynkin = DynkinType(Family(family), rank)
    result = verify.semibrick(dynkin)
    table = brick_table(dynkin)
    assert len(table.pairs) == result.counts["pairs"]
    certified = 0
    for (x, y), dim in table.pairs.items():
        ex, ey = table.entries[x], table.entries[y]
        assert dim == homs.hom_dim(ex.rep, ey.rep), (x, y)
        certified += homs.hom_vanishes(ex.vertex_sets, ey.vertex_sets)
    assert 0 < result.counts["certified"] == certified <= len(table.pairs)


def fresh_summands(w):
    """(d, diagram, rep) of each summand of both routes, built with no table."""
    via_cjr, direct = [], []
    for row in decompose(w):
        via_cjr.append((row.d, brick_diagram(row.element), brick_rep(row.element)))
        a, b = (-row.b, -row.a) if row.case == "A" else (row.a, row.b)
        diagram = diagram_from_params_d(w.dynkin, a, b, row.r_values)
        direct.append((row.d, diagram, rep_from_params_d(w.dynkin, a, b, row.r_values)))
    return via_cjr, direct


@pytest.mark.parametrize("family, rank", [("A", 5), ("D", 5)])
def test_warm_semibricks_equal_fresh_builds(family, rank):
    warm = DynkinType(Family(family), rank)
    elements = enumerate_group(warm)
    for w in elements:  # fills the table
        semibrick(w), semibrick_direct(w)
    fresh = DynkinType(Family(family), rank)
    for w in elements:
        want_cjr, want_direct = fresh_summands(CoxeterElement(fresh, w.window))
        assert [(sm.d, sm.diagram, sm.rep) for sm in semibrick(w).summands] == want_cjr, w
        got = [(sm.d, sm.diagram, sm.rep) for sm in semibrick_direct(w).summands]
        assert got == want_direct, w


def test_verify_semibrick_equals_reference_on_a_tampered_table():
    a4 = DynkinType(Family.A, 4)
    w = parse_window(a4, "2,1,4,3,5")
    s = semibrick_direct(w)
    want = semibrick_oracle.verify_semibrick(s)
    assert_same_report(verify_semibrick(s), want)
    table = brick_table(a4)
    (dx, x), (dy, y) = ((sm.d, sm.diagram.r_values) for sm in s.summands)
    ex, ey = table.entries[x], table.entries[y]
    # an equal copy of the brick, not the summand's own object, still matches
    table.entries[x] = dataclasses.replace(ex, rep=dataclasses.replace(ex.rep))
    assert_same_report(verify_semibrick(s), want)
    # another brick in its place does not: the summand is then checked on its own rep
    table.entries[x] = dataclasses.replace(ex, rep=ey.rep)
    report = verify_semibrick(s)
    for name in REFERENCE_FIELDS:
        assert getattr(report, name) == getattr(want, name), name
    assert report.table_flags == {dx: False, dy: True}
    assert not report.ok


def test_direct_route_builds_once_per_swapped_parameters(monkeypatch):
    d6 = DynkinType(Family.D, 6)
    calls = Counter()
    original = semibricks.rep_from_params_d

    def counting(dynkin, a, b, r_values):
        calls[a, b, r_values] += 1
        return original(dynkin, a, b, r_values)

    monkeypatch.setattr(semibricks, "rep_from_params_d", counting)
    for w in enumerate_group(d6):
        semibrick_direct(w)
    assert set(calls.values()) == {1}
    assert len(calls) == len(brick_table(d6).entries) == 530
