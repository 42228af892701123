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
from coxbrick.cli import main
from coxbrick.bricks import brick_diagram, brick_rep, diagram_from_params_d, rep_from_params_d
from coxbrick.canjoin import decompose, jirr_from_R, r_set
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


def test_verify_flags_summands_off_the_descents():
    w = parse_window(A4, "2,1,4,3,5")
    assert sorted(descents(w)) == [1, 3]
    x, y = semibrick(w).summands
    moved = Semibrick(w, (dataclasses.replace(x, d=4), y))  # a summand at a non-descent
    reordered = Semibrick(w, (y, x))  # the right descents, out of order
    for bad in (moved, reordered):
        for report in (verify_semibrick(bad), semibrick_oracle.verify_semibrick(bad)):
            assert all(d == 0 for d in report.hom_dims.values())
            assert not report.summands_match_descents
            assert not report.ok


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
    sizes = len(table.entries), table.pair_count()
    for w, want in zip(elements, expected):  # warm: every entry and pair cached
        assert_same_report(verify_semibrick(semibrick_direct(w)), want)
        assert_same_report(verify_semibrick(semibrick(w)), want)
    assert (len(table.entries), table.pair_count()) == sizes


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
    by_id = {entry.id: r for r, entry in table.entries.items()}
    assert sorted(by_id) == list(range(len(table.zero)))
    recorded = {(by_id[i], by_id[j]): dim for (i, j), dim in table.nonzero.items()}
    for i, bits in enumerate(table.zero):
        recorded.update(((by_id[i], by_id[j]), 0) for j in by_id if bits >> j & 1)
    assert len(recorded) == table.pair_count() == result.counts["pairs"]
    assert table.nonzero == {}  # the sweep passes, so every pair it met is zero
    certified = 0
    for (x, y), dim in recorded.items():
        ex, ey = table.entries[x], table.entries[y]
        assert dim == homs.hom_dim(ex.rep, ey.rep), (x, y)
        certified += homs.hom_vanishes(ex.vertex_sets, ey.vertex_sets)
    assert 0 < result.counts["certified"] == certified <= len(recorded)


def test_brick_against_itself_is_a_recorded_nonzero_pair(monkeypatch):
    a4 = DynkinType(Family.A, 4)
    table = brick_table(a4)
    entry = table.entry(decompose(parse_window(a4, "2,1,4,3,5"))[0].r_values)
    before = table.pair_count()
    assert table.hom_dim(entry, entry) == 1  # a brick's End is the field
    assert table.nonzero == {(entry.id, entry.id): 1}
    assert table.zero[entry.id] == 0
    assert table.pair_count() == before + 1 and table.certified == 0
    monkeypatch.setattr(semibricks, "hom_dim", None)  # read back, not solved again
    assert table.hom_dim(entry, entry) == 1
    assert table.pair_count() == before + 1


# --- the streamed sweep -----------------------------------------------------


@pytest.mark.parametrize(
    "family, rank, counts",
    [
        ("A", 5, (57, 604, 604)),
        ("D", 5, (157, 1604, 1432)),
        ("A", 6, (120, 2382, 2382)),
        ("D", 6, (530, 11102, 8350)),
    ],
)
def test_streamed_sweep_reports_as_before(family, rank, counts):
    # the summary and the table counts of the sweep over the sorted group
    dynkin = DynkinType(Family(family), rank)
    result = verify.semibrick(dynkin)
    order = dynkin.group_order
    assert result.report() == [f"{order}/{order} semibricks verified"]
    assert result.counts == dict(zip(("bricks", "pairs", "certified"), counts))
    assert result.failures == [] and result.errors == {}


def test_streamed_counterexamples_come_in_window_order(monkeypatch, capsys):
    d4 = DynkinType(Family.D, 4)
    rows = decompose(parse_window(d4, "-2,-1,4,3"))
    target = rows[0].r_values
    other = jirr_from_R(d4, rows[-1].r_values)
    original = semibricks.rep_from_params_d

    def wrong(dynkin, a, b, r_values):
        if r_values == target:
            return brick_rep(other)
        return original(dynkin, a, b, r_values)

    monkeypatch.setattr(semibricks, "rep_from_params_d", wrong)
    expected = [w for w in enumerate_group(d4) if target in {row.r_values for row in decompose(w)}]
    result = verify.semibrick(DynkinType(Family.D, 4))
    assert result.failures == expected and len(expected) == 32
    lines = [f"counterexample: {w}" for w in expected]
    assert result.report() == ["160/192 semibricks verified", *lines]
    assert main(["verify", "--suite", "semibrick", "--type", "D", "--rank", "4"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == lines


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


# --- the verdict read off the table, against fixed failing reports ----------


def report_fields(report):
    return {name: getattr(report, name) for name in (*REFERENCE_FIELDS[1:], "table_flags", "ok")}


def _moved(table, s):
    x, y = s.summands
    return Semibrick(s.element, (dataclasses.replace(x, d=4), y))


def _one_brick_twice(table, s):
    x, y = s.summands
    return Semibrick(s.element, (x, dataclasses.replace(x, d=y.d)))


def _swapped_reps(table, s):
    x, y = s.summands
    return Semibrick(
        s.element, (dataclasses.replace(x, rep=y.rep), dataclasses.replace(y, rep=x.rep))
    )


def _flag_unset(flag):
    def tamper(table, s):
        r_values = s.summands[0].diagram.r_values
        table.entries[r_values] = dataclasses.replace(table.entries[r_values], **{flag: False})
        return s

    return tamper


ALL_TRUE = {1: True, 3: True}
ZERO_HOMS = {(1, 3): 0, (3, 1): 0}


@pytest.mark.parametrize(
    "tamper, expected",
    [
        # the summand at descent 1 moved to the non-descent 4
        (_moved, {
            "brick_flags": {4: True, 3: True}, "positive_root_flags": {4: True, 3: True},
            "hom_dims": {(4, 3): 0, (3, 4): 0}, "summands_match_descents": False,
            "table_flags": {4: True, 3: True}, "ok": False,
        }),
        # at the right descents, so only the Hom between the copies catches it
        (_one_brick_twice, {
            "brick_flags": ALL_TRUE, "positive_root_flags": ALL_TRUE,
            "hom_dims": {(1, 3): 1, (3, 1): 1}, "summands_match_descents": True,
            "table_flags": ALL_TRUE, "ok": False,
        }),
        (_swapped_reps, {
            "brick_flags": ALL_TRUE, "positive_root_flags": ALL_TRUE,
            "hom_dims": ZERO_HOMS, "summands_match_descents": True,
            "table_flags": {1: False, 3: False}, "ok": False,
        }),
        (_flag_unset("is_brick"), {
            "brick_flags": {1: False, 3: True}, "positive_root_flags": ALL_TRUE,
            "hom_dims": ZERO_HOMS, "summands_match_descents": True,
            "table_flags": ALL_TRUE, "ok": False,
        }),
        (_flag_unset("is_positive_root"), {
            "brick_flags": ALL_TRUE, "positive_root_flags": {1: False, 3: True},
            "hom_dims": ZERO_HOMS, "summands_match_descents": True,
            "table_flags": ALL_TRUE, "ok": False,
        }),
    ],
    ids=["moved", "one-brick-twice", "not-the-table-brick", "not-a-brick", "not-a-root"],
)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_failing_semibricks_get_their_full_report(tamper, expected, warm):
    a4 = DynkinType(Family.A, 4)
    s = semibrick_direct(parse_window(a4, "2,1,4,3,5"))
    table = brick_table(a4)
    if warm:  # every pair of the true semibrick already recorded zero
        assert verify_semibrick(s).ok
    report = verify_semibrick(tamper(table, s))
    assert report_fields(report) == expected


@pytest.mark.parametrize(
    "tamper, grown",
    [(_one_brick_twice, (1, 0)), (_flag_unset("is_brick"), (2, 2))],
    ids=["one-brick-twice", "not-a-brick"],
)
def test_a_failing_report_records_every_hom_pair(tamper, grown):
    # (recorded pairs, certified pairs) that the report adds to a fresh table
    a4 = DynkinType(Family.A, 4)
    s = semibrick_direct(parse_window(a4, "2,1,4,3,5"))
    table = brick_table(a4)
    tampered = tamper(table, s)
    before = table.pair_count(), table.certified
    assert not verify_semibrick(tampered).ok
    assert (table.pair_count() - before[0], table.certified - before[1]) == grown


@pytest.mark.parametrize(
    "family, window, d, other, homs",
    [
        ("A", "1,2,5,4,3", 4, "1,2,4,5,3", {(3, 4): 0, (4, 3): 1}),
        ("D", "-4,-3,-1,-2", 3, "1,2,-4,-3", {(-1, 3): 1, (3, -1): 1}),
    ],
    ids=["A4", "D4"],
)
def test_table_bricks_with_a_nonzero_hom_fail(family, window, d, other, homs):
    # the summand at d becomes the table brick of `other`: two distinct table
    # bricks, flagged, at the descents, so only the Hom between them fails
    dynkin = DynkinType(Family(family), 4)
    entry = brick_table(dynkin).entry(r_set(parse_window(dynkin, other)))
    s = semibrick(parse_window(dynkin, window))
    bad = Semibrick(s.element, tuple(
        dataclasses.replace(sm, diagram=entry.diagram, rep=entry.rep) if sm.d == d else sm
        for sm in s.summands
    ))
    want = semibrick_oracle.verify_semibrick(bad)
    assert want.hom_dims == homs
    for _table in ("fresh", "warm"):  # warm: the pair's Hom is recorded
        report = verify_semibrick(bad)
        assert not report.ok
        assert_same_report(report, want)


def test_a_rep_equal_to_its_table_brick_passes():
    a4 = DynkinType(Family.A, 4)
    s = semibrick_direct(parse_window(a4, "2,1,4,3,5"))
    x, y = s.summands
    copy = Semibrick(s.element, (dataclasses.replace(x, rep=dataclasses.replace(x.rep)), y))
    assert copy.summands[0].rep is not x.rep and copy.summands[0].rep == x.rep
    report = verify_semibrick(copy)
    assert report.ok
    assert_same_report(report, semibrick_oracle.verify_semibrick(copy))


def test_a_passing_report_computes_its_fields_when_read():
    a4 = DynkinType(Family.A, 4)
    s = semibrick_direct(parse_window(a4, "2,1,4,3,5"))
    report = verify_semibrick(s)
    assert report.ok
    fields = (*REFERENCE_FIELDS[1:], "table_flags")
    assert not any(name in vars(report) for name in fields)
    assert report_fields(report) == {
        "brick_flags": ALL_TRUE, "positive_root_flags": ALL_TRUE, "hom_dims": ZERO_HOMS,
        "summands_match_descents": True, "table_flags": ALL_TRUE, "ok": True,
    }


def test_sampled_counterexamples_come_in_window_order(monkeypatch):
    d4 = DynkinType(Family.D, 4)
    rows = decompose(parse_window(d4, "-2,-1,4,3"))
    target = rows[0].r_values
    other = jirr_from_R(d4, rows[-1].r_values)
    original = semibricks.rep_from_params_d

    def wrong(dynkin, a, b, r_values):
        if r_values == target:
            return brick_rep(other)
        return original(dynkin, a, b, r_values)

    monkeypatch.setattr(semibricks, "rep_from_params_d", wrong)
    drawn = verify.sample(enumerate_group(d4), 60, 3)
    expected = [w for w in drawn if target in {row.r_values for row in decompose(w)}]
    result = verify.semibrick(DynkinType(Family.D, 4), sample_size=60, seed=3)
    assert result.failures == expected == sorted(expected) and len(expected) > 1
    assert result.report() == [
        f"{60 - len(expected)}/60 semibricks verified",
        *(f"counterexample: {w}" for w in expected),
    ]
