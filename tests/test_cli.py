"""Command-line behaviour: output formats, exit codes, round trips."""

import dataclasses
import hashlib
import json

import pytest

from coxbrick import verify
from coxbrick.bricks import brick_rep
from coxbrick.cli import main
from coxbrick.coxeter import DynkinType, Family, enumerate_group, identity, parse_window
from coxbrick.weak_order import GroupPoset, LatticeError

EXIT_OK, EXIT_VERIFY, EXIT_INPUT, EXIT_CAPACITY = 0, 1, 2, 3


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_element_jirr(capsys):
    code, out, _ = run(
        capsys, "element", "--type", "A", "--rank", "8", "--window", "2,5,8,1,3,4,6,7,9"
    )
    assert code == EXIT_OK
    assert "jirr of type 3" in out
    assert "length: 9" in out


def test_element_identity(capsys):
    code, out, _ = run(
        capsys, "element", "--type", "A", "--rank", "3", "--window", "1,2,3,4"
    )
    assert code == EXIT_OK
    assert "descents: none" in out


def test_element_sigma_chi_for_type_d(capsys):
    code, out, _ = run(
        capsys, "element", "--type", "D", "--rank", "5", "--window", "-1,2,-5,-4,-3"
    )
    assert code == EXIT_OK
    assert "sigma: 2,-5,0" in out
    assert "chi: 0,0,1,1,1" in out


def test_element_parity_rejected(capsys):
    code, _, err = run(
        capsys, "element", "--type", "D", "--rank", "4", "--window", "1,2,3,-4"
    )
    assert code == EXIT_INPUT
    assert "negative" in err


def test_element_bad_token_named(capsys):
    code, _, err = run(
        capsys, "element", "--type", "A", "--rank", "3", "--window", "1,2,x,4"
    )
    assert code == EXIT_INPUT
    assert "'x'" in err


def test_element_json_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "element",
        "--type",
        "D",
        "--rank",
        "9",
        "--window",
        "5,3,-7,4,-6,-8,9,-1,2",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert (data["family"], data["rank"]) == ("D", 9)
    assert data["window"] == [5, 3, -7, 4, -6, -8, 9, -1, 2]
    assert data["descents"] == [1, 2, 4, 5, 7]


def test_brick_text_a8(capsys):
    code, out, _ = run(
        capsys, "brick", "--type", "A", "--rank", "8", "--window", "2,5,8,1,3,4,6,7,9"
    )
    assert code == EXIT_OK
    assert out == "1 <- 2 -> 3 -> 4 <- 5 -> 6 -> 7\n"


def test_brick_rejects_non_jirr(capsys):
    code, _, err = run(
        capsys, "brick", "--type", "A", "--rank", "3", "--window", "4,3,1,2"
    )
    assert code == EXIT_INPUT
    assert "not join-irreducible" in err


def test_brick_dot(capsys):
    code, out, _ = run(
        capsys,
        "brick",
        "--type",
        "D",
        "--rank",
        "5",
        "--window",
        "-1,2,-5,-4,-3",
        "--format",
        "dot",
    )
    assert code == EXIT_OK
    assert out.startswith("digraph")
    assert '"1" -> "-2";' in out


def test_brick_json_roundtrip(capsys):
    from coxbrick.bricks import brick_diagram, diagram_to_json

    code, out, _ = run(
        capsys,
        "brick",
        "--type",
        "D",
        "--rank",
        "9",
        "--window",
        "9,-7,-6,-4,-1,2,3,5,8",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    w = parse_window(DynkinType(Family.D, 9), "9,-7,-6,-4,-1,2,3,5,8")
    assert json.loads(out) == diagram_to_json(brick_diagram(w))


def test_decompose_a3_cjr(capsys):
    code, out, _ = run(
        capsys, "decompose", "--type", "A", "--rank", "3", "--window", "4,3,1,2"
    )
    assert code == EXIT_OK
    assert out == "d=1 a=4 b=3 R={3} w=1,2,4,3\nd=2 a=3 b=1 R={1,2,4} w=3,1,2,4\n"


def test_decompose_d9_table(capsys):
    code, out, _ = run(
        capsys,
        "decompose",
        "--type",
        "D",
        "--rank",
        "9",
        "--window",
        "5,3,-7,4,-6,-8,9,-1,2",
    )
    assert code == EXIT_OK
    assert out == (
        "d=1 a=5 b=3 case=B R={3,4,6,7,8,9} w=1,2,5,3,4,6,7,8,9\n"
        "d=2 a=3 b=-7 case=A R={-3,-1,2,4,5,8,9} w=6,7,-3,-1,2,4,5,8,9\n"
        "d=4 a=4 b=-6 case=B R={-6,-1,2,5,7,8,9} w=3,4,-6,-1,2,5,7,8,9\n"
        "d=5 a=-6 b=-8 case=A R={6,7,9} w=1,2,3,4,5,8,6,7,9\n"
        "d=7 a=9 b=-1 case=B R={-1,2} w=-3,4,5,6,7,8,9,-1,2\n"
    )


def test_semibrick_text(capsys):
    code, out, _ = run(
        capsys, "semibrick", "--type", "A", "--rank", "8", "--window", "4,9,3,6,2,8,5,1,7"
    )
    assert code == EXIT_OK
    assert out == (
        "S_2: 3 <- 4 -> 5 -> 6 -> 7 -> 8\n"
        "S_4: 2 <- 3 <- 4 -> 5\n"
        "S_6: 5 <- 6 -> 7\n"
        "S_7: 1 <- 2 <- 3 <- 4\n"
    )


def test_semibrick_direct_json(capsys):
    code, out, _ = run(
        capsys,
        "semibrick",
        "--type",
        "D",
        "--rank",
        "9",
        "--window",
        "5,3,-7,4,-6,-8,9,-1,2",
        "--direct",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert [item["d"] for item in data["summands"]] == [1, 2, 4, 5, 7]


def test_count_d5(capsys):
    code, out, _ = run(capsys, "count", "--type", "D", "--rank", "5")
    assert code == EXIT_OK
    assert out == "formula 157, enumerated 157, OK\n"


def test_census_check(capsys):
    code, out, _ = run(capsys, "census", "--type", "D", "--rank", "5", "--check")
    assert code == EXIT_OK
    assert out == "census D5: 157 entries in 40 shapes match fixture\n"


def test_census_listing(capsys):
    code, out, _ = run(capsys, "census", "--type", "D", "--rank", "4")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 44
    assert lines[0].startswith("sigma=2,-4,0 window=")


def test_census_fixture_roundtrip_other_rank(capsys, tmp_path):
    from coxbrick.census import census, census_lines
    from coxbrick.coxeter import DynkinType, Family

    fixture = tmp_path / "d4.txt"
    fixture.write_text(
        "\n".join(census_lines(census(DynkinType(Family.D, 4)))) + "\n"
    )
    code, out, _ = run(
        capsys, "census", "--type", "D", "--rank", "4", "--fixture", str(fixture)
    )
    assert code == EXIT_OK
    assert out == "census D4: 44 entries in 20 shapes match fixture\n"


def test_census_check_requires_fixture_off_rank5(capsys):
    code, _, err = run(capsys, "census", "--type", "D", "--rank", "4", "--check")
    assert code == EXIT_INPUT
    assert "--fixture" in err


def test_census_fixture_mismatch_exits_one(capsys, tmp_path):
    fixture = tmp_path / "broken.txt"
    fixture.write_text("sigma=2,1,0 window=2,1,3,4,5 symbols=1 arrows=\n")
    code, out, _ = run(
        capsys,
        "census",
        "--type",
        "D",
        "--rank",
        "5",
        "--fixture",
        str(fixture),
    )
    assert code == EXIT_VERIFY


@pytest.mark.parametrize("missing", [False, True], ids=["directory", "missing-file"])
def test_census_unreadable_fixture_exits_two(capsys, tmp_path, missing):
    fixture = tmp_path / "absent.txt" if missing else tmp_path
    code, out, err = run(
        capsys, "census", "--type", "D", "--rank", "5", "--fixture", str(fixture)
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: cannot read fixture")


def test_census_fixture_line_without_symbols_exits_two(capsys, tmp_path):
    fixture = tmp_path / "partial.txt"
    fixture.write_text("sigma=2,1,0 window=2,1,3,4,5 arrows=\n")
    code, _, err = run(
        capsys, "census", "--type", "D", "--rank", "5", "--fixture", str(fixture)
    )
    assert code == EXIT_INPUT
    assert err.startswith("error: census line lacks symbols=")


@pytest.mark.parametrize(
    "line, field",
    [
        ("sigma=2,1 window=2,1,3,4,5 symbols=1 arrows=", "sigma"),
        ("sigma=2,1,0,7 window=2,1,3,4,5 symbols=1 arrows=", "sigma"),
        ("sigma=2,1,0 window=2,1,3,4,5 symbols=1 arrows=1>2>3", "arrows"),
    ],
    ids=["short-sigma", "long-sigma", "arrow-path"],
)
@pytest.mark.parametrize("command", [["census"], ["verify", "--suite", "census"]], ids=" ".join)
def test_census_fixture_line_with_a_malformed_field_exits_two(
    capsys, tmp_path, command, line, field
):
    fixture = tmp_path / "malformed.txt"
    fixture.write_text(line + "\n")
    code, out, err = run(
        capsys, *command, "--type", "D", "--rank", "5", "--fixture", str(fixture)
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: census line has a malformed {field}=: {line!r}\n"


def test_hasse_dot(capsys):
    code, out, _ = run(capsys, "hasse", "--type", "A", "--rank", "2")
    assert code == EXIT_OK
    assert out.startswith('digraph "A2"')
    assert '"2,1,3" -> "1,2,3";' in out


def test_hasse_dot_output(capsys):
    code, dot, _ = run(capsys, "hasse", "--type", "A", "--rank", "3")
    assert code == EXIT_OK
    assert dot.startswith('digraph "A3"')
    assert '"2,1,3,4" -> "1,2,3,4";' in dot
    assert dot.count("->") == 36


# SHA-256 of the stdout of each command, so that any change to the DOT text
# or to the order of the Hasse edges shows.
DOT_AND_HASSE_GOLDEN = {
    ("hasse", "A", "3", "text"): "9927847018c69c7bc44dd5e72c77102be658e978ecc6cce9cad6385cbefd7412",
    ("hasse", "A", "3", "dot"): "2e4273349b709d4668aec57370090bba1650cea862a14a5195f46214019e4d7d",
    ("hasse", "D", "4", "text"): "54da663ec61037f5fe7e403b11132ac7a4db3609cdba21f733ed5b752a46b27b",
    ("hasse", "D", "4", "dot"): "15445e27e3dc31445b3c40aecdfb807e51104e3a4335ede3bcf6212d651bbece",
    ("brick", "A", "8", "dot", "2,5,8,1,3,4,6,7,9"): (
        "b995bb91185457a2d6b4f3cb128921a984665afcb7e1077753c60cd878f3201c"
    ),
    ("brick", "D", "9", "dot", "9,-7,-6,-4,-1,2,3,5,8"): (
        "3758420fbb267468db25750679b56ce0b657d0892b5de717fc2701fe39921461"
    ),
}


@pytest.mark.parametrize("key", DOT_AND_HASSE_GOLDEN, ids=lambda key: "-".join(key[:4]))
def test_hasse_and_brick_dot_are_byte_identical_to_the_golden_digest(capsys, key):
    command, family, rank, fmt, *window = key
    argv = [command, "--type", family, "--rank", rank, "--format", fmt]
    code, out, _ = run(capsys, *argv, *(["--window", *window] if window else []))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == DOT_AND_HASSE_GOLDEN[key]


def test_capacity_exit_code(capsys):
    code, _, err = run(capsys, "hasse", "--type", "A", "--rank", "9")
    assert code == EXIT_CAPACITY
    assert "cap" in err


@pytest.mark.parametrize("command", ["element", "brick", "semibrick", "decompose", "census"])
def test_commands_that_never_enumerate_take_no_cap(capsys, command):
    window = [] if command == "census" else ["--window", "2,1,3,4"]
    code, out, err = run(capsys, command, "--type", "A", "--rank", "3", *window, "--cap", "5")
    assert code == EXIT_INPUT
    assert out == ""
    assert "unrecognized arguments: --cap 5" in err


def test_verify_reads_its_cap(capsys):
    argv = ["verify", "--suite", "count", "--type", "A", "--rank", "3", "--cap"]
    code, _, err = run(capsys, *argv, "10")
    assert code == EXIT_CAPACITY
    assert "exceeds the enumeration cap 10" in err
    code, out, _ = run(capsys, *argv, "24")
    assert code == EXIT_OK
    assert out == "formula 11, enumerated 11, OK\n"


def test_verify_oracle_a3(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "oracle", "--type", "A", "--rank", "3"
    )
    assert code == EXIT_OK
    assert out == "11/11 bricks match socle oracle\n"


def test_verify_oracle_past_the_enumeration_cap(capsys):
    # |W(D8)| = 5,160,960; the oracle draws from the R-set generator instead
    argv = ["verify", "--suite", "oracle", "--type", "D", "--rank", "8"]
    code, out, _ = run(capsys, *argv, "--sample", "20", "--seed", "1")
    assert code == EXIT_OK
    assert out == "20/20 bricks match socle oracle\n"


def test_verify_count_fails_when_the_generator_drops_an_element(capsys, monkeypatch):
    original = verify.join_irreducibles
    monkeypatch.setattr(verify, "join_irreducibles", lambda dynkin: original(dynkin)[1:])
    code, out, _ = run(capsys, "verify", "--suite", "count", "--type", "A", "--rank", "3")
    assert code == EXIT_VERIFY
    assert out == "formula 11, enumerated 11, MISMATCH\n"


def test_verify_census_fails_on_an_off_by_one_shape_count(capsys, monkeypatch):
    original = verify.shape_count
    monkeypatch.setattr(
        verify, "shape_count", lambda shape, n: original(shape, n) + (str(shape) == "5,-4,3")
    )
    code, out, _ = run(capsys, "verify", "--suite", "census", "--type", "D", "--rank", "5")
    assert code == EXIT_VERIFY
    assert out == "census D5: 1 mismatches against fixture\nshape 5,-4,3: 8 entries, formula 9\n"


def test_verify_oracle_sampled(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "oracle",
        "--type",
        "A",
        "--rank",
        "6",
        "--sample",
        "12",
        "--seed",
        "0",
    )
    assert code == EXIT_OK
    assert out == "12/12 bricks match socle oracle\n"


def test_verify_cjr_a3(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cjr", "--type", "A", "--rank", "3")
    assert code == EXIT_OK
    assert out == "24/24 canonical join representations match oracle\n"


def test_verify_cjr_sampled(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "cjr", "--type", "A", "--rank", "3", "--sample", "5"
    )
    assert code == EXIT_OK
    assert out == "5/5 canonical join representations match oracle\n"


@pytest.mark.parametrize(
    "suite, name, window, corrupt, summary",
    [
        (
            "oracle",
            "brick_rep",
            "2,1,3,4",
            lambda w, rep: brick_rep(parse_window(w.dynkin, "1,3,2,4")),
            "10/11 bricks match socle oracle",
        ),
        (
            "cjr",
            "cjr_direct",
            "4,3,1,2",
            lambda w, cjr: frozenset(),
            "23/24 canonical join representations match oracle",
        ),
        (
            "semibrick",
            "semibrick_direct",
            "4,3,1,2",
            lambda w, s: dataclasses.replace(s, summands=s.summands[1:]),
            "23/24 semibricks verified",
        ),
    ],
    ids=["oracle", "cjr", "semibrick"],
)
def test_verify_reports_counterexample(capsys, monkeypatch, suite, name, window, corrupt, summary):
    # one dependency of the sweep gives a wrong answer for one element only
    original = getattr(verify, name)
    monkeypatch.setattr(
        verify, name, lambda w: corrupt(w, original(w)) if str(w) == window else original(w)
    )
    code, out, _ = run(capsys, "verify", "--suite", suite, "--type", "A", "--rank", "3")
    assert code == EXIT_VERIFY
    assert out == f"{summary}\ncounterexample: {window}\n"


@pytest.mark.parametrize(
    "suite, owner, name, window, error, summary",
    [
        (
            "oracle",
            verify,
            "brick_rep",
            "2,1,3,4",
            ValueError("no brick"),
            "10/11 bricks match socle oracle",
        ),
        (
            "cjr",
            GroupPoset,
            "cjr_oracle",
            "4,3,1,2",
            LatticeError("no unique extreme element; lattice property violated"),
            "23/24 canonical join representations match oracle",
        ),
        (
            "semibrick",
            verify,
            "semibrick_direct",
            "4,3,1,2",
            KeyError("summand"),
            "23/24 semibricks verified",
        ),
    ],
    ids=["oracle", "cjr", "semibrick"],
)
def test_verify_reports_a_check_that_raises_as_a_counterexample(
    capsys, monkeypatch, suite, owner, name, window, error, summary
):
    # one dependency of the sweep raises on one element only; the sweep goes on
    original = getattr(owner, name)

    def raising(*args):
        if str(args[-1]) == window:
            raise error
        return original(*args)

    monkeypatch.setattr(owner, name, raising)
    code, out, _ = run(capsys, "verify", "--suite", suite, "--type", "A", "--rank", "3")
    assert code == EXIT_VERIFY
    cause = f"{type(error).__name__}: {error}"
    assert out == f"{summary}\ncounterexample: {window} ({cause})\n"


@pytest.mark.parametrize("suite", ["oracle", "cjr", "semibrick"])
def test_verify_rejects_a_negative_sample(capsys, suite):
    argv = ["verify", "--suite", suite, "--type", "A", "--rank", "3", "--sample", "-2"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: --sample must be 0 or more, got -2\n"


def test_verify_cjr_reports_every_element_that_does_not_join_back(capsys, monkeypatch):
    # the closed-form CJR still matches the oracle, but no join gives back w
    monkeypatch.setattr(GroupPoset, "join_all", lambda poset, us: identity(poset.dynkin))
    code, out, _ = run(capsys, "verify", "--suite", "cjr", "--type", "A", "--rank", "3")
    assert code == EXIT_VERIFY
    a3 = DynkinType(Family.A, 3)
    expected = [w for w in enumerate_group(a3) if w != identity(a3)]
    assert out.splitlines() == [
        "1/24 canonical join representations match oracle",
        *(f"counterexample: {w}" for w in expected),
    ]


def test_verify_semibrick_with_join(capsys):
    # the join-back check runs once, in --suite cjr; semibrick has no --join
    code, out, err = run(
        capsys,
        "verify",
        "--suite",
        "semibrick",
        "--type",
        "D",
        "--rank",
        "4",
        "--sample",
        "25",
        "--join",
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert "unrecognized arguments: --join" in err


def test_verify_census_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "census", "--type", "D", "--rank", "5"
    )
    assert code == EXIT_OK
    assert "match fixture" in out


def test_unknown_flag_exits_two(capsys):
    code, _, _ = run(capsys, "element", "--type", "A", "--rank", "3")
    assert code == EXIT_INPUT


@pytest.mark.parametrize(
    "suite, args, flag",
    [
        ("count", ["--type", "A", "--rank", "5", "--sample", "3"], "--sample"),
        ("count", ["--type", "A", "--rank", "5", "--seed", "1"], "--seed"),
        # a sampled suite reads --seed only to draw its --sample
        ("oracle", ["--type", "A", "--rank", "3", "--seed", "5"], "--seed"),
        ("census", ["--type", "D", "--rank", "5", "--sample", "0"], "--sample"),
        ("census", ["--type", "D", "--rank", "5", "--seed", "0"], "--seed"),
        ("cjr", ["--type", "A", "--rank", "3", "--seed", "5"], "--seed"),
        ("semibrick", ["--type", "A", "--rank", "3", "--sample", "0", "--seed", "5"], "--seed"),
        ("semibrick", ["--type", "A", "--rank", "3", "--fixture", "x.txt"], "--fixture"),
        # oracle and census find join-irreducibles from R-sets: nothing to cap
        ("oracle", ["--type", "A", "--rank", "3", "--cap", "5"], "--cap"),
        ("census", ["--type", "D", "--rank", "5", "--cap", "5"], "--cap"),
    ],
)
def test_verify_rejects_flags_it_would_ignore(capsys, suite, args, flag):
    code, out, err = run(capsys, "verify", "--suite", suite, *args)
    assert code == EXIT_INPUT
    assert out == ""
    sampled = suite in ("oracle", "cjr", "semibrick") and flag == "--seed"
    reason = "without --sample" if sampled else f"to --suite {suite}"
    assert err == f"error: {flag} does not apply {reason}\n"
