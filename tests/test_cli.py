"""Command-line behavior: exit codes, schemas, determinism, round trips."""

import contextlib
import io
import itertools
import json
import os
import stat
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cyclic_wonderful import chow, cli
from cyclic_wonderful.cli import build_parser, main, run
from cyclic_wonderful.fan import build_fan, fans_equal
from cyclic_wonderful.lattice import ArrangementSpec, BuildingSet
from cyclic_wonderful.serialize import fan_from_dict


def invoke(argv):
    return run(build_parser().parse_args(argv))


# --- fan ---------------------------------------------------------------------


def test_fan_json_round_trips_through_the_cli():
    status, out = invoke(["fan", "--r", "2", "--n", "2", "--format", "json"])
    assert status == 0
    payload = json.loads(out)
    rebuilt = fan_from_dict(payload)
    spec = ArrangementSpec(2, 2)
    assert fans_equal(rebuilt, build_fan(spec, BuildingSet.maximal(spec)))


def test_fan_via_stellar_matches_direct():
    _, direct = invoke(["fan", "--r", "3", "--n", "2", "--format", "json"])
    _, stellar = invoke(
        ["fan", "--r", "3", "--n", "2", "--format", "json", "--via-stellar"]
    )
    assert fans_equal(
        fan_from_dict(json.loads(direct)), fan_from_dict(json.loads(stellar))
    )


def test_fan_feasibility_guard_is_a_usage_error():
    status, out = invoke(["fan", "--r", "9", "--n", "5"])
    assert status == 2
    assert "guard bound" in out


def test_fan_text_output_mentions_rays_and_cones():
    status, out = invoke(["fan", "--r", "2", "--n", "1"])
    assert status == 0
    assert "rays (2)" in out and "{1:0}" in out


# --- chow --------------------------------------------------------------------


def test_chow_betti_only_table():
    status, out = invoke(["chow", "--r", "2", "--n", "3", "--betti-only"])
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["k", "closed_form", "oracle", "match"]
    table = [line.split() for line in lines[1:]]
    assert [row[1] for row in table] == ["1", "23", "23", "1"]
    assert all(row[3] == "yes" for row in table)


def test_chow_full_output_lists_generators_and_relations():
    status, out = invoke(["chow", "--r", "2", "--n", "1", "--format", "json"])
    assert status == 0
    payload = json.loads(out)
    assert payload["generators"] == ["{1:0}", "{1:1}"]
    assert len(payload["linear_relations"]) == 1
    assert payload["betti"][0]["match"] is True


@pytest.mark.parametrize("r,n", [(2, 1), (3, 2), (4, 2), (2, 3), (40, 1), (1000, 1)])
def test_chow_marks_exactly_the_relations_whose_a_is_zero(monkeypatch, r, n):
    # the presentation is its writer's map, keyed in (i, a, b) order with
    # a < b, and a relation is reduced exactly when its a is 0
    built = []
    present = chow.presentation

    def recording(spec):
        built.append(present(spec))
        return built[-1]

    monkeypatch.setattr("cyclic_wonderful.chow.presentation", recording)
    status, out = invoke(["chow", "--r", str(r), "--n", str(n)])
    assert status == 0
    keys = list(built[0][1])
    factors = range(1, n + 1)
    assert keys == [(i, a, b) for i in factors for a, b in itertools.combinations(range(r), 2)]
    reduced = [k for k, (_, a, _) in enumerate(keys) if a == 0]
    assert [keys[k] for k in reduced] == [(i, 0, b) for i in factors for b in range(1, r)]
    assert f"linear relations ({len(keys)} emitted, {len(reduced)} independent):" in out
    marks = [line[1] for line in out.splitlines() if line[2:5] == "(i="]
    assert len(marks) == len(keys)
    assert [k for k, mark in enumerate(marks) if mark == "*"] == reduced
    if r < 1000:  # the JSON payload at (1000, 1) peaks above 1 GiB
        status, out = invoke(["chow", "--r", str(r), "--n", str(n), "--format", "json"])
        payload = json.loads(out)
        assert [(rel["i"], rel["a"], rel["b"]) for rel in payload["linear_relations"]] == keys
        assert payload["reduced_relation_indices"] == reduced


def test_chow_betti_only_builds_only_the_reduced_relations(monkeypatch):
    # the presentation emits 499,500 relations at (1000, 1); --betti-only
    # prints none of them and the oracle reads the 999 reduced ones
    def refuse(spec):
        raise AssertionError("--betti-only built the presentation")

    built = []
    write = chow._linear_relations

    def recording_write(*args):
        relations = write(*args)
        built.extend(relations)
        return relations

    monkeypatch.setattr("cyclic_wonderful.chow.presentation", refuse)
    monkeypatch.setattr("cyclic_wonderful.chow._linear_relations", recording_write)
    status, out = invoke(["chow", "--r", "1000", "--n", "1", "--betti-only"])
    assert status == 0
    assert [line.split() for line in out.splitlines()[1:]] == [
        ["0", "1", "1", "yes"],
        ["1", "1", "1", "yes"],
    ]
    assert built == [(1, 0, b) for b in range(1, 1000)]


def main_stdout(argv):
    """Exit status and stdout of ``cli.main``; argparse's exit is its status."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue()


JUNK = st.sampled_from(["x", "2.5", "", "-", "--r", "1e3"])
CHOW_ARGV = st.builds(
    lambda r, n, fmt, flags: ["chow", "--r", r, "--n", n, *fmt, *flags],
    st.one_of(st.integers(1, 5).map(str), JUNK),
    st.one_of(st.integers(-1, 3).map(str), JUNK),
    st.sampled_from([[], ["--format", "text"], ["--format", "json"]]),
    st.lists(st.sampled_from(["--betti-only", "--oracle"]), unique=True),
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(CHOW_ARGV)
def test_chow_argv_fuzz_exits_0_or_2_with_repeatable_output(monkeypatch, argv):
    monkeypatch.delenv("CYCLIC_WONDERFUL_MAX_CELLS", raising=False)
    status, out = main_stdout(argv)
    assert status in (0, 2)
    assert main_stdout(argv) == (status, out)


CHECK_CHOW_ARGV = st.builds(
    lambda r, n, seed: ["check", "--suite", "chow", "--r", r, "--n", n, *seed],
    st.one_of(st.integers(1, 4).map(str), JUNK),
    st.one_of(st.sampled_from(["-1", "0", "1", "2", "3", "40", "3000"]), JUNK),
    st.sampled_from([[], ["--seed", "5"], ["--seed", "x"]]),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(CHECK_CHOW_ARGV)
def test_check_chow_argv_fuzz_exits_0_1_or_2_with_repeatable_output(monkeypatch, argv):
    monkeypatch.delenv("CYCLIC_WONDERFUL_MAX_CELLS", raising=False)
    status, out = main_stdout(argv)
    assert status in (0, 1, 2)
    assert main_stdout(argv) == (status, out)


RATIONAL = st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "1/0", "x", "1e3"])
TRIPLE = st.builds(
    lambda i, spoke, length: f"{i}:{spoke}:{length}",
    st.integers(0, 3),
    st.sampled_from(["0", "1", "2", "c", "x"]),
    RATIONAL,
)


@st.composite
def fan_locate_check_argv(draw):
    """A fan, locate or check argv at r in 1..3 and n in -1..2.

    A point mostly has the ambient length, so that many of them locate; one
    argv in four then has one of its tokens replaced by junk.
    """
    r, n = draw(st.integers(1, 3)), draw(st.integers(-1, 2))
    command = draw(st.sampled_from(["fan", "locate", "check"]))
    argv = [command, "--r", str(r), "--n", str(n)]
    if command == "check":
        argv += ["--suite", draw(st.sampled_from(["fan", "tropical", "normal"]))]
        argv += draw(st.sampled_from([[], ["--seed", "3"]]))
    else:
        argv += draw(st.sampled_from([[], ["--format", "text"], ["--format", "json"]]))
    if command == "fan":
        argv += draw(st.sampled_from([[], ["--via-stellar"]]))
    elif command == "locate" and draw(st.booleans()):
        dim = max((r - 1) * n, 0)
        size = draw(st.sampled_from([dim, dim, dim + 1, max(dim - 1, 0)]))
        point = draw(st.lists(RATIONAL, min_size=size, max_size=size))
        # the = form passes a value that starts with "-" as the value
        argv.append("--point=" + ",".join(point))
    elif command == "locate":
        argv.append("--curve=" + ",".join(draw(st.lists(TRIPLE | JUNK, max_size=3))))
    if draw(st.integers(0, 3)) == 0:
        argv[draw(st.integers(1, len(argv) - 1))] = draw(JUNK)
    return argv


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(fan_locate_check_argv())
def test_fan_locate_and_check_argv_fuzz_exits_0_or_2_with_repeatable_output(
    monkeypatch, argv
):
    monkeypatch.delenv("CYCLIC_WONDERFUL_MAX_CELLS", raising=False)
    status, out = main_stdout(argv)
    assert status in (0, 2)
    assert main_stdout(argv) == (status, out)


NORMAL_COMPLEX_ARGV = st.builds(
    lambda r, n, fmt, flags: ["normal-complex", "--r", r, "--n", n, *fmt, *flags],
    st.one_of(st.integers(1, 4).map(str), JUNK),
    st.one_of(st.integers(-1, 2).map(str), JUNK),
    st.sampled_from([[], ["--format", "text"], ["--format", "json"], ["--format", "x"]]),
    st.sampled_from([[], ["--union-extremes"]]),
)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(NORMAL_COMPLEX_ARGV)
def test_normal_complex_argv_fuzz_exits_0_or_2_with_repeatable_output(monkeypatch, argv):
    monkeypatch.delenv("CYCLIC_WONDERFUL_MAX_CELLS", raising=False)
    status, out = main_stdout(argv)
    assert status in (0, 2)
    assert main_stdout(argv) == (status, out)


def test_check_names_the_origin_at_n_0_for_r_2_too():
    status, out = main_stdout(["check", "--r", "2", "--n", "0", "--suite", "fan"])
    assert status == 0
    assert out.splitlines()[-2] == "PASS [fan] complete for n = 0: the fan is the origin of R^0"


@pytest.mark.parametrize("r", ["3", "5"])
def test_check_passes_at_n_0_for_r_above_2(r):
    # the fan at n = 0 is the origin of R^0, so it is complete for every r
    status, out = main_stdout(["check", "--r", r, "--n", "0"])
    assert status == 0
    assert "FAIL" not in out
    assert "PASS [fan] complete for n = 0" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--r", "2", "--n", "1", "--format", "json"],
        ["fan", "--r", "2", "--n", "1", "--seed", "1"],
    ],
)
def test_an_option_the_command_does_not_read_is_a_usage_error(argv):
    assert main_stdout(argv)[0] == 2


@pytest.mark.parametrize("r,n", [("1", "2"), ("x", "2"), ("2", "-1")])
def test_chow_bad_r_or_n_is_a_usage_error(r, n):
    assert main_stdout(["chow", "--r", r, "--n", n])[0] == 2


def test_chow_oracle_flag_fails_past_the_guard():
    status, out = invoke(["chow", "--r", "9", "--n", "5", "--betti-only", "--oracle"])
    assert status == 2
    assert "guard" in out


def test_chow_without_oracle_flag_prints_dashes_past_the_guard():
    status, out = invoke(["chow", "--r", "10", "--n", "3", "--betti-only"])
    assert status == 0
    table = [line.split() for line in out.strip().splitlines()[1:]]
    assert [row[1] for row in table] == ["1", "1303", "1303", "1"]
    assert all(row[2:] == ["-", "-"] for row in table)


def test_chow_prints_dashes_past_the_oracle_width_at_once():
    # (2, 6) has 728 generators but 3,055,248 top-degree chain monomials
    start = time.perf_counter()
    status, out = invoke(["chow", "--r", "2", "--n", "6", "--betti-only"])
    assert time.perf_counter() - start < 1
    assert status == 0
    table = [line.split() for line in out.strip().splitlines()[1:]]
    assert [row[1] for row in table] == ["1", "722", "10543", "23548", "10543", "722", "1"]
    assert all(row[2:] == ["-", "-"] for row in table)


# --- locate ------------------------------------------------------------------


def test_locate_curve():
    status, out = invoke(
        ["locate", "--r", "3", "--n", "2", "--curve", "1:0:2,2:2:1"]
    )
    assert status == 0
    assert "chain: {1:0}<{1:0,2:1}" in out
    assert "point: (-2,-2,0,1)" in out


def test_locate_point_json():
    status, out = invoke(
        [
            "locate",
            "--r",
            "3",
            "--n",
            "2",
            "--point",
            "0,3,0,1",
            "--format",
            "json",
        ]
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["chain"] == "{1:1}<{1:1,2:1}"
    assert payload["in_support"] is True


def test_locate_point_outside_support():
    status, out = invoke(["locate", "--r", "3", "--n", "2", "--point", "1,1,0,0"])
    assert status == 0
    assert "outside the fan support" in out


def test_locate_reads_an_empty_point_as_the_point_of_r_0():
    status, out = invoke(["locate", "--r", "3", "--n", "0", "--point", ""])
    assert (status, out) == (0, "point: ()\nchain: {}\n")
    status, out = invoke(["locate", "--r", "3", "--n", "1", "--point", ""])
    assert (status, out) == (2, "error: point needs 2 coordinates, got 0\n")


def test_locate_curve_disagreement_is_a_failed_check(monkeypatch):
    monkeypatch.setattr("cyclic_wonderful.cli.in_relative_interior", lambda *args: False)
    status, out = invoke(
        ["locate", "--r", "3", "--n", "2", "--curve", "1:0:2,2:2:1"]
    )
    assert status == 1
    assert out == "error: combinatorial type disagrees with point location\n"


def test_locate_point_disagreement_is_a_failed_check(monkeypatch):
    monkeypatch.setattr("cyclic_wonderful.cli.in_relative_interior", lambda *args: False)
    status, out = invoke(["locate", "--r", "3", "--n", "2", "--point", "0,3,0,1"])
    assert status == 1
    assert out == "error: combinatorial type disagrees with point location\n"


@pytest.mark.parametrize(
    "target",
    [["--point", "0,3,0,1"], ["--point", "1,1,0,0"], ["--curve", "1:0:2,2:2:1"]],
    ids=["point", "off-support", "curve"],
)
def test_locate_builds_no_fan_and_scans_no_cone(monkeypatch, target):
    def refuse(*args):
        raise AssertionError("locate built or scanned the fan")

    monkeypatch.setattr("cyclic_wonderful.cli.build_fan", refuse)
    monkeypatch.setattr("cyclic_wonderful.fan.build_fan", refuse)
    monkeypatch.setattr("cyclic_wonderful.fan.locate_point", refuse)
    status, out = invoke(["locate", "--r", "3", "--n", "2", *target])
    assert status == 0
    assert out.startswith("point: (")


@pytest.mark.parametrize(
    "target", [["--point", "1/0,0"], ["--curve", "1:0:1/0"]], ids=["point", "curve"]
)
def test_locate_zero_denominator_is_a_usage_error(target):
    status, out = invoke(["locate", "--r", "2", "--n", "2", *target])
    assert status == 2
    assert out.startswith("error: zero denominator")


@pytest.mark.parametrize(
    "point,text",
    [("abc", "abc"), ("1/2/3", "1/2/3"), ("1/-2", "1/-2"), ("inf", "inf"), ("1,,1", ""), ("1e3", "1e3")],
    ids=["word", "two-slashes", "signed-denominator", "inf", "empty-field", "exponent"],
)
def test_locate_words_every_malformed_coordinate_in_one_message(point, text):
    # Fraction's own refusals printed "Invalid literal for Fraction: 'abc'"
    status, out = invoke(["locate", "--r", "2", "--n", "1", "--point", point])
    assert (status, out) == (2, f"error: {text!r} is not an integer, p/q or plain decimal\n")
    status, out = invoke(["locate", "--r", "2", "--n", "1", "--curve", f"1:0:{text}"])
    assert (status, out) == (2, f"error: {text!r} is not an integer, p/q or plain decimal\n")


@pytest.mark.parametrize(
    "target",
    [["--point", "1e10000000"], ["--curve", "1:0:1e10000000"]],
    ids=["point", "curve"],
)
def test_locate_refuses_exponent_notation_at_once(target):
    start = time.perf_counter()
    status, out = invoke(["locate", "--r", "2", "--n", "1", *target])
    assert time.perf_counter() - start < 1
    assert status == 2
    assert out == "error: '1e10000000' is not an integer, p/q or plain decimal\n"


@pytest.mark.parametrize(
    "target,text",
    [(["--point", "1_000,0"], "1_000"), (["--curve", "1:0:1_0"], "1_0")],
    ids=["point", "curve"],
)
def test_locate_refuses_underscores_on_every_python(target, text):
    status, out = invoke(["locate", "--r", "3", "--n", "1", *target])
    assert status == 2
    assert out == f"error: {text!r} is not an integer, p/q or plain decimal\n"


@pytest.mark.parametrize(
    "curve,message",
    [("1:0_1:1", "spoke '0_1'"), ("1_0:0:1", "orbit index '1_0'")],
    ids=["spoke", "orbit-index"],
)
def test_locate_refuses_underscores_in_a_curve_s_integer_fields(curve, message):
    # int() alone reads digit-group underscores: "0_1" as the spoke 1
    status, out = invoke(["locate", "--r", "3", "--n", "2", "--curve", curve])
    assert (status, out) == (2, f"error: {message} is not an integer\n")


@pytest.mark.parametrize(
    "option,text",
    [("--r", "٢"), ("--n", "٢"), ("--seed", "٣"), ("--n", "２"), ("--r", "1_0"), ("--seed", "1_2")],
    ids=["r", "n", "seed", "fullwidth-n", "r-underscore", "seed-underscore"],
)
def test_number_options_refuse_underscores_and_non_ascii_digits(capsys, option, text):
    # int() reads every Unicode decimal digit, '٢' (Arabic-Indic) as 2, and
    # digit-group underscores, '1_0' as 10, as a curve's integer fields do not
    argv = {"--r": "2", "--n": "2", "--seed": "0", option: text}
    assert main(["check", *itertools.chain(*argv.items())]) == 2
    assert capsys.readouterr().err.endswith(f"error: argument {option}: invalid int value: {text!r}\n")


@pytest.mark.parametrize(
    "curve,message",
    [("١:0:1", "orbit index '١'"), ("1:١:1", "spoke '١'")],
    ids=["orbit-index", "spoke"],
)
def test_locate_refuses_non_ascii_digits_in_a_curve_s_integer_fields(curve, message):
    status, out = invoke(["locate", "--r", "3", "--n", "2", "--curve", curve])
    assert (status, out) == (2, f"error: {message} is not an integer\n")


@pytest.mark.parametrize(
    "target,text",
    [(["--point", "١,0,0,0"], "١"), (["--curve", "1:0:١"], "١"), (["--point", "1/٢,0,0,0"], "1/٢")],
    ids=["point", "curve", "denominator"],
)
def test_locate_refuses_non_ascii_digits_in_a_rational(target, text):
    # Fraction reads them too: the point printed as (1,0,0,0) and exited 0
    status, out = invoke(["locate", "--r", "3", "--n", "2", *target])
    assert (status, out) == (2, f"error: {text!r} is not an integer, p/q or plain decimal\n")


@pytest.mark.parametrize(
    "target", [["--point", "1.5, -1/2"], ["--curve", "1:1:1.5,2:0:1/2"]], ids=["point", "curve"]
)
def test_locate_reads_decimals_and_fractions(target):
    status, out = invoke(["locate", "--r", "2", "--n", "2", *target])
    assert status == 0
    assert out == "point: (3/2,-1/2)\nchain: {1:1}<{1:1,2:0}\n"


def test_locate_repeated_orbit_index_is_a_usage_error():
    status, out = invoke(["locate", "--r", "2", "--n", "2", "--curve", "1:0:1,1:1:2"])
    assert status == 2
    assert out == "error: orbit index 1 given more than once\n"


def test_locate_requires_exactly_one_target():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["locate", "--r", "2", "--n", "2"])
    assert exc.value.code == 2


# --- normal complex ----------------------------------------------------------


def test_normal_complex_json_schema():
    status, out = invoke(
        ["normal-complex", "--r", "3", "--n", "1", "--format", "json"]
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["r"] == 3 and payload["n"] == 1
    assert len(payload["cells"]) == 3
    cell = payload["cells"][0]
    assert {"chain", "h_rep", "vertices"} <= set(cell)
    assert {"normal", "bound"} <= set(cell["h_rep"][0])


def test_normal_complex_union_extremes_octagon():
    status, out = invoke(
        [
            "normal-complex",
            "--r",
            "2",
            "--n",
            "2",
            "--format",
            "json",
            "--union-extremes",
        ]
    )
    assert status == 0
    payload = json.loads(out)
    points = {tuple(int(x) for x in p) for p in payload["union_extremes"]}
    assert points == {
        (sa * a, sb * b)
        for a, b in ((1, 2), (2, 1))
        for sa in (1, -1)
        for sb in (1, -1)
    }


@pytest.mark.parametrize("r,n", [(3, 3), (4, 3), (2, 4)])
def test_normal_complex_union_extremes_past_the_old_hull_bound(monkeypatch, r, n):
    # 442, 989 and 1,697 distinct cell vertices; the orbit has n! r^n points
    monkeypatch.delenv("CYCLIC_WONDERFUL_MAX_CELLS", raising=False)
    status, out = invoke(
        ["normal-complex", "--r", str(r), "--n", str(n), "--union-extremes", "--format", "json"]
    )
    assert status == 0
    assert len(json.loads(out)["union_extremes"]) == ArrangementSpec(r, n).num_maximal_chains


def test_normal_complex_guard(monkeypatch):
    # the guard bounds the cells alone: 4! 2^4 = 384 run, 4! 3^4 = 1944 do not
    monkeypatch.delenv("CYCLIC_WONDERFUL_MAX_CELLS", raising=False)
    status, out = invoke(["normal-complex", "--r", "2", "--n", "4"])
    assert status == 0
    assert out.startswith("normal complex for r=2, n=4: 384 cells\n")
    status, out = invoke(["normal-complex", "--r", "3", "--n", "4"])
    assert status == 2
    assert out == (
        "feasibility error: normal complex with 1944 cells exceeds the guard bound "
        "1000 (override with CYCLIC_WONDERFUL_MAX_CELLS)\n"
    )


# --- check -------------------------------------------------------------------


def test_check_all_suites_pass_at_2_2():
    status, out = invoke(["check", "--r", "2", "--n", "2", "--suite", "all"])
    assert status == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_check_single_suite():
    status, out = invoke(["check", "--r", "3", "--n", "2", "--suite", "tropical"])
    assert status == 0
    assert out.count("PASS [tropical]") == 3


# --- determinism and process-level behavior -----------------------------------


def test_identical_config_and_seed_give_identical_bytes():
    args = ["check", "--r", "2", "--n", "2", "--suite", "fan", "--seed", "5"]
    assert invoke(args) == invoke(args)
    args2 = ["fan", "--r", "3", "--n", "2", "--format", "json"]
    assert invoke(args2) == invoke(args2)


def test_main_writes_to_file(tmp_path):
    out_file = tmp_path / "fan.json"
    status = main(
        ["fan", "--r", "2", "--n", "1", "--format", "json", "--out", str(out_file)]
    )
    assert status == 0
    payload = json.loads(out_file.read_text())
    assert payload["r"] == 2


@pytest.mark.parametrize("where", ["missing/fan.txt", "."])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, where):
    # a file in a missing directory, and a path that is a directory
    target = tmp_path / where
    assert main(["fan", "--r", "2", "--n", "1", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write")
    assert len(captured.err.splitlines()) == 1


def test_a_directory_target_is_refused_before_the_command_runs(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr("cyclic_wonderful.cli.build_fan", refuse)
    assert main(["fan", "--r", "2", "--n", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {str(tmp_path)!r}: Is a directory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,status",
    [
        (["fan", "--r", "2", "--n", "1", "--format", "json"], 0),
        (["locate", "--r", "3", "--n", "2", "--point", "0,3,0,1"], 1),
        (["fan", "--r", "9", "--n", "5"], 2),
    ],
    ids=["exit-0", "exit-1", "exit-2"],
)
def test_out_replaces_the_target_with_what_stdout_prints(monkeypatch, tmp_path, capsys, argv, status):
    monkeypatch.setattr("cyclic_wonderful.cli.in_relative_interior", lambda *args: False)
    assert main(argv) == status
    printed = capsys.readouterr().out
    target = tmp_path / "out.txt"
    target.write_text("an earlier run\n")
    assert main([*argv, "--out", str(target)]) == status
    assert capsys.readouterr() == ("", "")
    assert target.read_text() == printed
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class FailsAfterOneChunk:
    """A file whose second write fails, as on a full disk."""

    def __init__(self, fh):
        self.fh, self.chunks = fh, 0

    def write(self, text):
        if self.chunks:
            raise OSError(28, "No space left on device")
        self.chunks += 1
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("existing", [False, True])
def test_a_failed_write_leaves_no_file_and_the_target_as_it_was(monkeypatch, tmp_path, capsys, existing):
    opened = []

    def failing_open(*args, **kwargs):
        opened.append(args[0])
        return FailsAfterOneChunk(open(*args, **kwargs))

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    target = tmp_path / "fan.json"
    if existing:
        target.write_text("an earlier run\n")
    assert main(["fan", "--r", "2", "--n", "2", "--format", "json", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {str(target)!r}: No space left on device\n"
    # the writer wrote to a file of its own beside the target, now gone
    assert len(opened) == 1 and opened[0] != str(target)
    assert [p.name for p in tmp_path.iterdir()] == (["fan.json"] if existing else [])
    if existing:
        assert target.read_text() == "an earlier run\n"


def test_out_writes_a_device_or_a_symlink_in_place(tmp_path, capsys):
    # a device cannot be replaced by a file: the null device stays one
    assert main(["fan", "--r", "2", "--n", "1", "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    # a symlink stays one, and the file it names gets the output
    (tmp_path / "fan.txt").write_text("an earlier run\n")
    (tmp_path / "link").symlink_to("fan.txt")
    assert main(["fan", "--r", "2", "--n", "1", "--out", str(tmp_path / "link")]) == 0
    assert (tmp_path / "link").is_symlink()
    assert (tmp_path / "fan.txt").read_text().startswith("fan for r=2, n=1\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fan.txt", "link"]


def test_a_reader_that_closes_early_gets_one_line_and_exit_2():
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyclic_wonderful", "normal-complex", "--r", "60", "--n", "1", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert os.read(proc.stdout.fileno(), 10) == b'{\n  "r": 6'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert err == "error: cannot write to stdout: Broken pipe\n"


def test_usage_error_exit_code_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclic_wonderful", "fan", "--r", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "--n" in proc.stderr


def test_module_entry_point_runs():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "cyclic_wonderful",
            "chow",
            "--r",
            "2",
            "--n",
            "2",
            "--betti-only",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].split() == ["0", "1", "1", "yes"]


# --- one parser per process ---------------------------------------------------


def test_main_calls_share_one_parser_built_on_the_first_call(monkeypatch, capsys):
    built = []

    def counted():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert main(["chow", "--r", "2", "--n", "2", "--betti-only"]) == 0
        assert main(["check", "--r", "2", "--n", "1", "--suite", "chow"]) == 0
        assert len(built) == 1
        # a usage error on the reused parser leaves it whole for the next call
        assert main(["fan", "--r", "2"]) == 2
        assert "--n" in capsys.readouterr().err
        assert main(["fan", "--r", "2", "--n", "1"]) == 0
        assert capsys.readouterr().out.startswith("fan for r=2, n=1\n")
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_build_parser_returns_a_new_parser_on_each_call():
    assert build_parser() is not build_parser()


def test_importing_the_cli_builds_no_parser():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from cyclic_wonderful import cli; print(cli._parser.cache_info().currsize)",
        ],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n")
