"""Command-line behavior: exit codes, schemas, determinism, round trips."""

import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
