"""Command-line behavior: exit codes, schemas, determinism, round trips."""

import json
import subprocess
import sys

import pytest

from cyclic_wonderful.cli import config_from_args, main, run
from cyclic_wonderful.fan import build_fan, fans_equal
from cyclic_wonderful.lattice import ArrangementSpec, BuildingSet
from cyclic_wonderful.serialize import fan_from_dict


def invoke(argv):
    config = config_from_args(argv)
    status = run(config)
    return status, config.output()


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


def test_chow_oracle_flag_fails_past_the_guard():
    status, out = invoke(["chow", "--r", "9", "--n", "5", "--betti-only", "--oracle"])
    assert status == 2
    assert "guard" in out


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


def test_locate_curve_disagreement_is_a_failed_check(monkeypatch):
    monkeypatch.setattr("cyclic_wonderful.cli.locate_point", lambda fan, point: None)
    status, out = invoke(
        ["locate", "--r", "3", "--n", "2", "--curve", "1:0:2,2:2:1"]
    )
    assert status == 1
    assert out == "error: combinatorial type disagrees with point location\n"


@pytest.mark.parametrize(
    "target", [["--point", "1/0,0"], ["--curve", "1:0:1/0"]], ids=["point", "curve"]
)
def test_locate_zero_denominator_is_a_usage_error(target):
    status, out = invoke(["locate", "--r", "2", "--n", "2", *target])
    assert status == 2
    assert out.startswith("error: zero denominator")


def test_locate_requires_exactly_one_target():
    with pytest.raises(SystemExit) as exc:
        config_from_args(["locate", "--r", "2", "--n", "2"])
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


def test_normal_complex_guard():
    status, out = invoke(["normal-complex", "--r", "2", "--n", "4"])
    assert status == 2
    assert "guard" in out


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
