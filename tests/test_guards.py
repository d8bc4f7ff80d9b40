"""Feasibility guards: one reading of the override for every guard, and
``check`` reporting a refusal as SKIP.

Nothing here builds anything large: the guards are called directly with the
sizes a command would pass them, the CLI runs only where a guard refuses
before any work or at (2, 2) and below.
"""

import time

import pytest

from cyclic_wonderful import cli, guards
from cyclic_wonderful.cli import main
from cyclic_wonderful.guards import (
    COUNT_CAP,
    DEFAULT_FAN_CELLS,
    DEFAULT_NORMAL_CELLS,
    DEFAULT_ORACLE_MONOMIALS,
    ENV_OVERRIDE,
    FeasibilityError,
    check_fan_size,
    check_normal_complex,
    check_oracle_size,
    check_oracle_width,
)
from cyclic_wonderful.lattice import ArrangementSpec, BuildingSet
from cyclic_wonderful.selfcheck import CheckResult

GUARDS = {
    "fan": lambda size: check_fan_size(size, 0),
    "oracle": check_oracle_size,
    "oracle width": check_oracle_width,
    "normal": check_normal_complex,
}


@pytest.fixture
def no_override(monkeypatch):
    monkeypatch.delenv(ENV_OVERRIDE, raising=False)


@pytest.mark.parametrize("guard", GUARDS.values(), ids=GUARDS.keys())
def test_zero_override_means_zero_for_every_guard(monkeypatch, guard):
    monkeypatch.setenv(ENV_OVERRIDE, "0")
    guard(0)
    with pytest.raises(FeasibilityError, match="guard bound 0"):
        guard(1)


@pytest.mark.parametrize("guard", GUARDS.values(), ids=GUARDS.keys())
@pytest.mark.parametrize("raw", ["-1", "many", "1.5", "", "1_000", "١٠"])
def test_negative_or_non_integer_override_is_refused(monkeypatch, guard, raw):
    monkeypatch.setenv(ENV_OVERRIDE, raw)
    with pytest.raises(FeasibilityError, match="must be an integer >= 0"):
        guard(0)


def test_normal_complex_default_bounds_cells_as_well_as_n(no_override):
    check_normal_complex(DEFAULT_NORMAL_CELLS)
    cells_r50 = ArrangementSpec(50, 3).num_maximal_chains
    assert cells_r50 == 750_000
    with pytest.raises(FeasibilityError) as info:
        check_normal_complex(cells_r50)
    assert "750000 cells" in str(info.value)
    assert f"guard bound {DEFAULT_NORMAL_CELLS}" in str(info.value)


def test_normal_complex_override_replaces_both_default_bounds(monkeypatch):
    monkeypatch.setenv(ENV_OVERRIDE, "2000")
    check_normal_complex(2000)
    with pytest.raises(FeasibilityError, match="2001 cells"):
        check_normal_complex(2001)


def test_cli_refuses_a_zero_override(monkeypatch, capsys):
    monkeypatch.setenv(ENV_OVERRIDE, "0")
    assert main(["fan", "--r", "2", "--n", "2"]) == 2
    assert "guard bound 0" in capsys.readouterr().out


def test_cli_refuses_a_negative_override(monkeypatch, capsys):
    monkeypatch.setenv(ENV_OVERRIDE, "-1")
    assert main(["fan", "--r", "2", "--n", "2"]) == 2
    assert "must be an integer >= 0" in capsys.readouterr().out


def test_cli_override_is_an_inclusive_bound(monkeypatch, capsys):
    # the (2, 2) fan has 8 rays and 8 maximal cones
    monkeypatch.setenv(ENV_OVERRIDE, "16")
    assert main(["fan", "--r", "2", "--n", "2"]) == 0
    monkeypatch.setenv(ENV_OVERRIDE, "15")
    assert main(["fan", "--r", "2", "--n", "2"]) == 2


# --- huge specs: refused from capped sizes, never counted in full ---------------


@pytest.mark.parametrize("r,n", [(2, 0), (2, 1), (3, 2), (4, 3), (2, 5), (7, 4), (2, 20)])
@pytest.mark.parametrize("cap", [0, 1, 8, 80, 1000, 10**6])
def test_capped_counts_are_the_exact_counts_up_to_the_cap(r, n, cap):
    spec = ArrangementSpec(r, n)
    assert spec.num_subsets_upto(cap) == min(spec.num_subsets, cap + 1)
    assert spec.num_maximal_chains_upto(cap) == min(spec.num_maximal_chains, cap + 1)


@pytest.mark.parametrize(
    "argv",
    [
        "chow --r 3 --n 3000",
        "chow --r 99999 --n 99999",
        "chow --r 1000000 --n 1000000",
    ],
)
def test_cli_refuses_a_huge_spec_at_once(no_override, capsys, argv):
    start = time.perf_counter()
    assert main(argv.split()) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == (
        f"feasibility error: fan with more than {DEFAULT_FAN_CELLS} rays and more "
        f"than {DEFAULT_FAN_CELLS} maximal cones exceeds the guard bound "
        f"{DEFAULT_FAN_CELLS} (override with {ENV_OVERRIDE})\n"
    )


HUGE_N = "99999999999999999999"  # past 2**63, so no C ssize_t holds it
FAN_REFUSAL = (
    f"fan with more than {DEFAULT_FAN_CELLS} rays and more than {DEFAULT_FAN_CELLS} "
    f"maximal cones exceeds the guard bound {DEFAULT_FAN_CELLS} (override with {ENV_OVERRIDE})"
)


@pytest.mark.parametrize(
    "argv,status,lines",
    [
        (f"fan --r 3 --n {HUGE_N}", 2, [f"feasibility error: {FAN_REFUSAL}"]),
        (f"chow --r 2 --n {HUGE_N} --betti-only", 2, [f"feasibility error: {FAN_REFUSAL}"]),
        (f"locate --r 3 --n {HUGE_N} --curve 1:0:1", 2, [f"feasibility error: {FAN_REFUSAL}"]),
        (
            f"check --r 2 --n {HUGE_N}",
            0,
            [
                f"SKIP [fan] fan construction ({FAN_REFUSAL})",
                f"SKIP [chow] presentation and chain census ({FAN_REFUSAL})",
                f"SKIP [tropical] fan construction ({FAN_REFUSAL})",
                "SKIP [normal] cell construction (normal complex with more than "
                f"{DEFAULT_NORMAL_CELLS} cells exceeds the guard bound "
                f"{DEFAULT_NORMAL_CELLS} (override with {ENV_OVERRIDE}))",
                f"0/4 checks passed, 4 skipped for r=2, n={HUGE_N}",
            ],
        ),
    ],
)
def test_an_n_past_a_machine_integer_is_refused_not_raised(
    no_override, capsys, argv, status, lines
):
    assert main(argv.split()) == status
    assert capsys.readouterr().out.splitlines() == lines


def test_oracle_guard_prints_a_capped_size_as_more_than_the_bound(no_override):
    with pytest.raises(FeasibilityError) as info:
        check_oracle_size(ArrangementSpec(3, 3000).num_subsets_upto(COUNT_CAP))
    assert str(info.value) == (
        "rank oracle with more than 1000 generators exceeds the guard bound 1000 "
        f"(override with {ENV_OVERRIDE})"
    )


def test_an_override_above_the_count_cap_acts_as_the_cap(monkeypatch):
    monkeypatch.setenv(ENV_OVERRIDE, str(10**40))
    check_oracle_size(COUNT_CAP)
    with pytest.raises(FeasibilityError, match=f"more than {COUNT_CAP} generators"):
        check_oracle_size(ArrangementSpec(3, 3000).num_subsets_upto(COUNT_CAP))


def test_oracle_width_guard_refuses_r2_n6_by_its_top_degree(no_override, capsys):
    # 728 generators pass the generator bound; 3,055,248 top-degree chain
    # monomials do not, so the oracle is refused before any enumeration
    start = time.perf_counter()
    assert main(["chow", "--r", "2", "--n", "6", "--betti-only", "--oracle"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == (
        "feasibility error: rank oracle with 3055248 top-degree chain monomials exceeds "
        f"the guard bound {DEFAULT_ORACLE_MONOMIALS} (override with {ENV_OVERRIDE})\n"
    )


# --- check: a guard refusal is SKIP, never FAIL ---------------------------------


def test_check_reports_a_refused_normal_complex_as_skipped(no_override, capsys):
    assert main(["check", "--r", "6", "--n", "3", "--suite", "normal"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "SKIP [normal] cell construction (normal complex with 1296 cells exceeds "
        f"the guard bound {DEFAULT_NORMAL_CELLS} (override with {ENV_OVERRIDE}))",
        "0/1 checks passed, 1 skipped for r=6, n=3",
    ]


def test_union_extremes_are_refused_only_with_their_complex(monkeypatch, capsys):
    # the orbit has one point per cell: the normal-complex guard bounds both
    monkeypatch.setenv(ENV_OVERRIDE, "7")
    assert main(["normal-complex", "--r", "2", "--n", "2", "--union-extremes"]) == 2
    assert capsys.readouterr().out == (
        "feasibility error: normal complex with 8 cells exceeds the guard bound 7 "
        f"(override with {ENV_OVERRIDE})\n"
    )
    assert main(["check", "--r", "2", "--n", "2", "--suite", "normal"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "SKIP [normal] cell construction (normal complex with 8 cells exceeds "
        f"the guard bound 7 (override with {ENV_OVERRIDE}))",
        "0/1 checks passed, 1 skipped for r=2, n=2",
    ]
    monkeypatch.setenv(ENV_OVERRIDE, "8")
    assert main(["normal-complex", "--r", "2", "--n", "2", "--union-extremes"]) == 0
    assert "union extreme points:" in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["fan", "tropical"])
def test_check_refuses_a_huge_fan_before_enumerating_it(no_override, monkeypatch, capsys, suite):
    def enumerate_nothing(spec):
        raise AssertionError("the building set was enumerated before the fan guard")

    monkeypatch.setattr(BuildingSet, "maximal", enumerate_nothing)
    start = time.perf_counter()
    assert main(["check", "--r", "3", "--n", "40", "--suite", suite]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.splitlines() == [
        f"SKIP [{suite}] fan construction (fan with more than {DEFAULT_FAN_CELLS} rays "
        f"and more than {DEFAULT_FAN_CELLS} maximal cones exceeds the guard bound "
        f"{DEFAULT_FAN_CELLS} (override with {ENV_OVERRIDE}))",
        "0/1 checks passed, 1 skipped for r=3, n=40",
    ]


def test_check_reports_a_refused_oracle_as_skipped(no_override, monkeypatch, capsys):
    # the (2, 2) oracle and degree reducer need 8 generators; an override of 5
    # would refuse the suite's fan pre-check first, so lower only the default
    monkeypatch.setattr(guards, "DEFAULT_ORACLE_GENERATORS", 5)
    assert main(["check", "--r", "2", "--n", "2", "--suite", "chow"]) == 0
    out = capsys.readouterr().out
    assert out.count("SKIP [chow]") == 2
    assert "rank oracle with 8 generators exceeds the guard bound 5" in out
    assert "FAIL" not in out
    assert out.endswith("3/5 checks passed, 2 skipped for r=2, n=2\n")


def test_check_refuses_the_chow_suite_by_the_fan_guard(monkeypatch, capsys):
    # the (2, 2) fan has 8 rays and 8 maximal cones
    monkeypatch.setenv(ENV_OVERRIDE, "5")
    assert main(["check", "--r", "2", "--n", "2", "--suite", "chow"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "SKIP [chow] presentation and chain census (fan with 8 rays and 8 maximal "
        f"cones exceeds the guard bound 5 (override with {ENV_OVERRIDE}))",
        "0/1 checks passed, 1 skipped for r=2, n=2",
    ]


@pytest.mark.parametrize(
    "argv,lines",
    [
        ("check --r 3 --n 40 --suite chow", ["SKIP [chow]"]),
        ("check --r 3 --n 3000 --suite chow", ["SKIP [chow]"]),
        (
            "check --r 3 --n 40",
            ["SKIP [fan]", "SKIP [chow]", "SKIP [tropical]", "SKIP [normal]"],
        ),
    ],
)
def test_check_skips_a_huge_spec_at_once(no_override, capsys, argv, lines):
    start = time.perf_counter()
    assert main(argv.split()) == 0
    assert time.perf_counter() - start < 1
    out = capsys.readouterr().out.splitlines()
    assert [line[: line.index("]") + 1] for line in out[:-1]] == lines
    assert out[-1].startswith(f"0/{len(lines)} checks passed, {len(lines)} skipped")


def test_check_refuses_an_invalid_override_with_exit_2(monkeypatch, capsys):
    monkeypatch.setenv(ENV_OVERRIDE, "-1")
    assert main(["check", "--r", "2", "--n", "1", "--suite", "chow"]) == 2
    out = capsys.readouterr().out
    assert "must be an integer >= 0" in out
    assert "SKIP" not in out and "FAIL" not in out


def test_a_skip_never_hides_a_fail(monkeypatch, capsys):
    results = [
        CheckResult("chow", "refused", "SKIP", "too big"),
        CheckResult("chow", "broken", "FAIL"),
        CheckResult("chow", "fine", "PASS"),
    ]
    monkeypatch.setattr(cli, "run_suites", lambda spec, suites: results)
    assert main(["check", "--r", "2", "--n", "1", "--suite", "chow"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "SKIP [chow] refused (too big)",
        "FAIL [chow] broken",
        "PASS [chow] fine",
        "1/3 checks passed, 1 skipped for r=2, n=1",
    ]
