"""Feasibility guards: one reading of the override for every guard.

Nothing here builds anything large: the guards are called directly with the
sizes a command would pass them, and the CLI runs only at (2, 2).
"""

import pytest

from cyclic_wonderful.cli import main
from cyclic_wonderful.guards import (
    DEFAULT_NORMAL_CELLS,
    ENV_OVERRIDE,
    FeasibilityError,
    check_fan_size,
    check_normal_complex,
    check_oracle_size,
)
from cyclic_wonderful.lattice import ArrangementSpec

GUARDS = {
    "fan": lambda size: check_fan_size(size, 0),
    "oracle": check_oracle_size,
    "normal": lambda size: check_normal_complex(1, size),
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
@pytest.mark.parametrize("raw", ["-1", "many", "1.5", ""])
def test_negative_or_non_integer_override_is_refused(monkeypatch, guard, raw):
    monkeypatch.setenv(ENV_OVERRIDE, raw)
    with pytest.raises(FeasibilityError, match="must be an integer >= 0"):
        guard(0)


def test_normal_complex_default_bounds_cells_as_well_as_n(no_override):
    check_normal_complex(3, DEFAULT_NORMAL_CELLS)
    cells_r50 = ArrangementSpec(50, 3).num_maximal_chains
    assert cells_r50 == 750_000
    with pytest.raises(FeasibilityError) as info:
        check_normal_complex(3, cells_r50)
    assert "750000 cells" in str(info.value)
    assert f"guard bound {DEFAULT_NORMAL_CELLS}" in str(info.value)
    with pytest.raises(FeasibilityError, match="n <= 3"):
        check_normal_complex(4, 1)


def test_normal_complex_override_replaces_both_default_bounds(monkeypatch):
    monkeypatch.setenv(ENV_OVERRIDE, "2000")
    check_normal_complex(4, 2000)
    with pytest.raises(FeasibilityError, match="2001 cells"):
        check_normal_complex(3, 2001)


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
