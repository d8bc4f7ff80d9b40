"""Feasibility guards shared by the fan, Chow and normal-complex builders.

The guards keep desk-scale commands from accidentally requesting exponential
work.  Setting the environment variable ``CYCLIC_WONDERFUL_MAX_CELLS`` to an
integer >= 0 replaces every default bound with that value, ``0`` included
(expert use); any other value is refused with a ``FeasibilityError``.

A spec's sizes reach the guards capped at ``COUNT_CAP + 1`` (see
``ArrangementSpec.num_subsets_upto``): a refusal never computes ``(1+r)^n``
or ``n! r^n`` in full, and a capped size prints as ``more than`` the bound.
An override above ``COUNT_CAP`` acts as ``COUNT_CAP``.
"""

from __future__ import annotations

import os

from .lattice import ArrangementSpec

ENV_OVERRIDE = "CYCLIC_WONDERFUL_MAX_CELLS"

DEFAULT_FAN_CELLS = 50_000        # rays + maximal cones of a fan build
DEFAULT_ORACLE_GENERATORS = 1_000  # generator count for the Chow rank oracle
DEFAULT_ORACLE_MONOMIALS = 200_000  # the rank oracle's top-degree chain monomials
DEFAULT_NORMAL_CELLS = 1_000       # cells of the normal complex (~0.1-0.2 ms each at n = 3)
COUNT_CAP = 10**18                 # sizes above this are never computed in full


class FeasibilityError(ValueError):
    """Raised when a requested computation exceeds its guard bound."""


def _bound(default: int) -> int:
    """The override when it is set (an integer >= 0), else the default."""
    raw = os.environ.get(ENV_OVERRIDE)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise FeasibilityError(f"{ENV_OVERRIDE} must be an integer >= 0, got {raw!r}")
    return min(value, COUNT_CAP)


def _size(count: int, bound: int) -> str:
    """The count, or ``more than <bound>`` for a count capped above COUNT_CAP."""
    return str(count) if count <= COUNT_CAP else f"more than {bound}"


def check_override() -> None:
    """Refuse an override that is set but is not an integer >= 0."""
    _bound(0)


def _refuse_over(default: int, what: str, *counts: int) -> None:
    """Raise when the counts sum past the bound; ``what`` names the request,
    with one ``{}`` per count."""
    bound = _bound(default)
    if sum(counts) > bound:
        sizes = (_size(count, bound) for count in counts)
        raise FeasibilityError(
            f"{what.format(*sizes)} exceeds the guard bound {bound} "
            f"(override with {ENV_OVERRIDE})"
        )


def check_fan_size(rays: int, max_cones: int) -> None:
    _refuse_over(DEFAULT_FAN_CELLS, "fan with {} rays and {} maximal cones", rays, max_cones)


def check_fan_spec(spec: ArrangementSpec) -> None:
    """Refuse before any work, from sizes that are never computed in full."""
    check_fan_size(spec.num_subsets_upto(COUNT_CAP), spec.num_maximal_chains_upto(COUNT_CAP))


def check_oracle_size(generators: int) -> None:
    _refuse_over(DEFAULT_ORACLE_GENERATORS, "rank oracle with {} generators", generators)


def check_oracle_width(monomials: int) -> None:
    """Bound the rank oracle's widest degree, its top-degree chain monomials."""
    _refuse_over(
        DEFAULT_ORACLE_MONOMIALS, "rank oracle with {} top-degree chain monomials", monomials
    )


def check_normal_complex(cells: int) -> None:
    _refuse_over(DEFAULT_NORMAL_CELLS, "normal complex with {} cells", cells)
