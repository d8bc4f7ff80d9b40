"""Exact-arithmetic toolkit for moduli of rational curves with cyclic action.

Public surface, by capability:

* :mod:`cyclic_wonderful.lattice` - decorated subsets, chains, the
  maximal building set and nestedness.
* :mod:`cyclic_wonderful.fan` - the nested-set fan over integer lattice
  coordinates, built directly or by stellar subdivision, with point
  location.
* :mod:`cyclic_wonderful.chow` - the boundary-divisor presentation of the
  Chow ring and its graded ranks, by closed formula and by an independent
  rank oracle.
* :mod:`cyclic_wonderful.tropical` - tropical curves in reduced orbit
  coordinates and their bijection with the fan's support.
* :mod:`cyclic_wonderful.normal_complex` - the polytopal complex obtained
  by truncating the fan at prescribed heights.
"""

from .lattice import (
    ArrangementSpec,
    BuildingSet,
    Chain,
    DecoratedSubset,
    chain_intersect,
    enumerate_chains,
    enumerate_decorated_subsets,
    is_nested,
    jump_type,
    leq,
    maximal_chains,
    parse_chain,
    parse_subset,
)
from .fan import (
    Cone,
    Fan,
    build_fan,
    build_fan_stellar,
    fans_equal,
    locate_point,
    ray_vector,
    support_decomposition,
)
from .chow import (
    betti_closed_form,
    betti_oracle,
    jump_census,
    presentation,
    product_support,
)
from .tropical import (
    CENTER,
    TropicalCurve,
    combinatorial_type,
    curve_from_point,
    embed,
)
from .normal_complex import (
    NormalComplex,
    Polytope,
    cell_polytope,
    complex_cells,
    delta,
    in_delta,
    union_extreme_points,
    z_vector,
)
from .guards import FeasibilityError

__all__ = [
    "ArrangementSpec",
    "BuildingSet",
    "CENTER",
    "Chain",
    "Cone",
    "DecoratedSubset",
    "Fan",
    "FeasibilityError",
    "NormalComplex",
    "Polytope",
    "TropicalCurve",
    "betti_closed_form",
    "betti_oracle",
    "build_fan",
    "build_fan_stellar",
    "cell_polytope",
    "chain_intersect",
    "combinatorial_type",
    "complex_cells",
    "curve_from_point",
    "delta",
    "embed",
    "enumerate_chains",
    "enumerate_decorated_subsets",
    "fans_equal",
    "in_delta",
    "is_nested",
    "jump_census",
    "jump_type",
    "leq",
    "locate_point",
    "maximal_chains",
    "parse_chain",
    "parse_subset",
    "presentation",
    "product_support",
    "ray_vector",
    "support_decomposition",
    "union_extreme_points",
    "z_vector",
]
