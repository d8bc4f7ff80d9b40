#!/usr/bin/env python3
"""From a tropical curve to a fan point and back.

A curve is a pinwheel: r rotationally symmetric spokes around a central
vertex.  Each marked orbit sits either on the center or on a spoke at some
positive rational distance.  The embedding into the fan's ambient space is
faithful, and sorting the distances reads off the stratum.
"""

from fractions import Fraction

from cyclic_wonderful import (
    ArrangementSpec,
    BuildingSet,
    CENTER,
    TropicalCurve,
    build_fan,
    combinatorial_type,
    curve_from_point,
    embed,
    locate_point,
)
from cyclic_wonderful.tropical import render_pinwheel

spec = ArrangementSpec(r=3, n=3)
curve = TropicalCurve.of([1, 2, CENTER], [Fraction(5, 2), Fraction(5, 2), 0])

print(render_pinwheel(curve, spec))

point = embed(curve, spec)
print("\nembedded point:", tuple(str(x) for x in point))

chain = combinatorial_type(curve, spec)
print("combinatorial type (equal distances share a flag level):", chain.text())

fan = build_fan(spec, BuildingSet.maximal(spec))
assert locate_point(fan, point) == chain
print("point location in the fan agrees")

back = curve_from_point(point, spec)
assert back == curve
print("round trip recovers the curve exactly")

# scaling the metric does not change the stratum
scaled = TropicalCurve.of(curve.spokes, [7 * x for x in curve.lengths])
assert combinatorial_type(scaled, spec) == chain
print("scaling by 7 keeps the combinatorial type")
