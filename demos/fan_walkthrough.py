#!/usr/bin/env python3
"""Walk through the fan of the r = 2, n = 2 arrangement.

Builds the fan both ways (directly from chains, and by stellar subdivision
of the product fan), confirms they agree, then locates a few points.
"""

from cyclic_wonderful import (
    ArrangementSpec,
    BuildingSet,
    build_fan,
    build_fan_stellar,
    fans_equal,
    locate_point,
)

spec = ArrangementSpec(r=2, n=2)
g = BuildingSet.maximal(spec)

fan = build_fan(spec, g)
print(f"direct construction: {len(fan.rays)} rays, "
      f"{sum(1 for c in fan.chains if c.length == 2)} two-dimensional cones")

for subset, vector in sorted(fan.rays.items(), key=lambda kv: kv[0].sort_key()):
    print(f"  ray {subset.text():12s} -> {vector}")

stellar = build_fan_stellar(spec, g)
print("stellar route agrees with the direct one:", fans_equal(fan, stellar))

print("\npoint location (an integer membership test per cone):")
for point in [(0, 0), (-1, 1), (-3, -1), (2, 5)]:
    chain = locate_point(fan, point)
    where = chain.text() if chain is not None else "outside the support"
    print(f"  {point} lies in the cone of {where}")

# for r = 2 the fan is complete, so every point of the plane locates; for
# r > 2 the fan is a proper subset of its ambient space
spec32 = ArrangementSpec(r=3, n=2)
fan32 = build_fan(spec32, BuildingSet.maximal(spec32))
print("\nat r = 3, n = 2 the support is a 2-dimensional fan inside 4-space:")
print("  (1,1,0,0) locates to:", locate_point(fan32, (1, 1, 0, 0)))
print("  (0,3,0,1) locates to:", locate_point(fan32, (0, 3, 0, 1)).text())
