"""Cutting the plane with an infinite axis-aligned curve, two ways.

The engine constantly asks on which side of a cut a point lies.  The
production classifier counts crossings of a diagonal ray with the curve,
which needs no window and no floats; the oracle floods the window from
its west and east edges.  This script draws a random cut and checks the
two agree everywhere.  A unit step from a point of the cut is decided
from the cut's two arms at that point; the script checks every such step
against a flood fill of the doubled cut, where the step's midpoint is a
lattice point.  Last it shows the closing fact used for ray containment:
a south ray strictly east of the cut's own south ray lies entirely in the
right component.  The script exits nonzero when a check it prints fails.
"""

import random
import sys

from pumpkit import PolyCurve, Side, classify_side
from pumpkit.geometry import SideCache, curve_in_closed_right, step_side
from pumpkit.oracle import FloodFill

rng = random.Random(7)

points = [(1, -8)]
y = -8
for _ in range(7):
    x = points[-1][0] + rng.choice([-2, -1, 1, 2]) * rng.randrange(1, 3)
    points.append((x, y))
    y += rng.randrange(1, 3)
    points.append((x, y))
curve = PolyCurve(points, south_ray=True, north_ray=True)
print(f"curve through {len(curve.points)} vertices, simple: {curve.is_simple()}")

x0, y0, x1, y1 = curve.bbox()
window = (x0 - 4, y0 - 4, x1 + 4, y1 + 4)
fill = FloodFill(curve, window)

glyph = {Side.LEFT: ".", Side.RIGHT: "#", Side.ON: "o"}
disagreements = 0
rows = []
for yy in range(window[3], window[1] - 1, -1):
    row = []
    for xx in range(window[0], window[2] + 1):
        a = classify_side(curve, (xx, yy))
        b = fill.side((xx, yy))
        disagreements += a is not b
        row.append(glyph[a])
    rows.append("".join(row))
print("\n".join(rows))
print(f"disagreements between classifier and flood fill: {disagreements}")

# Every step from a lattice point of the cut: along it, off it, or a chord
# back onto it, against the doubled cut's flood fill at the step midpoint.
doubled = PolyCurve([(2 * x, 2 * y) for x, y in curve.points],
                    south_ray=True, north_ray=True)
fill2 = FloodFill(doubled, tuple(2 * c for c in window))
step_disagreements = chords = 0
for a in curve.lattice_points():
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        b = (a[0] + dx, a[1] + dy)
        side = step_side(curve, a, b)
        step_disagreements += side is not fill2.side((2 * a[0] + dx, 2 * a[1] + dy))
        chords += side is not Side.ON and curve.contains(b)
print(f"steps from the cut: {4 * len(curve.lattice_points())}, of them chords: {chords}, "
      f"disagreements with the doubled flood fill: {step_disagreements}")

probe = PolyCurve([(x1 + 2, y0)], south_ray=True)
escape = curve_in_closed_right(probe, SideCache(curve))
print(f"south ray east of the cut stays right of it: {escape is None}")

if disagreements or step_disagreements or escape is not None:
    sys.exit("a check failed: the side rules disagree")
