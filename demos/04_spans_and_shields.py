"""From spans to a shield to a certificate, on a battlement-shaped path.

Each glue column of a canonical path carries at most one span: the pair
of its lowest and highest visible glues.  Two spans of the same type and
orientation whose heights do not decrease eastward give a shield, and a
shield always decides the path.  The battlement path below has spans of
heights 0, 6 and 8; the pipeline picks the westernmost qualifying pair
and pumps.  The workspace figure lands in the current directory.
"""

from pumpkit import (
    Assembly,
    Path,
    TileSystem,
    TileType,
    analyze,
    enumerate_shields,
    spans,
)
from pumpkit.shield import Shield
from pumpkit.svgout import render_svg

Z = TileType("Z", north="z", east="z", south="z", west="z")
cells = [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0),
         (6, 1), (6, 2), (6, 3), (5, 3), (4, 3), (3, 3), (2, 3),
         (2, 4), (2, 5), (2, 6), (3, 6), (3, 7), (3, 8),
         (4, 8), (5, 8), (6, 8), (7, 8), (8, 8)]
system = TileSystem([Z], Assembly({(0, 0): Z}))
path = Path([(pos, Z) for pos in cells])

print("spans by glue column:")
for s in spans(system, path):
    print(f"  column {s.coordinate}: glues {s.s}..{s.n}, {s.orientation}, "
          f"pointing {s.pointing}, height {s.height}")

shields = enumerate_shields(system, path)
print(f"{len(shields)} shields; first: {shields[0]}")

result = analyze(system, path, bound_override=4)
print(f"analysis: {result.kind} via")
for step in result.trail:
    print(f"  {step}")
print(f"pumping vector: {result.pumpable.vector}")

sh = Shield(result.pumpable.i, result.pumpable.j,
            next(s for s in shields if s.i == result.pumpable.i).k)
svg = render_svg(system, path, overlays={"rays", "cut", "regions"}, shield=sh)
with open("battlements_workspace.svg", "w", encoding="utf-8") as fh:
    fh.write(svg)
print("wrote battlements_workspace.svg")
