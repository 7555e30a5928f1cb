"""Two interchangeable tiles: the same glue grows two different lines.

With tiles A and B both bridging glue 'a' east-west, a path that spells
A-A-B-A is producible but fragile: growing A-A-A first claims the third
position with the wrong type, and the spelled path can never complete.
The engine discovers this while trying to repeat the path's period: the
two translated copies of the segment disagree on a tile type, and the
disagreement converts directly into a replayable blocking sequence.  The
script exits nonzero when a check it prints fails.
"""

import sys

from pumpkit import (
    Assembly,
    Path,
    TileSystem,
    TileType,
    enumerate_shields,
    pump_or_block,
    replay_assembly_sequence,
    verify_fragile_cert,
)
from pumpkit import oracle

A = TileType("A", east="a", west="a")
B = TileType("B", east="a", west="a", north="b")
system = TileSystem([A, B], Assembly({(0, 0): A}))
path = Path([((1, 0), A), ((2, 0), A), ((3, 0), B), ((4, 0), A)])

shields = enumerate_shields(system, path)
print(f"shields of the path: {[(s.i, s.j, s.k) for s in shields]}")

outcome = pump_or_block(system, path, shields[1])
print(f"decision: {outcome.kind} (branch {outcome.branch})")

cert = outcome.fragile
print("blocking sequence:")
for pos, t in cert.attachments:
    print(f"  attach {t.name} at {pos}")
print(f"conflict at {cert.conflict}: the path wants "
      f"{dict(path.entries)[cert.conflict].name} there")

final = replay_assembly_sequence(system, cert.attachments)
verdict = verify_fragile_cert(system, path, cert)
print(f"replay grows {len(final)} tiles; verifier says {verdict.ok}")

# The brute-force search reaches the same verdict without any geometry.
found = oracle.brute_fragile(system, path)
print(f"exhaustive search finds a conflict at {found.conflict if found else None}")

if not verdict.ok or found is None:
    sys.exit("a check failed: the path was not shown fragile")
