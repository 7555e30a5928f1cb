"""One tile, one glue: the smallest system that pumps.

A single tile type whose east and west sides carry the same glue grows
arbitrarily long east-west lines off the seed.  The analysis pipeline
spots the repeated glue column, builds a workspace for it, and hands back
an index pair: repeating the path between those indices forever is itself
a producible path, which the independent verifier then accepts.  The
script exits nonzero when a check it prints fails.
"""

import sys

from pumpkit import (
    Assembly,
    Path,
    TileSystem,
    TileType,
    analyze,
    pumping_term,
    validate_producible_path,
    verify_pumpable_cert,
)
from pumpkit.formats import emit_certificate

A = TileType("A", east="g", west="g")
system = TileSystem([A], Assembly({(0, 0): A}))
path = Path([((x, 0), A) for x in (1, 2, 3)])

report = validate_producible_path(system, path)
print(f"path of {len(path)} tiles valid: {report.ok}")

# The true distance bound is astronomic even here; an override of 2 keeps
# the run at desk scale while exercising the same machinery.
result = analyze(system, path, bound_override=2)
print(f"analysis: {result.kind}")
for step in result.trail:
    print(f"  trail: {step}")

spec = result.pumpable
print(f"pumping pair: i={spec.i} j={spec.j}, vector {spec.vector}")
verdict = verify_pumpable_cert(system, spec)
print(f"independent verifier: {verdict.ok}")

print("first twelve tiles of the infinite continuation:")
print("  " + " ".join(f"{pumping_term(spec, k)[0]}" for k in range(12)))

print("certificate file:")
print(emit_certificate(result), end="")

if not (report.ok and verdict.ok):
    sys.exit("a check failed: the path or the certificate was rejected")
