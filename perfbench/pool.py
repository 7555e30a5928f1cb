"""Label the walk-analyze pool: which instances fail, which are heavy.

Run once from the repository root, after any change to the walk
generator in ``gen.py``:

    python3 perfbench/pool.py

It runs ``pumpkit.driver.analyze`` on every pool instance and writes
``walk_pool.json`` beside this file with

- ``failing``: for each error ``analyze`` raised (type and claim), the
  instances it raised it on;
- ``heavy``: instances decided by the engine past its ``j == k``
  shortcut (any engine branch but ``repeat-at-exit``), the slowest ones,
  each with the number of Python function calls ``analyze`` makes on it,
  a measure of its work that does not depend on the machine;
- ``heavy_per_round``: the heavy share of the pool, in instances per
  round of ``gen.WALK_PATHS``;
- ``fixed``: the failing instances every round runs, the same for every
  seed: the first ``gen.WALK_FIXED`` on which ``analyze`` rejects its own
  certificate (``certificate-verifies``, the odd-rotation fault of
  ``CanonicalForm.restore_position``).  Every other failing instance is
  left out of the workload.

The labels are data from then on: the benchmark's inputs do not change
when ``pumpkit`` does.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
from pumpkit import driver, formats  # noqa: E402


def calls_made(fn, *args) -> int:
    """Python function calls made while running ``fn(*args)``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def main() -> int:
    failing, heavy = {}, []  # failing: error -> instances
    for n in range(gen.WALK_POOL):
        inst = gen.walk_instance(n)
        sys_, path = formats.parse_system(inst["text"])
        try:
            res = driver.analyze(sys_, path, inst["override"])
        except Exception as e:  # every failure is recorded, none stops the scan
            failing.setdefault(f"{type(e).__name__}: {str(e).split(':')[0]}", []).append(n)
            continue
        branch = next((t for t in res.trail if t.startswith("engine:")), None)
        if branch not in (None, "engine:repeat-at-exit"):
            heavy.append((n, calls_made(driver.analyze, sys_, path, inst["override"])))
    n_failing = sum(len(v) for v in failing.values())
    share = len(heavy) / (gen.WALK_POOL - n_failing)
    out = {"pool": gen.WALK_POOL, "heavy_per_round": round(share * gen.WALK_PATHS),
           "fixed": failing.get("ClaimViolation: certificate-verifies", [])[:gen.WALK_FIXED],
           "failing": failing, "heavy": heavy}
    with open(gen.POOL_FILE, "w") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{n_failing} failing, {len(heavy)} heavy of {gen.WALK_POOL}: "
          + json.dumps({k: len(v) for k, v in failing.items()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
