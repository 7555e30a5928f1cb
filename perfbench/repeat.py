"""Show that every ``.calls`` count of the traced run repeats exactly.

    python3 perfbench/repeat.py --seed 1 [--seconds 1]

For each workload it makes two traced runs of ``run.py`` with the same
seed, one with ``PYTHONHASHSEED=0`` and one with ``PYTHONHASHSEED=1``, and
compares every ``.calls`` metric.  Exits 1 if any count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("walk-analyze", "corpus-decide", "plane-sides")


def traced_calls(workload, seed, seconds, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                         env=env, capture_output=True, text=True, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args(argv)
    same = True
    for w in WORKLOADS:
        a, b = (traced_calls(w, args.seed, args.seconds, h) for h in (0, 1))
        diff = {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
        same = same and not diff and a.keys() == b.keys()
        print(f"{w}: {len(a)} call counts, {'identical' if not diff else diff}")
        print(f"  {json.dumps(a)}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
