"""Where walk-analyze's slowest operations spend their time.

Builds the walk-analyze inputs of ``perfbench/gen.py`` for ``--seed`` and
runs ``driver.analyze`` on each of them ``--rounds`` times; an operation's
time is its median over the rounds.  Prints p50 and p99 per engine branch
(the trail's ``engine:`` tag, else the outcome kind), then the summed self
time of each engine stage over the slowest 2% of operations.  The stages
are the ``shield`` functions below; the progress loop is the time in the
functions its loop calls.  Stage times are the mean over ``--rounds``
more passes over those operations with the stage functions wrapped, so
the wrappers do not touch the latencies.  Times are raw wall time on the
machine at hand, not the benchmark's normalised ones.
Standard library only; nothing under ``perfbench`` is edited.

    python3 tools/tail_ops.py --seed 1 --rounds 3
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "perfbench")]

import gen  # noqa: E402
from pumpkit import driver, formats, shield  # noqa: E402

STAGES = {"build_workspace": ("build_workspace",), "dominant": ("dominant",),
          "_route_adjacency": ("_route_adjacency",), "build_r": ("build_r",),
          "_assert_route_claims": ("_assert_route_claims",), "build_R": ("build_R",),
          "progress loop": ("initial_uv", "_check_step", "_find_next_anchor", "_anchor_pair")}
TAIL = 0.02


def pct(values, q):
    """The ``q``-th percentile of ``values``, by ``perfbench/run.py``'s rule."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def wrap_stages(spent):
    """Wrap the stage functions in ``shield``; each call adds its self time to ``spent``."""
    open_ = []  # time of the child stages of each open stage call

    def wrap(stage, fn):
        def timed(*args, **kwargs):
            open_.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                spent[stage] += dt - open_.pop()
                if open_:
                    open_[-1] += dt
        return timed

    for stage, names in STAGES.items():
        for name in names:
            setattr(shield, name, wrap(stage, getattr(shield, name)))


def run_op(sys_, p, override):
    """``(seconds, branch)`` of one ``analyze`` call."""
    t0 = time.perf_counter()
    try:
        out = driver.analyze(sys_, p, override)
    except Exception as exc:  # reported as its own branch
        return time.perf_counter() - t0, f"failed:{type(exc).__name__}"
    dt = time.perf_counter() - t0
    return dt, next((t[7:] for t in out.trail if t.startswith("engine:")), out.kind)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    inputs = gen.walk_inputs(args.seed)
    ops = [(*formats.parse_system(inst["text"]), inst["override"]) for inst in inputs]
    runs = [[run_op(*op) for op in ops] for _ in range(args.rounds)]
    times = [statistics.median(t for t, _ in col) for col in zip(*runs)]
    branches = [b for _, b in runs[0]]
    by_branch = defaultdict(list)
    for t, b in zip(times, branches):
        by_branch[b].append(t)
    print(f"walk-analyze seed {args.seed}: {len(ops)} operations, {args.rounds} round(s)")
    print(f"{'branch':28} {'ops':>5} {'p50 ms':>8} {'p99 ms':>8}")
    for b, ts in sorted(by_branch.items(), key=lambda kv: -len(kv[1])):
        print(f"{b:28} {len(ts):5} {pct(ts, 50) * 1e3:8.3f} {pct(ts, 99) * 1e3:8.3f}")
    print(f"{'all':28} {len(times):5} {pct(times, 50) * 1e3:8.3f} {pct(times, 99) * 1e3:8.3f}")

    total, stages = 0.0, Counter()
    wrap_stages(stages)
    tail = sorted(range(len(ops)), key=times.__getitem__)[-max(1, round(TAIL * len(ops))):]
    for _ in range(args.rounds):
        total += sum(run_op(*ops[n])[0] for n in tail) / args.rounds
    for stage in stages:
        stages[stage] /= args.rounds
    print(f"slowest {TAIL:.0%}: {len(tail)} operations, {total * 1e3:.1f} ms per round with "
          f"stages wrapped ({Counter(branches[n] for n in tail).most_common()})")
    for stage in [*STAGES, None]:
        ms = (total - sum(stages.values()) if stage is None else stages[stage]) * 1e3
        print(f"  {stage or 'outside the stages':28} {ms:8.2f} ms {ms / (total * 1e3):7.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
