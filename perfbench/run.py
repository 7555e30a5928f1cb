"""Speed-normalised benchmark of pumpkit's decision, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload walk-analyze --seed 1 --seconds 10 --trace 0

One process, one thread.  The run generates its inputs from ``--seed``
(see ``gen.py``), times the import of ``pumpkit`` plus the parsing of those
inputs (``setup_s``), then runs whole rounds of the workload's operations
until ``--seconds`` have passed, and checks every output with the
independent checkers of ``check.py``.  ``--trace 1`` adds one traced round
that times the calls into each layer's public functions from outside and
reports per-layer metrics instead of end-to-end ones.

Every time is speed-normalised: a fixed pure-Python reference kernel is
timed between blocks of operations, and each block's times are scaled by
``KERNEL_NOMINAL_S`` divided by the kernel's measured time.  A normalised
millisecond is thus a millisecond on a machine that runs the kernel in its
nominal time.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record is
written to ``BENCH_<workload>.json`` and, when tracing, the spans to
``BENCH_<workload>.trace.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter, deque

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402

KERNEL_NOMINAL_S = 0.0015  # the kernel's time on the reference run (see README)
BLOCK_S = 0.05  # operations run between two kernel timings
SETUP_REPEATS = 5


def reference_kernel() -> int:
    """Fixed work that imports nothing from pumpkit: a breadth-first search
    through a walled 40x40 grid, twice, keyed by tuples as pumpkit is."""
    n = 0
    for _ in range(2):
        walls = {(x, y) for x in range(3, 40, 4) for y in range(0, 36)}
        walls |= {(x, y) for x in range(5, 40, 4) for y in range(4, 40)}
        seen = {(0, 0): None}
        todo = deque([(0, 0)])
        while todo:
            x, y = todo.popleft()
            for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if q not in seen and q not in walls and 0 <= q[0] < 40 and 0 <= q[1] < 40:
                    seen[q] = (x, y)
                    todo.append(q)
        q = (39, 39)
        while q is not None:
            q = seen[q]
            n += 1
    return n


def kernel_seconds() -> float:
    """Median of three timed kernel passes, with the garbage collector off so
    that a collection of the benchmark's own objects is not counted."""
    gc.disable()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    gc.enable()
    return sorted(times)[1]


# -- workloads ---------------------------------------------------------------------


def _tile(t):
    return (t.name, t.north, t.east, t.south, t.west)


def _decision(kind, branch, cert):
    """Summary of a pumping spec or a fragility certificate."""
    if kind == "pumpable":
        return ("pumpable", branch, cert.i, cert.j)
    return ("fragile", branch, tuple((pos, _tile(t)) for pos, t in cert.attachments),
            cert.conflict)


def _check_decision(inst, d):
    """Check a ``_decision`` summary against the instance it was made for."""
    if d[0] == "pumpable":
        return check.check_pumping(inst["seed"], inst["path"], d[2], d[3])
    return check.check_fragile(inst["tiles"], inst["seed"], inst["path"], d[2], d[3])


class Workload:
    """Inputs, the timed operation and the checks for one named workload."""

    name = ""

    def __init__(self, inputs):
        self.inputs = inputs

    def parse(self, pk):
        """Parse every input text with the freshly imported package ``pk``."""
        return [pk.formats.parse_system(inst["text"]) for inst in self.inputs]

    def bind(self, pk, parsed):
        self.pk = pk
        self.parsed = parsed

    def run(self, n):
        raise NotImplementedError

    def summary(self, out):
        """A plain, comparable form of one operation's output."""
        raise NotImplementedError

    def check(self, n, summary):
        """``None`` when the output of operation ``n`` is right, else a reason."""
        raise NotImplementedError

    def tally(self, summaries):
        """Outcome and branch histograms of one round's outputs."""
        raise NotImplementedError


class WalkAnalyze(Workload):
    name = "walk-analyze"

    def run(self, n):
        sys_, path = self.parsed[n]
        return self.pk.driver.analyze(sys_, path, self.inputs[n]["override"])

    def summary(self, out):
        branch = next((t[7:] for t in out.trail if t.startswith("engine:")), None)
        if out.kind == "no_shield":
            return ("no_shield", branch)
        return _decision(out.kind, branch, out.pumpable or out.fragile)

    def check(self, n, s):
        return None if s[0] == "no_shield" else _check_decision(self.inputs[n], s)

    def tally(self, summaries):
        return (Counter(s[0] for s in summaries),
                Counter(s[1] for s in summaries if s[1] is not None))


class CorpusDecide(Workload):
    name = "corpus-decide"

    def bind(self, pk, parsed):
        super().bind(pk, parsed)
        self.budget = pk.budgets.EnumBudget()

    def run(self, n):
        sys_, path = self.parsed[n]
        shield = self.pk.shield
        found = shield.enumerate_shields(sys_, path)
        if not found:
            return found, []
        chosen = [found[0]]
        deeper = next((sh for sh in found if sh.j < sh.k), None)
        if deeper is not None and deeper != found[0]:
            chosen.append(deeper)
        return found, [shield.pump_or_block(sys_, path, sh, self.budget) for sh in chosen]

    def summary(self, out):
        found, outcomes = out
        return (tuple((sh.i, sh.j, sh.k) for sh in found),
                tuple(_decision(o.kind, o.branch, o.pumpable or o.fragile) for o in outcomes))

    def check(self, n, s):
        inst = self.inputs[n]
        found, decided = s
        if list(found) != inst["shields"]:
            return f"shields {list(found)} but the definition gives {inst['shields']}"
        return next((why for why in (_check_decision(inst, d) for d in decided) if why), None)

    def tally(self, summaries):
        outcomes, branches = Counter(), Counter()
        for found, decided in summaries:
            if not found:
                outcomes["no_shield"] += 1
            for d in decided:
                outcomes[d[0]] += 1
                branches[d[1]] += 1
        return outcomes, branches


class PlaneSides(Workload):
    name = "plane-sides"

    def parse(self, pk):
        """Curve text is the benchmark's own: ``x,y ...`` then ``window x0 y0 x1 y1``."""
        out = []
        for inst in self.inputs:
            head, _, tail = inst["text"].partition(" window ")
            pts = tuple(tuple(int(c) for c in w.split(",")) for w in head.split())
            out.append((pts, tuple(int(c) for c in tail.split())))
        return out

    def run(self, n):
        points, (x0, y0, x1, y1) = self.parsed[n]
        geometry = self.pk.geometry
        curve = geometry.PolyCurve(points, south_ray=True, north_ray=True)
        classify = geometry.classify_side
        return [classify(curve, (x, y)) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)]

    def summary(self, out):
        return tuple(side.value for side in out)

    def check(self, n, s):
        inst = self.inputs[n]
        want = check.flood_sides(inst["points"], inst["window"])
        if s != want:
            bad = next(q for q, (a, b) in enumerate(zip(s, want)) if a != b)
            return f"window point {bad}: classify_side says {s[bad]}, flood fill {want[bad]}"
        return None

    def tally(self, summaries):
        return Counter(side for s in summaries for side in s), Counter()


WORKLOADS = {w.name: w for w in (WalkAnalyze, CorpusDecide, PlaneSides)}


# -- the package under test ----------------------------------------------------------


class Package:
    """Modules of one fresh import of pumpkit."""

    MODULES = ("budgets", "driver", "formats", "geometry", "shield", "tam", "visibility")

    def __init__(self):
        for name in [m for m in sys.modules if m == "pumpkit" or m.startswith("pumpkit.")]:
            del sys.modules[name]
        root = importlib.import_module("pumpkit")
        if not os.path.abspath(root.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"pumpkit imported from {root.__file__}, not from {SRC}")
        for name in self.MODULES:
            setattr(self, name, importlib.import_module("pumpkit." + name))


def timed_setup(workload):
    """Import pumpkit and parse the inputs ``SETUP_REPEATS`` times; the median
    normalised time, and the package and parsed inputs of the last repeat."""
    sys.path.insert(0, SRC)
    # The generated inputs live for the whole run; freezing them keeps the
    # garbage collector from rescanning them while setup and rounds are timed.
    gc.collect()
    gc.freeze()
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        k0 = kernel_seconds()
        t0 = time.perf_counter()
        pk = Package()
        parsed = workload.parse(pk)
        dt = time.perf_counter() - t0
        k1 = kernel_seconds()
        raw.append(dt)
        times.append(dt * KERNEL_NOMINAL_S * 2 / (k0 + k1))
    return statistics.median(times), statistics.median(raw), pk, parsed


# -- measurement -----------------------------------------------------------------------


class Round:
    """One pass over every input, timed in blocks between kernel timings.

    Without ``expected`` the round keeps each operation's output summary
    (or ``("failed", error)``); with it, the round only counts the
    operations whose output differs from ``expected``.
    """

    def __init__(self, workload, expected=None, on_block=None, on_op=None):
        self.times = []  # normalised seconds of each operation
        self.ok = []  # whether each operation succeeded
        self.busy = 0.0  # normalised seconds of all operations
        self.raw_busy = 0.0
        self.kernels = []
        self.outputs = []
        self.attempted = self.failed = self.differ = 0
        n_ops = len(workload.inputs)
        k_prev = kernel_seconds()
        n = 0
        while n < n_ops:
            block = []  # (raw seconds, output or exception)
            spent = 0.0
            while n < n_ops and spent < BLOCK_S:
                if on_op is not None:
                    on_op(n)
                t0 = time.perf_counter()
                try:
                    out = workload.run(n)
                except Exception as e:  # counted as a failed operation
                    out = e
                dt = time.perf_counter() - t0
                block.append((dt, out))
                spent += dt
                n += 1
            k_next = kernel_seconds()
            self.kernels.append(k_next)
            scale = KERNEL_NOMINAL_S * 2 / (k_prev + k_next)
            if on_block is not None:
                on_block(scale)
            for dt, out in block:
                self.busy += dt * scale
                self.raw_busy += dt
                self.times.append(dt * scale)
                self.ok.append(not isinstance(out, Exception))
                if isinstance(out, Exception):
                    self.failed += 1
                    out = ("failed", f"{type(out).__name__}: {out}")
                else:
                    out = workload.summary(out)
                if expected is None:
                    self.outputs.append(out)
                elif out != expected[self.attempted]:
                    self.differ += 1
                self.attempted += 1
            k_prev = k_next


END_TO_END = (("throughput_ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p99_ms", "ms"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- tracing --------------------------------------------------------------------------

# Public functions timed in the traced round, as ``module.attribute`` of the
# package; classes are timed through their constructor, methods as written.
TRACED = (
    "formats.parse_system",
    "tam.validate_producible_path", "tam.verify_pumpable_cert", "tam.verify_fragile_cert",
    "driver.analyze", "driver.canonicalize", "driver.transform",
    "visibility.GlueView", "visibility.spans",
    "shield.enumerate_shields", "shield.check_shield", "shield.pump_or_block",
    "shield.build_workspace", "shield.dominant", "shield.build_r", "shield.build_R",
    "geometry.classify_side", "geometry.SideCache.side", "geometry.PolyCurve",
)

PER_LAYER = tuple(f"{name}.{what}" for name in TRACED for what in ("calls", "self_ms")) + (
    "shield.shields_per_check", "geometry.SideCache.hit_ratio", "trace.overhead_ratio")


class Tracer:
    """Wraps the traced functions wherever the package looks them up.

    A plain function is replaced in every pumpkit module that holds it;
    a class gets a wrapped ``__init__``, a method is wrapped on its class.
    Each call becomes a span ``(id, name, start_ns, end_ns, parent id,
    operation)`` kept in memory; a span's self time is its duration minus
    the durations of its direct child spans.
    """

    def __init__(self, pk):
        self.pk = pk
        self.spans = []
        self.stack = []  # [span id, name, child ns] of the open spans
        self.op = -1
        self.calls = Counter()
        self.self_ns = Counter()  # raw, for the current block
        self.self_s = Counter()  # normalised, for finished blocks
        self.shields_found = 0
        self.checks_in_search = 0
        self.side_misses = 0
        self.undo = []

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            sid = len(tracer.spans)
            tracer.spans.append(None)
            frame = [sid, name, 0]
            tracer.stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                tracer.stack.pop()
                dur = t1 - t0
                tracer.self_ns[name] += dur - frame[2]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[2] += dur
                tracer.spans[sid] = (sid, name, t0, t1,
                                     None if parent is None else parent[0], tracer.op)
                tracer._note(name, parent)
            if name == "shield.enumerate_shields":
                tracer.shields_found += len(result)
            return result

        return traced

    def _note(self, name, parent):
        if parent is None:
            return
        if name == "shield.check_shield" and parent[1] == "shield.enumerate_shields":
            self.checks_in_search += 1
        elif name == "geometry.classify_side" and parent[1] == "geometry.SideCache.side":
            self.side_misses += 1

    def install(self):
        mods = [m for n, m in sys.modules.items() if n == "pumpkit" or n.startswith("pumpkit.")]
        for name in TRACED:
            modname, *attrs = name.split(".")
            obj = getattr(self.pk, modname)
            for a in attrs[:-1]:
                obj = getattr(obj, a)
            orig = getattr(obj, attrs[-1])
            if isinstance(orig, type):
                cls, init = orig, orig.__init__
                self.undo.append((cls, "__init__", init))
                cls.__init__ = self._wrap(name, init)
            elif len(attrs) > 1:
                self.undo.append((obj, attrs[-1], orig))
                setattr(obj, attrs[-1], self._wrap(name, orig))
            else:
                wrapped = self._wrap(name, orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self.undo.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def uninstall(self):
        for obj, attr, orig in reversed(self.undo):
            setattr(obj, attr, orig)
        self.undo.clear()

    def on_block(self, scale):
        for name, ns in self.self_ns.items():
            self.self_s[name] += ns * 1e-9 * scale
        self.self_ns.clear()

    def on_op(self, n):
        self.op = n

    def metrics(self, overhead):
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_ms"] = (self.self_s[name] * 1e3, "ms")
        checks = self.checks_in_search
        sides = self.calls["geometry.SideCache.side"]
        out["shield.shields_per_check"] = (self.shields_found / checks if checks else 0.0, "ratio")
        out["geometry.SideCache.hit_ratio"] = (1 - self.side_misses / sides if sides else 0.0,
                                               "ratio")
        out["trace.overhead_ratio"] = (overhead, "ratio")
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# -- the run --------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "pumpkit")):
        raise SystemExit(f"no pumpkit sources under {SRC}")

    inputs = gen.GENERATORS[args.workload](args.seed)
    workload = WORKLOADS[args.workload](inputs)
    print(f"inputs {args.workload} seed {args.seed} operations-per-round {len(inputs)} "
          f"fingerprint {gen.fingerprint(inputs)}")
    print(f"make-up {json.dumps(gen.make_up(args.workload, inputs))}")

    setup_s, setup_raw_s, pk, parsed = timed_setup(workload)
    workload.bind(pk, parsed)

    gc.collect()
    gc.freeze()  # as in ``timed_setup``, now with the parsed inputs
    start = time.perf_counter()
    rounds = [Round(workload)]
    first = rounds[0].outputs
    while time.perf_counter() - start < args.seconds:
        rounds.append(Round(workload, first))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [f"{r.differ} outputs of round {n} differ from round 1"
                for n, r in enumerate(rounds[1:], start=2) if r.differ]
    for inst in inputs:
        why = "path" in inst and check.check_producible(inst["seed"], inst["path"])
        if why:
            problems.append(f"input {inst.get('key', '')} is not producible: {why}")
    for n, out in enumerate(first):
        why = out[0] != "failed" and workload.check(n, out)
        if why:
            problems.append(f"operation {n}: {why}")
    failures = Counter(":".join(out[1].split(":")[:2]) for out in first if out[0] == "failed")
    outcomes, branches = workload.tally([o for o in first if o[0] != "failed"])

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    # An operation's time is the median of its times over the rounds, which
    # keeps a burst of load on the machine from setting a percentile or the
    # throughput.  Latencies are those of the operations that succeed.
    times = [statistics.median(ts) for ts in zip(*(r.times for r in rounds))]
    latencies = [t for t, ok in zip(times, rounds[0].ok) if ok]
    raw_busy = sum(r.raw_busy for r in rounds)
    kernels = [k for r in rounds for k in r.kernels]
    values = (len(latencies) / sum(times), quantile(latencies, 50) * 1e3,
              quantile(latencies, 99) * 1e3, setup_s, peak_rss_mib)
    metrics = {name: (v, unit) for (name, unit), v in zip(END_TO_END, values)}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "fingerprint": gen.fingerprint(inputs), "rounds": len(rounds),
        "operations_per_round": len(inputs), "outcomes": dict(outcomes),
        "branches": dict(branches), "failures": dict(failures),
        "kernel_nominal_ms": KERNEL_NOMINAL_S * 1e3,
        "kernel_median_ms": statistics.median(kernels) * 1e3,
        "raw": {"throughput_ops_per_s": (attempted - failed) / raw_busy,
                "setup_s": setup_raw_s},
    }
    print(f"outcomes {json.dumps(dict(outcomes))}")
    print(f"branches {json.dumps(dict(branches))}")
    print(f"failures {json.dumps(dict(failures))}")
    print(f"kernel nominal {KERNEL_NOMINAL_S * 1e3:.3f} ms, measured median "
          f"{record['kernel_median_ms']:.3f} ms over {len(kernels)} timings")
    print(f"raw throughput {record['raw']['throughput_ops_per_s']:.1f}/s, raw setup "
          f"{setup_raw_s:.4f} s; normalised throughput "
          f"{metrics['throughput_ops_per_s'][0]:.1f}/s, setup {setup_s:.4f} s")
    for p in problems[:20]:
        print(f"problem: {p[:300]}")

    if args.trace:
        tracer = Tracer(pk)
        tracer.install()
        try:
            k0 = kernel_seconds()
            workload.parse(pk)  # a traced set-up pass, for formats.parse_system
            tracer.on_block(KERNEL_NOMINAL_S * 2 / (k0 + kernel_seconds()))
            traced = Round(workload, first, tracer.on_block, tracer.on_op)
        finally:
            tracer.uninstall()
        overhead = traced.busy / statistics.mean(r.busy for r in rounds) - 1
        if traced.differ:
            problems.append(f"{traced.differ} outputs of the traced round differ from round 1")
        attempted += traced.attempted
        failed += traced.failed
        metrics = tracer.metrics(overhead)
        tracer.dump(f"BENCH_{args.workload}.trace.json")
        print(f"trace overhead {overhead * 100:.1f}% over the mean untraced round; "
              f"{len(tracer.spans)} spans")
        print("calls " + json.dumps({k: v[0] for k, v in metrics.items() if k.endswith(".calls")}))

    record["problems"] = problems[:20]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": record["metrics"]}
    with open(f"BENCH_{args.workload}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
