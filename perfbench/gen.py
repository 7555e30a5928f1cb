"""Seeded input generators for the benchmark, independent of ``pumpkit``.

Every generator takes the workload seed and returns plain data plus the
text that ``pumpkit.formats.parse_system`` reads (the format documented in
the repository README: ``tile``, ``seed`` and ``path`` lines).  Nothing
here imports ``pumpkit``, so a change to ``oracle.py`` or
``formats.print_system`` cannot change the inputs.  Random draws come
from ``random.Random`` generators seeded with strings (one per walk
instance, one per seed for the other workloads), which do not depend on
``PYTHONHASHSEED``.

A tile is a tuple ``(name, north, east, south, west)`` with ``None`` for
an absent glue; positions are tile coordinates.

Run ``python3 perfbench/gen.py --workload NAME --seed N`` to print the
generated inputs' fingerprint and make-up; add ``--dump DIR`` to write the
input texts themselves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
from collections import Counter, deque

NORTH, EAST, SOUTH, WEST = 1, 2, 3, 4  # indices into a tile tuple
STEPS = ((0, 1, NORTH), (1, 0, EAST), (0, -1, SOUTH), (-1, 0, WEST))
OPPOSITE = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}
SIDE_OF_STEP = {(dx, dy): side for dx, dy, side in STEPS}


def binds(a, b, step) -> bool:
    """Whether tile ``b`` placed one ``step`` from tile ``a`` binds to it."""
    side = SIDE_OF_STEP.get(step)
    if side is None:
        return False
    glue = a[side]
    return glue is not None and glue == b[OPPOSITE[side]]


def system_text(tiles, seed, path=None) -> str:
    """The documented system-file text for tiles, seed cells and a path."""
    lines = []
    for name, n, e, s, w in tiles:
        lines.append(f"tile {name} north={n or '-'} east={e or '-'} "
                     f"south={s or '-'} west={w or '-'}")
    for (x, y), t in sorted(seed.items()):
        lines.append(f"seed {x} {y} {t[0]}")
    if path is not None:
        lines.append("path " + " ; ".join(f"{x} {y} {t[0]}" for (x, y), t in path))
    return "\n".join(lines) + "\n"


def _random_tiles(rng, n, alphabet, null_bias):
    return [(chr(ord("A") + idx),
             *(None if rng.random() < null_bias else rng.choice(alphabet)
               for _ in range(4)))
            for idx in range(n)]


def _random_seed(rng, tiles, max_seed):
    target = rng.randint(1, max_seed)
    cells = [(0, 0)]
    while len(cells) < target:
        x, y = rng.choice(cells)
        dx, dy, _ = rng.choice(STEPS)
        q = (x + dx, y + dy)
        if q not in cells:
            cells.append(q)
    return {pos: rng.choice(tiles) for pos in cells}


# -- walk-analyze: long random self-avoiding binding walks ----------------------

WALK_POOL = 20000  # instances ``walk:0`` .. ``walk:19999``; a seed picks from them
WALK_PATHS = 2000
WALK_FIXED = 20  # failing instances run in every round
WALK_MIN_LEN, WALK_MAX_LEN = 40, 150
WALK_MAX_TILES, WALK_MAX_SEED = 6, 2
WALK_ATTEMPTS = 30  # walks tried per system before drawing another system
POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "walk_pool.json")


def _grow_walk(rng, tiles, seed, length):
    """One random self-avoiding binding walk from the seed, or ``None``."""
    starts = []
    for (sx, sy), st in sorted(seed.items()):
        for dx, dy, _ in STEPS:
            q = (sx + dx, sy + dy)
            if q in seed:
                continue
            starts.extend((q, t) for t in tiles if binds(st, t, (dx, dy)))
    if not starts:
        return None
    path = [rng.choice(starts)]
    used = set(seed) | {path[0][0]}
    heading = None
    while len(path) < length:
        (x, y), t = path[-1]
        options = []
        for dx, dy, _ in STEPS:
            q = (x + dx, y + dy)
            if q in used:
                continue
            for u in tiles:
                if binds(t, u, (dx, dy)):
                    # Keeping the heading twice as often stretches the walk,
                    # so fewer walks trap themselves before full length.
                    options.extend([(q, u, (dx, dy))] * (2 if (dx, dy) == heading else 1))
        if not options:
            return None
        q, u, heading = rng.choice(options)
        path.append((q, u))
        used.add(q)
    return path


def walk_length(n: int) -> int:
    """Path length of pool instance ``n``; each length takes every 222nd pair."""
    return WALK_MIN_LEN + (n // 2) % (WALK_MAX_LEN - WALK_MIN_LEN + 1)


def walk_instance(n: int) -> dict:
    """Pool instance ``n``: even ones get a bound override that truncates."""
    key = f"walk:{n}"
    rng = random.Random(key)
    length = walk_length(n)
    while True:
        tiles = _random_tiles(rng, rng.randint(1, WALK_MAX_TILES), "abc", 0.3)
        seed = _random_seed(rng, tiles, WALK_MAX_SEED)
        for _ in range(WALK_ATTEMPTS):
            path = _grow_walk(rng, tiles, seed, length)
            if path is not None:
                break
        else:
            continue
        override = None
        if n % 2 == 0:
            # The square of half side ``override + |seed|`` around the start
            # is reached by the path, so ``canonicalize`` cuts it there.
            x0, y0 = path[0][0]
            reach = max(max(abs(x - x0), abs(y - y0)) for (x, y), _ in path)
            override = rng.randint(max(1, reach // 2 - len(seed)), reach - len(seed))
        return {"key": key, "tiles": tiles, "seed": seed, "path": path,
                "override": override,
                "text": system_text(tiles, seed, path)}


def walk_pool():
    """The pool labels in ``walk_pool.json`` (written by ``pool.py``)."""
    with open(POOL_FILE) as fh:
        return json.load(fh)


def walk_inputs(seed: int) -> list[dict]:
    """``WALK_PATHS`` pool instances picked by the seed, then the fixed ones.

    The pool was decided once with ``pool.py``.  A seed takes the same
    number of instances that reach the engine's deep branches ("heavy")
    every time, so the slowest percent of a round does not change with the
    seed, and never takes an instance on which ``analyze`` fails.  The
    fixed instances are failing ones, the same for every seed: they are
    the only operations expected to fail, so the failed share of a round
    does not change with the seed either.
    """
    pool = walk_pool()
    heavy = sorted((calls, n) for n, calls in pool["heavy"])
    bad = {n for ns in pool["failing"].values() for n in ns} | {n for _, n in heavy}
    light = sorted((n % 2, walk_length(n), n) for n in range(WALK_POOL) if n not in bad)
    rng = random.Random(f"walk:{seed}")
    picks = _stratified(rng, heavy, pool["heavy_per_round"])
    picks += _stratified(rng, light, WALK_PATHS - pool["heavy_per_round"])
    return [walk_instance(n) for n in sorted(p[-1] for p in picks) + pool["fixed"]]


def _stratified(rng, items, k):
    """``k`` items, one drawn from each of ``k`` equal runs of ``items``.

    Heavy instances are sorted by the calls ``analyze`` makes on them, a
    machine-independent measure of their cost; light ones by route
    (truncating or not) and length.  Every seed thus gets the same mix.
    """
    return [items[rng.randrange(s * len(items) // k, (s + 1) * len(items) // k)]
            for s in range(k)]


# -- corpus-decide: every short path of small random systems --------------------

CORPUS_MAX_TILES, CORPUS_MAX_SEED = 3, 2
CORPUS_MAX_LEN = 14
CORPUS_PATH_CAP = 3000  # systems with more paths than this are redrawn
CORPUS_PER_SYSTEM = 4  # paths taken from each system's complete enumeration
# Paths per round by the shields they have: none, only ``j == k`` ones
# (decided by the shortcut), or one with ``j < k`` (decided by the engine's
# deep branches).  Deep paths cost most, in step with their number of
# shields, so they are counted by that number in powers of two: ``deepB``
# holds the paths with ``2**(B-1)`` to ``2**B - 1`` shields (``deep2`` up
# to 3, ``deep9`` from 256).  The shares are those of the unstratified
# corpus; fixing the counts keeps the work of a round from changing with
# the seed.
CORPUS_QUOTAS = {"none": 3900, "shallow": 90, "deep2": 4, "deep3": 86, "deep4": 90,
                 "deep5": 89, "deep6": 149, "deep7": 140, "deep8": 131, "deep9": 121}


def shield_kind(found) -> str:
    """The quota a path with the shields ``found`` counts against."""
    if not found:
        return "none"
    if not any(j < k for _, j, k in found):
        return "shallow"
    return f"deep{max(2, min(9, len(found).bit_length()))}"


def enumerate_paths(tiles, seed, max_len, cap):
    """All producible paths up to ``max_len`` tiles, or ``None`` past ``cap``."""
    starts = set()
    for (sx, sy), st in seed.items():
        for dx, dy, _ in STEPS:
            q = (sx + dx, sy + dy)
            if q not in seed:
                starts.update((q, t) for t in tiles if binds(st, t, (dx, dy)))
    out = []
    frontier = deque((s,) for s in sorted(starts))
    while frontier:
        entries = frontier.popleft()
        out.append(entries)
        if len(out) > cap:
            return None
        if len(entries) >= max_len:
            continue
        (x, y), t = entries[-1]
        used = {pos for pos, _ in entries}
        for dx, dy, _ in STEPS:
            q = (x + dx, y + dy)
            if q in seed or q in used:
                continue
            frontier.extend(entries + ((q, u),) for u in tiles if binds(t, u, (dx, dy)))
    return out


def corpus_inputs(seed: int) -> list[dict]:
    """Paths of random systems, up to ``CORPUS_PER_SYSTEM`` from each, until
    every quota of ``CORPUS_QUOTAS`` is full.

    Only systems whose enumeration is complete are used; a system's paths
    are visited in a seeded random order.  Each input keeps its shields,
    found by the independent definition in ``check.py``.
    """
    import check  # check imports this module, so import it only when called

    rng = random.Random(f"corpus:{seed}")
    left = dict(CORPUS_QUOTAS)
    out = []
    system = 0
    while any(left.values()):
        # The recipe of the differential corpus: up to three tile types,
        # glues from four labels, each side absent with probability 0.45.
        tiles = _random_tiles(rng, rng.randint(1, CORPUS_MAX_TILES), "abcd", 0.45)
        cells = _random_seed(rng, tiles, CORPUS_MAX_SEED)
        paths = enumerate_paths(tiles, cells, CORPUS_MAX_LEN, CORPUS_PATH_CAP)
        if not paths:
            continue
        system += 1
        rng.shuffle(paths)
        taken = 0
        for path in paths:
            found = check.shields(cells, path)
            kind = shield_kind(found)
            if not left[kind]:
                continue
            left[kind] -= 1
            out.append({"system": system, "tiles": tiles, "seed": cells,
                        "path": list(path), "shields": found, "kind": kind,
                        "text": system_text(tiles, cells, path)})
            taken += 1
            if taken == CORPUS_PER_SYSTEM or not any(left.values()):
                break
    return out


# -- plane-sides: almost-vertical curves and query windows ----------------------

PLANE_CURVES = 1000
PLANE_MIN_CORNERS, PLANE_MAX_CORNERS = 8, 32
PLANE_WINDOW = 8  # queries cover a (2 * PLANE_WINDOW + 1)^2 window


def plane_instance(rng) -> dict:
    """A staircase-like curve on the doubled lattice and its query window.

    Horizontal runs sit at strictly increasing heights, so the curve is
    simple; rays leave its first vertex southward and its last northward.
    """
    pts = [(rng.randrange(-6, 7) * 2 + 1, -10)]
    y = -10
    for _ in range(rng.randint(PLANE_MIN_CORNERS, PLANE_MAX_CORNERS)):
        nx = pts[-1][0] + rng.choice([-2, -1, 1, 2]) * rng.randrange(1, 4)
        pts.append((nx, y))
        y += rng.randrange(1, 4)
        pts.append((nx, y))
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    cx = rng.randint(min(xs), max(xs))
    cy = rng.randint(min(ys), max(ys))
    window = (cx - PLANE_WINDOW, cy - PLANE_WINDOW, cx + PLANE_WINDOW, cy + PLANE_WINDOW)
    return {"points": pts, "window": window}


def plane_inputs(seed: int) -> list[dict]:
    """``PLANE_CURVES`` curves with windows, and their text for set-up."""
    rng = random.Random(f"plane:{seed}")
    out = [plane_instance(rng) for _ in range(PLANE_CURVES)]
    for inst in out:
        inst["text"] = " ".join(f"{x},{y}" for x, y in inst["points"]) + \
            " window " + " ".join(map(str, inst["window"])) + "\n"
    return out


GENERATORS = {"walk-analyze": walk_inputs, "corpus-decide": corpus_inputs,
              "plane-sides": plane_inputs}


def fingerprint(inputs) -> str:
    """SHA-256 over the input texts in order; equal inputs give equal prints."""
    h = hashlib.sha256()
    for inst in inputs:
        h.update(inst["text"].encode())
    return h.hexdigest()


def make_up(workload: str, inputs) -> dict:
    """Length histogram, tile-type counts and route shares of the inputs."""
    if workload == "plane-sides":
        corners = Counter((len(i["points"]) - 1) // 2 for i in inputs)
        return {"curves": len(inputs), "corners": dict(sorted(corners.items())),
                "queries_per_curve": (2 * PLANE_WINDOW + 1) ** 2}
    bin_ = 10 if workload == "walk-analyze" else 1
    lengths = Counter(bin_ * (len(i["path"]) // bin_) for i in inputs)
    types = Counter(len(i["tiles"]) for i in inputs)
    seeds = Counter(len(i["seed"]) for i in inputs)
    info = {"paths": len(inputs),
            f"lengths_by_{bin_}": dict(sorted(lengths.items())),
            "tile_types": dict(sorted(types.items())),
            "seed_tiles": dict(sorted(seeds.items()))}
    if workload == "walk-analyze":
        info["truncating"] = sum(i["override"] is not None for i in inputs)
        info["below_bound"] = sum(i["override"] is None for i in inputs)
        pool = walk_pool()
        info["heavy"] = pool["heavy_per_round"]
        info["fixed"] = len(pool["fixed"])
    else:
        info["systems"] = len({i["system"] for i in inputs})
        info["shields"] = dict(sorted(Counter(i["kind"] for i in inputs).items()))
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dump", help="directory to write one text file per input")
    args = ap.parse_args(argv)
    inputs = GENERATORS[args.workload](args.seed)
    print(f"fingerprint {fingerprint(inputs)}")
    print(f"make-up {make_up(args.workload, inputs)}")
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
        for n, inst in enumerate(inputs):
            with open(os.path.join(args.dump, f"{n:05d}.txt"), "w") as fh:
                if inst.get("override") is not None:
                    fh.write(f"# bound override {inst['override']}\n")
                fh.write(inst["text"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
