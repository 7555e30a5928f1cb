"""Brute-force ground truth at desk scale.

Everything here recomputes answers the long way: exhaustive breadth-first
path enumeration, conflict search by enumerating blocking paths, pumping
by trying every index pair against a depth-bounded simulation, plane
sides by flood fill, and route selection by enumerating the whole
candidate set and applying the definition literally.  The test suite
plays these against the fast implementations.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator, Optional

from . import tam, visibility
from .budgets import EnumBudget
from .errors import BadSystem, EmptyRouteSet, WindowTooSmall
from .geometry import Point, PolyCurve, Side, add, sub
from .shield import Workspace, _goal_test, _RouteGraph
from .tam import Assembly, FragilityCert, Path, PumpingSpec, TileSystem, TileType


class PathEnumeration:
    """Iterable over all producible paths up to a length cap.

    Paths come out once each, in breadth-first length order.  When the
    node budget runs out the stream simply stops and ``truncated`` is set,
    so callers can tell a complete enumeration from a capped one.
    """

    def __init__(self, sys: TileSystem, budget: Optional[EnumBudget] = None,
                 max_len: Optional[int] = None, max_paths: Optional[int] = None):
        self.sys = sys
        self.budget = budget or EnumBudget.from_env()
        self.max_len = max_len if max_len is not None else self.budget.max_path_len
        self.max_paths = max_paths if max_paths is not None else self.budget.max_nodes
        self.truncated = False

    def __iter__(self) -> Iterator[Path]:
        sys = self.sys
        seed = sys.seed.tiles
        starts = []
        for (sx, sy), st in sorted(seed.items()):
            for step in sorted(tam.STEP.values()):
                pos = (sx + step[0], sy + step[1])
                if pos in seed:
                    continue
                for t in sys.tiles:
                    if st.interacts(t, step):
                        starts.append((pos, t))
        # A position may be reachable from several seed tiles; each start
        # tile is still one length-1 path, so deduplicate.
        frontier = deque()
        emitted = 0
        for entry in sorted(set(starts)):
            frontier.append((entry,))
        while frontier:
            entries = frontier.popleft()
            emitted += 1
            if emitted > self.max_paths:
                self.truncated = True
                return
            yield Path(entries)
            if len(entries) >= self.max_len:
                continue
            (lx, ly), last = entries[-1]
            occupied = {pos for pos, _ in entries}
            for step in sorted(tam.STEP.values()):
                pos = (lx + step[0], ly + step[1])
                if pos in seed or pos in occupied:
                    continue
                for t in sys.tiles:
                    if last.interacts(t, step):
                        frontier.append(entries + ((pos, t),))


def enumerate_paths(sys: TileSystem,
                    budget: Optional[EnumBudget] = None) -> PathEnumeration:
    return PathEnumeration(sys, budget)


def brute_fragile(sys: TileSystem, p: Path,
                  budget: Optional[EnumBudget] = None) -> Optional[FragilityCert]:
    """Search for any producible assembly that conflicts with the path.

    Every conflicting assembly contains a producible path ending at the
    conflicting tile, so enumerating paths up to the assembly-size budget
    is a complete search at that size.  Returns a replayable certificate
    or ``None`` within budget.  A path that is not producible raises
    :class:`BadSystem`: no assembly can block what never grows.
    """
    rep = tam.validate_producible_path(sys, p)
    if not rep:
        raise BadSystem(f"path is not producible: {rep.code}@{rep.index}")
    budget = budget or EnumBudget.from_env()
    want = dict(zip(p.positions, p.types))
    max_len = max(1, budget.max_assembly_size - len(sys.seed))
    enum = PathEnumeration(sys, budget, max_len=max_len)
    for q in enum:
        pos, t = q.positions[-1], q.types[-1]
        target = want.get(pos)
        if target is not None and target != t:
            return FragilityCert(q.entries, pos)
    return None


def confirm_pumpable(sys: TileSystem, p: Path, i: int, j: int,
                     budget: Optional[EnumBudget] = None) -> bool:
    """Check one index pair by disjointness scan plus explicit simulation.

    Accepts when the period avoids its own translate (set intersection,
    which settles all pairs of periods) and the explicitly simulated
    continuation to ``max_pump_depth`` periods is producible: its first
    tile binds the seed, and it stays self-avoiding, seed-free and
    glue-connected.
    """
    budget = budget or EnumBudget.from_env()
    spec = PumpingSpec(p, i, j)
    v = spec.vector
    period = {p.pos(s) for s in range(i + 1, j + 1)}
    if period & {add(q, v) for q in period}:
        return False
    return _simulate_pumping(sys, spec, budget.max_pump_depth)


def brute_pumpable(sys: TileSystem, p: Path,
                   budget: Optional[EnumBudget] = None) -> Optional[PumpingSpec]:
    """First index pair (lexicographic) that :func:`confirm_pumpable` accepts."""
    budget = budget or EnumBudget.from_env()
    for i in range(len(p) - 1):
        for j in range(i + 1, len(p)):
            if confirm_pumpable(sys, p, i, j, budget):
                return PumpingSpec(p, i, j)
    return None


def _simulate_pumping(sys: TileSystem, spec: PumpingSpec, depth: int) -> bool:
    p, i, j = spec.path, spec.i, spec.j
    if not tam.seed_contacts(sys, (p.positions[0], p.types[0])):
        return False  # a path that floats free of the seed grows from nothing
    seen = {}
    limit = i + 1 + (j - i) * depth
    prev = None
    for k in range(0, limit):
        pos, t = tam.pumping_term(spec, k)
        if pos in sys.seed:
            return False
        if pos in seen:
            return False
        seen[pos] = t
        if prev is not None:
            step = sub(pos, prev[0])
            if step not in tam.SIDE_OF_STEP or not prev[1].interacts(t, step):
                return False
        prev = (pos, t)
    return True


# -- flood-fill side classification ---------------------------------------------


class FloodFill:
    """Window-wide flood fill of the two sides of an almost-vertical curve.

    The window is padded with a two-cell ring so pockets that reconnect
    outside the window do so around the finite geometry; outside the
    window the only obstacles are the curve's two vertical rays, which
    wall the ring at their columns exactly as they wall the plane.
    """

    def __init__(self, curve: PolyCurve, window: tuple[int, int, int, int]):
        if not (curve.is_almost_vertical and curve.is_simple()):
            raise ValueError("flood fill needs a simple almost-vertical curve")
        x0, y0, x1, y1 = window
        cx0, cy0, cx1, cy1 = curve.bbox()
        if cx0 < x0 or cy0 < y0 or cx1 > x1 or cy1 > y1:
            raise WindowTooSmall("window does not contain the curve's finite part")
        self.window = window
        ex0, ey0, ex1, ey1 = x0 - 2, y0 - 2, x1 + 2, y1 + 2
        walls = set(curve.lattice_points())
        sx, sy = curve.points[0]
        for y in range(ey0, sy):
            walls.add((sx, y))
        nx, ny = curve.points[-1]
        for y in range(ny + 1, ey1 + 1):
            walls.add((nx, y))
        self.walls = walls
        self.left = self._fill((ex0, ey0), (ex0, ey0, ex1, ey1))
        self.right = self._fill((ex1, ey0), (ex0, ey0, ex1, ey1))
        if self.left & self.right:
            raise RuntimeError("flood fill leaked through the curve")

    def _fill(self, anchor: Point, box) -> set[Point]:
        ex0, ey0, ex1, ey1 = box
        if anchor in self.walls:
            raise RuntimeError("flood-fill anchor sits on the curve")
        seen = {anchor}
        frontier = deque([anchor])
        while frontier:
            x, y = frontier.popleft()
            for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if (q in seen or q in self.walls
                        or not (ex0 <= q[0] <= ex1 and ey0 <= q[1] <= ey1)):
                    continue
                seen.add(q)
                frontier.append(q)
        return seen

    def side(self, p: Point) -> Side:
        x0, y0, x1, y1 = self.window
        if not (x0 <= p[0] <= x1 and y0 <= p[1] <= y1):
            raise WindowTooSmall(f"query point {p} outside the window")
        if p in self.walls:
            return Side.ON
        if p in self.left:
            return Side.LEFT
        if p in self.right:
            return Side.RIGHT
        raise RuntimeError(f"point {p} escaped both components")


# -- exhaustive route selection ---------------------------------------------------


def brute_right_priority(ws: Workspace,
                         budget: Optional[EnumBudget] = None) -> tuple[Point, ...]:
    """The selected route, by enumerating the whole candidate set.

    Enumerates every admissible simple route from the entry pair to a
    vertex beside the exit ray, filters by the literal endpoint-height
    rule (all strict prefixes within the candidate set must end strictly
    lower, and no strict extension within it may end strictly higher),
    and takes the pairwise right-priority maximum.  Exponential by
    nature; guarded by the vertex budget.

    An extension ending at equal height does not reject: the two goals at
    one height sit on either side of the exit ray and link to the same
    point of it, so the extension reaches no higher point of the ray.
    """
    budget = budget or EnumBudget.from_env()
    graph = _RouteGraph(ws)
    if len(graph.vertices) > budget.max_graph_vertices:
        raise WindowTooSmall(
            f"route graph has {len(graph.vertices)} vertices; "
            f"budget allows {budget.max_graph_vertices}")
    start0, start1 = ws.pos2[ws.shield.i], ws.pos2[ws.shield.i + 1]
    is_goal = _goal_test(ws)
    candidates: list[tuple[Point, ...]] = []

    def expand(prefix: list[Point], onpath: set[Point]):
        cur = prefix[-1]
        if is_goal(cur) and len(prefix) >= 2:
            candidates.append(tuple(prefix))
        for w in graph.adj.get(cur, ()):
            if w in onpath:
                continue
            prefix.append(w)
            onpath.add(w)
            expand(prefix, onpath)
            onpath.discard(w)
            prefix.pop()

    expand([start0, start1], {start0, start1})
    chosen = []
    for q in candidates:
        ok = True
        for other in candidates:
            if other is q or len(other) == len(q):
                continue
            shorter, longer = (other, q) if len(other) < len(q) else (q, other)
            if longer[: len(shorter)] == shorter:
                oy, qy = other[-1][1], q[-1][1]
                if oy > qy or (other is shorter and oy == qy):
                    ok = False
                    break
        if ok:
            chosen.append(q)
    if not chosen:
        raise EmptyRouteSet("no candidate survives the endpoint-height rule")
    best = visibility.right_priority([tuple(c) for c in chosen])
    return tuple(best[1:])


# -- seeded corpus generator -------------------------------------------------------


def random_system(rng: random.Random, max_tiles: int = 3, max_seed: int = 2,
                  alphabet: str = "abcd", null_bias: float = 0.45) -> TileSystem:
    """One seeded-random system for the differential corpus.

    Tile count, glue labels, and seed layout all come from ``rng``; the
    parameters are part of every test artifact so runs are reproducible.
    """
    n = rng.randint(1, max_tiles)
    tiles = []
    for idx in range(n):
        sides = [None if rng.random() < null_bias else rng.choice(alphabet)
                 for _ in range(4)]
        tiles.append(TileType(chr(ord("A") + idx), *sides))
    target = rng.randint(1, max_seed)
    seed_positions = [(0, 0)]
    while len(seed_positions) < target:
        x, y = rng.choice(seed_positions)
        step = rng.choice(sorted(tam.STEP.values()))
        q = (x + step[0], y + step[1])
        if q not in seed_positions:
            seed_positions.append(q)
    seed = Assembly({pos: rng.choice(tiles) for pos in seed_positions})
    return TileSystem(tiles, seed)
