"""Brute-force ground truth at desk scale.

Everything here recomputes answers the long way: exhaustive breadth-first
path enumeration, conflict search by enumerating blocking paths, pumping
by trying every index pair against a depth-bounded simulation, plane
sides by flood fill, and route selection by enumerating the whole
candidate set and applying the definition literally.  The test suite
plays these against the fast implementations.

The route search's problem is built from the definitions
(:func:`route_problem`), and the module imports nothing from ``shield``
or ``driver``: the route oracle shares no code with the engine it checks.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator, Optional, Sequence

from . import tam, visibility
from .budgets import EnumBudget
from .errors import EmptyRouteSet, WindowTooSmall
from .geometry import Point, PolyCurve, Side, add, classify_side, sub
from .tam import Assembly, FragilityCert, Path, PumpingSpec, TileSystem, TileType


def _binders(sys: TileSystem) -> dict[TileType, list[tuple[Point, list[TileType]]]]:
    """For each type, each step in sorted order with the types that bind it there.

    The binding types keep the system's order.  Seed tiles are of declared
    types, so the table covers them too.
    """
    steps = sorted(tam.STEP.values())
    return {u: [(step, [t for t in sys.tiles if u.interacts(t, step)]) for step in steps]
            for u in sys.tiles}


class PathEnumeration:
    """Iterable over all producible paths up to a length cap.

    Paths come out once each, in breadth-first length order.  When the
    node budget runs out the stream simply stops and ``truncated`` is set,
    so callers can tell a complete enumeration from a capped one.
    """

    def __init__(self, sys: TileSystem, budget: EnumBudget = EnumBudget(),
                 max_len: Optional[int] = None, max_paths: Optional[int] = None):
        self.sys = sys
        self.max_len = max_len if max_len is not None else budget.max_path_len
        self.max_paths = max_paths if max_paths is not None else budget.max_nodes
        self.truncated = False

    def __iter__(self) -> Iterator[Path]:
        seed = self.sys.seed.tiles
        binders = _binders(self.sys)
        starts = []
        for (sx, sy), st in sorted(seed.items()):
            for (dx, dy), bound in binders[st]:
                pos = (sx + dx, sy + dy)
                if pos not in seed:
                    starts += [(pos, t) for t in bound]
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
            for (dx, dy), bound in binders[last]:
                pos = (lx + dx, ly + dy)
                if pos in seed or pos in occupied:
                    continue
                for t in bound:
                    frontier.append(entries + ((pos, t),))


def brute_fragile(sys: TileSystem, p: Path,
                  budget: EnumBudget = EnumBudget()) -> Optional[FragilityCert]:
    """Search for any producible assembly that conflicts with the path.

    Every conflicting assembly contains a producible path ending at the
    conflicting tile, so enumerating paths up to the assembly-size budget
    is a complete search at that size.  Returns a replayable certificate
    or ``None`` within budget.  A path that is not producible raises
    :class:`BadSystem`: no assembly can block what never grows.
    """
    tam.check_producible(sys, p)
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
                     budget: EnumBudget = EnumBudget()) -> bool:
    """Check one index pair by disjointness scan plus explicit simulation.

    Accepts when the period avoids its own translate (set intersection,
    which settles all pairs of periods) and the explicitly simulated
    continuation to ``max_pump_depth`` periods is producible: its first
    tile binds the seed, and it stays self-avoiding, seed-free and
    glue-connected.
    """
    spec = PumpingSpec(p, i, j)
    v = spec.vector
    period = {p.pos(s) for s in range(i + 1, j + 1)}
    if period & {add(q, v) for q in period}:
        return False
    return _simulate_pumping(sys, spec, budget.max_pump_depth)


def brute_pumpable(sys: TileSystem, p: Path,
                   budget: EnumBudget = EnumBudget()) -> Optional[PumpingSpec]:
    """First index pair (lexicographic) that :func:`confirm_pumpable` accepts."""
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


# -- the route problem and exhaustive route selection ---------------------------


def doubled(curve: PolyCurve) -> PolyCurve:
    """The curve with every coordinate doubled, for references that classify steps.

    A unit step ``a``-``b`` of ``curve``'s lattice has its midpoint at the
    lattice point ``a + b`` of the doubled curve, so its open interior is
    classified there.
    """
    return PolyCurve([(2 * x, 2 * y) for x, y in curve.points],
                     curve.south_ray, curve.north_ray)


def walk_sides_by_point(curve: PolyCurve, scaled: PolyCurve,
                        walk: Sequence[Point]) -> list[Side]:
    """Per-element sides of a walk: each point, then the open interior of each step.

    A point is classified on ``curve``, and a step ``a``-``b`` at ``a + b``
    on ``scaled``, which is ``doubled(curve)``.
    """
    out = []
    for n, q in enumerate(walk):
        if n:
            out.append(classify_side(scaled, add(walk[n - 1], q)))
        out.append(classify_side(curve, q))
    return out


def route_problem(sys: TileSystem, p: Path, sh: tuple[int, int, int]):
    """Shield ``(i, j, k)``'s route search, built from the definitions.

    Returns the cut, the start pair, the adjacency and the goal test, on
    the doubled lattice, where glue ``g``'s midpoint is ``pos_g + pos_(g+1)``.
    The cut runs up the entry ray to glue ``i``, along tiles ``i+1..k`` and
    out of glue ``k`` up the exit ray.  The route starts with tiles ``i``
    and ``i+1``.  The vertices are tiles ``i+1..k`` and tiles ``j+1..k``
    moved west by the pumping vector; consecutive tiles of one copy are
    joined when none of the edge's five points is LEFT: the two tiles and
    their glue on the cut, the two half steps at their midpoints on the
    doubled cut.  A goal is a vertex half a tile beside the exit ray, not
    below the ray's start, whose link to the ray stays in the closed right
    side.  Every side is one ``classify_side`` query.  A path that is not
    producible raises :class:`BadSystem`.
    """
    tam.check_producible(sys, p)
    i, j, k = sh
    pos = p.positions
    pos2 = [(2 * x, 2 * y) for x, y in pos[:k + 2]]
    entry, exit2 = add(pos[i], pos[i + 1]), add(pos[k], pos[k + 1])
    cut = PolyCurve([entry] + pos2[i + 1:k + 1] + [exit2], south_ray=True, north_ray=True)
    scaled = doubled(cut)
    dx, dy = sub(pos2[i], pos2[j])
    copies = (pos2[i + 1:k + 1], [(x + dx, y + dy) for x, y in pos2[j + 1:k + 1]])
    adj: dict[Point, list[Point]] = {u: [] for copy in copies for u in copy}
    for copy in copies:
        for u, w in zip(copy, copy[1:]):
            mid = ((u[0] + w[0]) // 2, (u[1] + w[1]) // 2)
            sides = walk_sides_by_point(cut, scaled, (u, mid, w))
            if Side.LEFT not in sides and w not in adj[u]:  # an edge both copies share
                adj[u].append(w)
                adj[w].append(u)
    for lst in adj.values():
        lst.sort()
    lkx, lky = exit2

    def is_goal(u: Point) -> bool:
        if abs(u[0] - lkx) != 1 or u[1] < lky:
            return False
        return (classify_side(cut, u) is not Side.ON
                or classify_side(scaled, (u[0] + lkx, 2 * u[1])) is not Side.LEFT)

    return cut, (pos2[i], pos2[i + 1]), adj, is_goal


def brute_right_priority(sys: TileSystem, p: Path, sh: tuple[int, int, int],
                         budget: EnumBudget = EnumBudget()) -> tuple[Point, ...]:
    """The selected route, by enumerating the whole candidate set.

    Enumerates every simple route of :func:`route_problem`'s graph from
    the start pair to a goal, filters by the literal endpoint-height
    rule (all strict prefixes within the candidate set must end strictly
    lower, and no strict extension within it may end strictly higher),
    and takes the pairwise right-priority maximum.  Exponential by
    nature; guarded by the vertex budget.

    An extension ending at equal height does not reject: the two goals at
    one height sit on either side of the exit ray and link to the same
    point of it, so the extension reaches no higher point of the ray.
    """
    _, (start0, start1), adj, is_goal = route_problem(sys, p, sh)
    if len(adj) > budget.max_graph_vertices:
        raise WindowTooSmall(
            f"route graph has {len(adj)} vertices; "
            f"budget allows {budget.max_graph_vertices}")
    candidates: list[tuple[Point, ...]] = []

    def expand(prefix: list[Point], onpath: set[Point]):
        cur = prefix[-1]
        if is_goal(cur) and len(prefix) >= 2:
            candidates.append(tuple(prefix))
        for w in adj.get(cur, ()):
            if w in onpath:
                continue
            prefix.append(w)
            onpath.add(w)
            expand(prefix, onpath)
            onpath.discard(w)
            prefix.pop()

    expand([start0, start1], {start0, start1})

    def rejects(o: tuple[Point, ...], q: tuple[Point, ...]) -> bool:
        """Whether ``o`` is a prefix of ``q`` ending no lower, or an extension ending higher."""
        if len(o) < len(q):
            return q[:len(o)] == o and o[-1][1] >= q[-1][1]
        return len(o) > len(q) and o[:len(q)] == q and o[-1][1] > q[-1][1]

    chosen = [q for q in candidates if not any(rejects(o, q) for o in candidates)]
    if not chosen:
        raise EmptyRouteSet("no candidate survives the endpoint-height rule")
    best = visibility.right_priority(chosen)
    return tuple(best[1:])


# -- seeded generators -------------------------------------------------------------


def random_system(rng: random.Random, max_tiles: int = 3, max_seed: int = 2,
                  alphabet: str = "abcd", null_bias: float = 0.45) -> TileSystem:
    """One seeded-random system: up to ``max_tiles`` types and ``max_seed`` seed tiles.

    Tile count, glue labels and seed layout all come from ``rng``.  Each
    glue is null with probability ``null_bias``, else a letter of
    ``alphabet``.  The seed is a connected set grown from ``(0, 0)``.
    Criterion 9's corpus enumerates its paths; :func:`random_walk` draws
    long ones.
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


def random_walk(rng: random.Random, sys: TileSystem, length: int) -> Path:
    """A seeded random producible path of at most ``length`` tiles.

    The walk starts at a seed tile drawn by ``rng``.  Each step draws
    uniformly among the free ``(position, type)`` moves whose type binds
    the current tile, so every tile binds its predecessor and the first
    binds the seed.  The walk stops at ``length`` tiles or where no move is
    left, so it may come out shorter, or empty.
    """
    seed = sys.seed.tiles
    binders = _binders(sys)
    taken = set(seed)
    here = rng.choice(sorted(seed))
    last = seed[here]
    positions, types = [], []
    while len(positions) < length:
        moves = []
        for (dx, dy), bound in binders[last]:
            q = (here[0] + dx, here[1] + dy)
            if bound and q not in taken:
                moves += [(q, t) for t in bound]
        if not moves:
            break
        here, last = rng.choice(moves)
        taken.add(here)
        positions.append(here)
        types.append(last)
    return Path._of(tuple(positions), tuple(types))
