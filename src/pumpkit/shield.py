"""The shield engine: from a shield triple to a pumping or blocking certificate.

A *shield* ``(i, j, k)`` on a producible path consists of two same-type
east-pointing glues visible from the south (at ``i`` and ``j``) and a
glue visible from the north (at ``k``) whose northward ray, translated
west by the vector from tile ``j`` to tile ``i``, meets the path segment
``i..k`` at most at the translated ray start.  Given a shield, the engine
builds the cut through both visibility rays, works inside its right-hand
component, routes a most-right-priority binding path between the two
translated copies of the segment, and then runs a progress loop whose
strictly increasing anchor index forces one of two exits: an index pair
witnessing an infinite periodic continuation (pumpable), or a replayable
assembly sequence that places a wrong tile on the path (fragile).

Every structural fact the construction relies on is re-checked at runtime
and raises :class:`ClaimViolation` when broken; on producible inputs none
of these can fire, so a violation marks a bug, not a property of the tile
system under study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import tam
from .budgets import EnumBudget
from .errors import BudgetExceeded, ClaimViolation, EmptyRouteSet, NotAShield
from .geometry import (
    INFINITE_OVERLAP,
    Point,
    PolyCurve,
    Region,
    Side,
    SideCache,
    VRay,
    add,
    clockwise_successors,
    curve_in_closed_right,
    curve_intersection,
    neg,
    scale,
    sub,
)
from .tam import FragilityCert, Path, PumpingSpec, TileSystem
from .visibility import GlueView


def _dbl(pos) -> Point:
    return (2 * pos[0], 2 * pos[1])


def _tile(pos2: Point):
    return (pos2[0] // 2, pos2[1] // 2)


@dataclass(frozen=True, order=True)
class Shield:
    i: int
    j: int
    k: int


@dataclass
class Workspace:
    """The cut through both visibility rays and its right-hand component."""

    shield: Shield
    cut: PolyCurve
    cache: SideCache
    region: Region
    exit_ray: VRay  # northward ray of glue k
    entry_ray: VRay  # southward ray of glue i
    vector: Point  # doubled displacement from tile i to tile j
    fam1: dict[Point, int]  # doubled position -> index, segment tiles i+1..k
    fam2: dict[Point, int]  # the same for tiles j+1..k moved west by ``vector``


@dataclass
class DominantInfo:
    """The anchor tile index on the lowest carrier ray, and the split it induces."""

    m0: int
    carrier_num: int  # start height of the carrier ray on the entry column,
    carrier_den: int  # as the exact fraction carrier_num / carrier_den
    ray: VRay  # south ray from the anchor tile
    split: PolyCurve
    upper: SideCache  # right side of the split (the part past the anchor)


@dataclass
class InductionStep:
    u: int
    m: int
    v: int
    shift: int
    f: PolyCurve
    g: PolyCurve
    h: Optional[PolyCurve] = None


@dataclass
class ShieldTrace:
    shield: Shield
    m0: Optional[int] = None
    carrier: Optional[tuple[int, int]] = None
    anchor_ray: Optional[VRay] = None
    split: Optional[PolyCurve] = None
    inner: Optional[PolyCurve] = None
    route: Optional[tuple[Point, ...]] = None
    tiled_route: Optional[Path] = None
    history: list[InductionStep] = field(default_factory=list)

    def dump(self) -> str:
        lines = [f"shield i={self.shield.i} j={self.shield.j} k={self.shield.k}"]
        if self.m0 is not None:
            lines.append(f"anchor m0={self.m0} carrier={self.carrier}")
        if self.route is not None:
            lines.append("route " + " ".join(f"{x},{y}" for x, y in self.route))
        for n, st in enumerate(self.history):
            lines.append(f"step {n}: u={st.u} m={st.m} v={st.v} shift={st.shift}")
        return "\n".join(lines)


@dataclass
class ShieldOutcome:
    kind: str  # "pumpable" | "fragile"
    shield: Shield
    branch: str
    pumpable: Optional[PumpingSpec] = None
    fragile: Optional[FragilityCert] = None
    blocked_segment: Optional[tuple[int, int]] = None
    trace: Optional[ShieldTrace] = None


# -- shield recognition -------------------------------------------------------


def check_shield(sys: TileSystem, p: Path, i: int, j: int, k: int,
                 view: Optional[GlueView] = None) -> None:
    """Raise :class:`NotAShield` unless ``(i, j, k)`` is a shield for ``p``."""
    if not (0 <= i < j <= k < len(p) - 1):
        raise NotAShield(f"need 0 <= i < j <= k < |p|-1, got {(i, j, k)}")
    if view is None:
        view = GlueView(sys, p)
    gi, gj, gk = view.glues[i], view.glues[j], view.glues[k]
    if gi.label != gj.label:
        raise NotAShield("glues i and j differ in type")
    if gi.pointing != "east" or gj.pointing != "east":
        raise NotAShield("glues i and j must point east")
    if not (view.visible(i, "south") and view.visible(j, "south")):
        raise NotAShield("glues i and j must be visible from the south")
    if not gk.horizontal or not view.visible(k, "north"):
        raise NotAShield("glue k must be visible from the north")
    vbar = sub(_dbl(p.pos(i)), _dbl(p.pos(j)))
    ray = VRay(add(gk.midpoint, vbar), "north")
    segment = PolyCurve([_dbl(p.pos(s)) for s in range(i, k + 1)])
    hits = {q for q in segment.lattice_points() if ray.contains(q)}
    if not hits <= {ray.start}:
        raise NotAShield(f"translated exit ray meets segment at {sorted(hits)}")


def enumerate_shields(sys: TileSystem, p: Path) -> list[Shield]:
    """All shields for the path, in lexicographic (i, j, k) order.

    Equivalent to running :func:`check_shield` on every triple, without
    building a curve per triple.  The translated exit ray starts at
    ``gk.midpoint + 2 * (pos_i - pos_j)``, which lies on an odd (glue)
    column.  The only lattice points of segment ``i..k`` on an odd column
    are the midpoints of its east/west glues ``s`` in ``[i, k-1]``, and
    path positions are distinct.  So a triple that passes the label,
    pointing and visibility filters is a shield exactly when no such glue
    on the ray's column lies above the ray start.  For each ``i`` the
    highest glue midpoint per column over ``i..k-1`` grows as ``k``
    advances and does not depend on ``j``; each ``j`` then costs one
    lookup.
    """
    view = GlueView(sys, p)
    glues = view.glues
    south_east = [g for g in view.south_visible() if g.pointing == "east"]
    north_vis = view.north_visible()
    found = []
    for a, gi in enumerate(south_east):
        ix, iy = gi.midpoint
        # Both glues point east, so their midpoints differ by the doubled
        # displacement between tiles i and j.
        partners = [(gj.index, ix - gj.midpoint[0], iy - gj.midpoint[1])
                    for gj in south_east[a + 1:] if gj.label == gi.label]
        if not partners:
            continue
        i = gi.index
        top: dict[int, int] = {}  # glue column -> highest midpoint, glues i..k-1
        s = i
        for gk in north_vis:
            k = gk.index
            if k < partners[0][0]:
                continue
            for g in glues[s:k]:
                if g.horizontal:
                    x, y = g.midpoint
                    h = top.get(x)
                    if h is None or y > h:
                        top[x] = y
            s = k
            kx, ky = gk.midpoint
            for j, dx, dy in partners:
                if j > k:
                    break
                h = top.get(kx + dx)
                if h is None or h <= ky + dy:
                    found.append((i, j, k))
    found.sort()
    return [Shield(i, j, k) for i, j, k in found]


# -- workspace ----------------------------------------------------------------


def _window(sys: TileSystem, p: Path, margin: int = 2):
    xs, ys = [], []
    for (x, y) in list(sys.seed.tiles) + list(p.positions):
        xs.append(2 * x)
        ys.append(2 * y)
    return (min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin)


def build_workspace(sys: TileSystem, p: Path, sh: Shield,
                    view: Optional[GlueView] = None) -> Workspace:
    """Assemble the cut for a shield and verify its structural claims.

    The cut runs up the entry ray, along the path segment ``i+1..k``, and
    out the exit ray; its right-hand side is the component where the
    engine is free to edit paths.  Verified here: the cut is simple, the
    seed and the retained prefix lie strictly on the left, and the
    west-translated exit ray touches the closed right side at most at its
    start.
    """
    i, j, k = sh.i, sh.j, sh.k
    if view is None:
        view = GlueView(sys, p)
    gi, gk = view.glues[i], view.glues[k]
    vec = sub(_dbl(p.pos(j)), _dbl(p.pos(i)))
    if vec[0] <= 0:
        raise ClaimViolation("pump-vector-east",
                             f"vector {vec} is not strictly east")
    vertices = [gi.midpoint] + [_dbl(p.pos(s)) for s in range(i + 1, k + 1)]
    vertices.append(gk.midpoint)
    cut = PolyCurve(vertices, south_ray=True, north_ray=True)
    if not cut.is_simple():
        raise ClaimViolation("cut-simple", "the shield cut self-intersects")
    cache = SideCache(cut)
    for pos in list(sys.seed.tiles) + [p.pos(s) for s in range(0, i + 1)]:
        if cache.side(_dbl(pos)) is not Side.LEFT:
            raise ClaimViolation(
                "prefix-outside-workspace",
                f"seed/prefix tile at {pos} is not strictly left of the cut")
    shifted = VRay(add(gk.midpoint, neg(vec)), "north")
    top = _window(sys, p)[3] + 2
    y = shifted.start[1]
    while y <= top:
        q = (shifted.start[0], y)
        if cache.side(q) is not Side.LEFT and q != shifted.start:
            raise ClaimViolation(
                "shifted-exit-ray-touch",
                f"translated exit ray enters the workspace at {q}")
        y += 1
    fam1 = {_dbl(p.pos(n)): n for n in range(i + 1, k + 1)}
    fam2 = {sub(_dbl(p.pos(n)), vec): n for n in range(j + 1, k + 1)}
    return Workspace(sh, cut, cache, Region(cut, Side.RIGHT, _window(sys, p)),
                     VRay(gk.midpoint, "north"), VRay(gi.midpoint, "south"), vec,
                     fam1, fam2)


# -- the dominant anchor tile ---------------------------------------------------


def _carrier_candidates(p: Path, sh: Shield, gi_mid: Point, vec: Point):
    """(numerator, x, index) of carrier-ray starts for segment tiles east of entry.

    A ray of direction ``vec`` through tile ``m`` starts on the entry
    column at height num/dx (doubled); it lies on the entry ray when the
    start is not above the glue midpoint.
    """
    gx, gy = gi_mid
    dx, dy = vec
    out = []
    for m in range(sh.i + 1, sh.k + 1):
        x2, y2 = _dbl(p.pos(m))
        if x2 <= gx:
            continue
        num = y2 * dx - dy * (x2 - gx)
        if num <= gy * dx:
            out.append((num, x2, m))
    return out


def dominant(sys: TileSystem, p: Path, sh: Shield, ws: Workspace,
             view: Optional[GlueView] = None,
             _carrier_override=None) -> DominantInfo:
    """Find the anchor tile on the lowest carrier ray and split the workspace.

    The carrier ray has the pumping vector's direction, starts on the
    entry ray, and passes through at least one segment tile; the anchor
    is the easternmost segment tile on the lowest such ray.  The south
    ray from the anchor splits the workspace into the part before and
    after the anchor.
    """
    i, j, k = sh.i, sh.j, sh.k
    if view is None:
        view = GlueView(sys, p)
    gi, gk = view.glues[i], view.glues[k]
    vec = ws.vector
    cands = _carrier_candidates(p, sh, gi.midpoint, vec)
    if not cands:
        raise ClaimViolation("anchor-exists", "no carrier ray hits the segment")
    if _carrier_override is None:
        best = min(num for num, _, _ in cands)
    else:
        best = _carrier_override
        if best not in {num for num, _, _ in cands}:
            raise ClaimViolation("anchor-exists", "carrier override misses all tiles")
    on_ray = [(x2, m) for num, x2, m in cands if num == best]
    if not on_ray:
        raise ClaimViolation("anchor-exists", "empty carrier ray")
    m0 = max(on_ray)[1]
    if m0 <= i + 1:
        raise ClaimViolation("anchor-past-start", f"anchor index {m0} <= i+1")

    anchor2 = _dbl(p.pos(m0))
    ray = VRay(anchor2, "south")
    segment = PolyCurve([_dbl(p.pos(s)) for s in range(i + 1, k + 1)])
    seg_pts = segment.lattice_set()
    hits = {q for q in seg_pts if ray.contains(q)}
    if hits != {anchor2}:
        raise ClaimViolation("anchor-ray-clear",
                             f"anchor ray meets the segment at {sorted(hits)}")
    max_x = segment.bbox()[2]
    n = 1
    while anchor2[0] + n * vec[0] <= max_x:
        moved = ray.translate(scale(vec, n))
        if any(moved.contains(q) for q in seg_pts):
            raise ClaimViolation("anchor-ray-clear",
                                 f"anchor ray shifted {n} periods hits the segment")
        n += 1
    witness = curve_in_closed_right(PolyCurve([anchor2], south_ray=True), ws.cache)
    if witness is not None:
        raise ClaimViolation("anchor-ray-inside",
                             f"anchor ray leaves the workspace at {witness}")
    if m0 > j:
        gj = view.glues[j]
        if anchor2[0] <= gj.midpoint[0]:
            raise ClaimViolation("anchor-ray-east",
                                 "anchor ray not strictly east of glue j")
        back = ray.translate(neg(vec))
        bhits = {q for q in seg_pts if back.contains(q)}
        if not bhits <= {back.start}:
            raise ClaimViolation("anchor-ray-east",
                                 f"west-shifted anchor ray hits segment at {sorted(bhits)}")

    split_pts = [anchor2] + [_dbl(p.pos(s)) for s in range(m0 + 1, k + 1)]
    split_pts.append(gk.midpoint)
    split = PolyCurve(split_pts, south_ray=True, north_ray=True)
    if not split.is_simple():
        raise ClaimViolation("split-simple", "workspace split self-intersects")
    upper = SideCache(split)
    n = 1
    limit_x = split.bbox()[2] + 2
    while anchor2[0] + n * vec[0] <= limit_x:
        moved_curve = PolyCurve([add(anchor2, scale(vec, n))], south_ray=True)
        witness = curve_in_closed_right(moved_curve, upper)
        if witness is not None:
            raise ClaimViolation(
                "anchor-ray-shift-upper",
                f"anchor ray shifted {n} periods leaves the upper part at {witness}")
        n += 1
    return DominantInfo(m0, best, vec[0], ray, split, upper)


# -- the binding route ----------------------------------------------------------


class _RouteGraph:
    """Positions of the segment and its west translate, edges within each copy.

    Only edges whose embedding stays in the closed right side of the cut
    are admissible; membership of a whole edge reduces to its two ends
    and midpoint because the cut is axis-aligned at the same granularity.
    """

    def __init__(self, p: Path, sh: Shield, ws: Workspace):
        i, j, k = sh.i, sh.j, sh.k
        self.vertices = set(ws.fam1) | set(ws.fam2)
        cache = ws.cache
        self.adj: dict[Point, list[Point]] = {u: [] for u in self.vertices}
        edges = set()
        for lo, shift in ((i + 1, (0, 0)), (j + 1, ws.vector)):
            for n in range(lo, k):
                edges.add(frozenset((sub(_dbl(p.pos(n)), shift),
                                     sub(_dbl(p.pos(n + 1)), shift))))
        for e in edges:
            u, w = tuple(e)
            mid = ((u[0] + w[0]) // 2, (u[1] + w[1]) // 2)
            if all(cache.side(q) is not Side.LEFT for q in (u, mid, w)):
                self.adj[u].append(w)
                self.adj[w].append(u)
        for lst in self.adj.values():
            lst.sort()


def _goal_test(ws: Workspace):
    """Predicate: vertex sits half a tile beside the exit ray, link in region."""
    lkx, lky = ws.exit_ray.start
    cache = ws.cache

    def is_goal(u: Point) -> bool:
        if abs(u[0] - lkx) != 1 or u[1] < lky:
            return False
        w = (lkx, u[1])
        if cache.side(u) is Side.ON:
            if cache.side_half((u[0] + w[0], u[1] + w[1])) is Side.LEFT:
                return False
        return True

    return is_goal


def build_r(sys: TileSystem, p: Path, sh: Shield, ws: Workspace,
            budget: Optional[EnumBudget] = None,
            graph: Optional[_RouteGraph] = None) -> tuple[Point, ...]:
    """The most right-priority admissible route to the exit ray.

    Explores the route graph depth first, most-right-turning successor
    first, which emits candidate routes in right-priority order; the
    first candidate that survives the endpoint-height filter (every
    strict prefix and every possible strict extension ending beside the
    exit ray ends strictly lower) is the selected route.  Returned
    positions are doubled and omit the entry tile ``i``.
    """
    budget = budget or EnumBudget.from_env()
    if graph is None:
        graph = _RouteGraph(p, sh, ws)
    start0 = _dbl(p.pos(sh.i))
    start1 = _dbl(p.pos(sh.i + 1))
    is_goal = _goal_test(ws)
    adj = graph.adj

    def sorted_successors(prev: Point, cur: Point) -> list[Point]:
        ranked = clockwise_successors(prev, cur)
        nbrs = adj[cur]
        return [q for q in ranked if q in nbrs]

    def extension_reaches(onpath: set[Point], cur: Point, min_y: int) -> bool:
        seen = set(onpath)
        frontier = [cur]
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w in seen:
                    continue
                if is_goal(w) and w[1] >= min_y:
                    return True
                seen.add(w)
                frontier.append(w)
        return False

    path = [start0, start1]
    onpath = {start0, start1}
    goal_prefix_ys: list[int] = []
    iters = [iter(sorted_successors(start0, start1))]
    prefix_marks = [0]  # how many goal-prefix heights were pushed at each depth
    nodes = 0

    def try_candidate() -> bool:
        cur = path[-1]
        if not is_goal(cur):
            return False
        y = cur[1]
        if any(py >= y for py in goal_prefix_ys):
            return False
        if extension_reaches(onpath, cur, y):
            return False
        return True

    if try_candidate():
        return tuple(path[1:])
    if is_goal(path[-1]):
        goal_prefix_ys.append(path[-1][1])
        prefix_marks[-1] += 1

    while iters:
        nodes += 1
        if nodes > budget.max_nodes:
            raise BudgetExceeded(f"route search exceeded {budget.max_nodes} nodes")
        nxt = next(iters[-1], None)
        if nxt is None:
            for _ in range(prefix_marks.pop()):
                goal_prefix_ys.pop()
            onpath.discard(path.pop())
            iters.pop()
            continue
        if nxt in onpath:
            continue
        path.append(nxt)
        onpath.add(nxt)
        iters.append(iter(sorted_successors(path[-2], nxt)))
        prefix_marks.append(0)
        if try_candidate():
            return tuple(path[1:])
        if is_goal(nxt):
            goal_prefix_ys.append(nxt[1])
            prefix_marks[-1] += 1
    raise EmptyRouteSet("no admissible route survives the endpoint-height filter")


def _assert_route_claims(sys: TileSystem, p: Path, sh: Shield, ws: Workspace,
                         route: tuple[Point, ...],
                         view: GlueView) -> Optional[PolyCurve]:
    """Order and translate-containment claims on the selected route."""
    j, k = sh.j, sh.k
    fam1 = ws.fam1
    last_idx = None
    for u in route:
        n = fam1.get(u)
        if n is None:
            continue
        if last_idx is not None and n <= last_idx:
            raise ClaimViolation("route-order",
                                 f"route visits path index {n} after {last_idx}")
        last_idx = n

    # Inner component: right side of the cut through glue j's ray.
    gj, gk = view.glues[j], view.glues[k]
    inner_pts = [gj.midpoint] + [_dbl(p.pos(s)) for s in range(j + 1, k + 1)]
    inner_pts.append(gk.midpoint)
    inner = PolyCurve(inner_pts, south_ray=True, north_ray=True)
    if not inner.is_simple():
        raise ClaimViolation("inner-cut-simple", "inner cut self-intersects")
    inner_cache = SideCache(inner)
    moved = PolyCurve([add(u, ws.vector) for u in route])
    witness = curve_in_closed_right(moved, inner_cache)
    if witness is not None:
        raise ClaimViolation(
            "route-shift-inside-inner",
            f"east-shifted route leaves the inner component at {witness}")
    return inner


def build_R(sys: TileSystem, p: Path, sh: Shield, ws: Workspace,
            route: tuple[Point, ...]):
    """Tile the route, or construct the blocking certificate.

    Walking the route, the first position where the two translated path
    copies disagree on tile type yields a conflict; growing the prefix
    and the tiled route in the appropriate translation and then placing
    the other copy's tile there blocks the path.  Without a conflict the
    fully tiled route grows in both translations.
    """
    i, j = sh.i, sh.j
    v_tiles = (ws.vector[0] // 2, ws.vector[1] // 2)
    fam1, fam2 = ws.fam1, ws.fam2

    s0 = len(route)
    for s, u in enumerate(route):
        a, b = fam1.get(u), fam2.get(u)
        if a is not None and b is not None and p.type(a) != p.type(b):
            s0 = s
            break

    entries = []
    for s in range(s0):
        u = route[s]
        a = fam1.get(u)
        idx = a if a is not None else fam2[u]
        entries.append((_tile(u), p.type(idx)))
    tiled = Path(entries)

    if s0 == len(route):
        for prefix_end, piece in ((i, tiled), (j, tiled.translate(v_tiles))):
            grown = Path(p.entries[: prefix_end + 1] + piece.entries)
            rep = tam.validate_producible_path(sys, grown)
            if not rep:
                raise ClaimViolation(
                    "paired-growth",
                    f"tiled route fails to grow after prefix {prefix_end}: "
                    f"{rep.code}@{rep.index}")
        return tiled, None

    conflict2 = route[s0]
    a_conf, b_conf = fam1[conflict2], fam2[conflict2]
    if s0 == 0:
        # The very first route position already conflicts; the east copy of
        # the first segment tile blocks the path right after tile j.
        if b_conf != j + 1:
            raise ClaimViolation("blocker-edge",
                                 "conflict at route start is not beside tile j")
        blocker_pos = p.pos(b_conf)
        attachments = list(p.entries[: j + 1]) + [(blocker_pos, p.type(a_conf))]
        cert = FragilityCert(tuple(attachments), blocker_pos)
        return tiled, (cert, "east-copy")

    prev = route[s0 - 1]
    b_prev = fam2.get(prev)
    if b_prev is not None and abs(fam2.get(conflict2, 10 ** 9) - b_prev) == 1:
        # Grow prefix..i plus the tiled route, then place the west copy's tile.
        attachments = list(p.entries[: i + 1]) + list(tiled.entries)
        attachments.append((_tile(conflict2), p.type(b_conf)))
        cert = FragilityCert(tuple(attachments), _tile(conflict2))
        return tiled, (cert, "west-copy")
    a_prev = fam1.get(prev)
    if a_prev is not None and abs(a_conf - a_prev) == 1:
        # Grow prefix..j plus the east-shifted route, then the east copy's tile.
        attachments = list(p.entries[: j + 1])
        attachments += list(tiled.translate(v_tiles).entries)
        east_pos = add(_tile(conflict2), v_tiles)
        attachments.append((east_pos, p.type(a_conf)))
        cert = FragilityCert(tuple(attachments), east_pos)
        return tiled, (cert, "east-copy")
    raise ClaimViolation("blocker-edge",
                         "conflict is reachable by neither translated copy")


def initial_uv(p: Path, sh: Shield, ws: Workspace, dom: DominantInfo,
               tiled: Path) -> tuple[int, int]:
    """First anchor pair: matching indices one pumping period apart.

    The tiled route passes through the anchor tile; scanning backwards
    from there, the last route tile whose east translate is on the
    segment gives the pair.  All four conclusions are re-checked: order,
    equal tile types, containment of the translated stretch in the upper
    part, and uniqueness of the meeting point.
    """
    i = sh.i
    vec = ws.vector
    fam1 = ws.fam1
    b = next((s for s in range(len(tiled))
              if _dbl(tiled.pos(s)) == _dbl(p.pos(dom.m0))), None)
    if b is None:
        raise ClaimViolation("anchor-on-route", "route misses the anchor tile")
    if tiled.type(b) != p.type(dom.m0):
        raise ClaimViolation("anchor-on-route", "route retypes the anchor tile")
    a = next((s for s in range(b - 1, -1, -1)
              if add(_dbl(tiled.pos(s)), vec) in fam1), None)
    if a is None:
        raise ClaimViolation("anchor-pair", "no route tile east-translates onto the segment")
    u0 = fam1.get(_dbl(tiled.pos(a)))
    if u0 is None:
        raise ClaimViolation("anchor-pair", "pair start is not a segment tile")
    v0 = fam1[add(_dbl(tiled.pos(a)), vec)]
    if not (i + 1 <= u0 <= dom.m0 <= v0):
        raise ClaimViolation("anchor-pair",
                             f"pair order broken: i+1={i + 1} u0={u0} m0={dom.m0} v0={v0}")
    if p.type(u0) != p.type(v0):
        raise ClaimViolation("anchor-pair", "pair tiles differ in type")
    stretch = PolyCurve([add(_dbl(p.pos(s)), vec) for s in range(u0, dom.m0 + 1)])
    witness = curve_in_closed_right(stretch, dom.upper)
    if witness is not None:
        raise ClaimViolation("anchor-pair",
                             f"translated stretch leaves the upper part at {witness}")
    seg_positions = set(fam1)
    meet = {q for s in range(u0, dom.m0 + 1)
            for q in [add(_dbl(p.pos(s)), vec)] if q in seg_positions}
    if meet != {_dbl(p.pos(v0))}:
        raise ClaimViolation("anchor-pair",
                             f"translated stretch meets the segment at {sorted(meet)}")
    return u0, v0


# -- the progress loop ----------------------------------------------------------


def _x_separation_periods(a: PolyCurve, b: PolyCurve, dx: int) -> int:
    """Periods after which translates of ``a`` sit strictly east of both curves."""
    ax0 = a.bbox()[0]
    bx1 = max(a.bbox()[2], b.bbox()[2])
    return max(0, (bx1 - ax0) // dx) + 2


def _check_step(p: Path, sh: Shield, ws: Workspace,
                u: int, m: int, v_: int, f: PolyCurve):
    """Verify the four induction conditions; detect the exit-seam escape.

    Returns the curve through ``f`` and the tail of the cut ("ok"), or
    the marker "special" when the translated stretch crosses the half
    step between the last segment tile and the exit glue, which certifies
    pumpability directly.
    """
    i, j, k = sh.i, sh.j, sh.k
    vec = ws.vector
    cut = ws.cut
    if not f.is_simple():
        raise ClaimViolation("induction-h1", "frontier curve self-intersects")
    witness = curve_in_closed_right(f, ws.cache)
    if witness is not None:
        raise ClaimViolation("induction-h2",
                             f"frontier leaves the workspace at {witness}")
    anchor2 = _dbl(p.pos(m))
    inter = curve_intersection(f, cut)
    if inter is INFINITE_OVERLAP or inter != {anchor2}:
        raise ClaimViolation("induction-h2",
                             f"frontier meets the cut at {inter} (want {{{anchor2}}})")
    reps = _x_separation_periods(f, cut, vec[0])
    for t in range(1, reps + 1):
        moved = f.translate(scale(vec, t))
        for other in (f, cut):
            inter = curve_intersection(moved, other)
            if inter is INFINITE_OVERLAP or inter:
                raise ClaimViolation(
                    "induction-h3",
                    f"frontier shifted {t} periods meets {'itself' if other is f else 'the cut'}")
    # H4 with the seam escape.
    gk = ws.exit_ray.start
    g_pts = list(f.points) + [_dbl(p.pos(s)) for s in range(m + 1, k + 1)] + [gk]
    g = PolyCurve(g_pts, south_ray=True, north_ray=True)
    if not g.is_simple():
        raise ClaimViolation("induction-h4", "frontier extension self-intersects")
    want = _dbl(p.pos(v_))
    if add(_dbl(p.pos(u)), vec) != want:
        raise ClaimViolation("induction-h4", "anchor pair is not one period apart")
    stretch = PolyCurve([add(_dbl(p.pos(s)), vec) for s in range(u, m + 1)])
    inter_c = curve_intersection(stretch, cut)
    inter_g = curve_intersection(stretch, g)
    if inter_c is INFINITE_OVERLAP or inter_g is INFINITE_OVERLAP:
        raise ClaimViolation("induction-h4", "translated stretch overlaps a cut")
    # After an advance by one period the frontier ends with a translated
    # sub-segment of the very stretch checked here, so the stretch may run
    # along the frontier without crossing it; only meetings beyond the
    # frontier's own points are significant.
    extra_g = inter_g - set(f.lattice_points())

    def extension(strict: bool) -> PolyCurve:
        # Runs down the shifted frontier, back along the shifted stretch to
        # the pair's landing tile, then out the tail of the cut.
        pts = [add(q, vec) for q in f.points]
        pts += [add(_dbl(p.pos(s)), vec) for s in range(m - 1, u - 1, -1)]
        pts += [_dbl(p.pos(s)) for s in range(v_ + 1, k + 1)] + [gk]
        ext = PolyCurve(pts, south_ray=True, north_ray=True)
        if strict and not ext.is_simple():
            raise ClaimViolation("induction-h4", "frontier extension kinks")
        return ext

    if inter_c == {want} and extra_g <= {want}:
        return g, extension(strict=extra_g == inter_g), "ok"
    seam = {want, gk}
    if (v_ == k and want == _dbl(p.pos(k)) and u + 1 < len(p)
            and add(_dbl(p.pos(u + 1)), vec) == _dbl(p.pos(k + 1))
            and inter_c <= seam and extra_g <= seam):
        glue_step = sub(p.pos(k + 1), p.pos(k))
        if glue_step != (1, 0):
            raise ClaimViolation("special-exit", "seam crossing without east exit glue")
        return g, extension(strict=False), "special"
    raise ClaimViolation(
        "induction-h4",
        f"translated stretch meets cut at {sorted(inter_c)}, frontier at {sorted(inter_g)}")


def _find_next_anchor(p: Path, ws: Workspace, u: int, m: int):
    """Largest pair (a, t), ordered by a then t, landing back on the segment."""
    fam1, vec = ws.fam1, ws.vector
    max_x = max(x for x, _ in fam1)
    for a in range(m, u - 1, -1):
        base = _dbl(p.pos(a))
        t_hi = (max_x - base[0]) // vec[0] if vec[0] else 0
        for t in range(t_hi, 0, -1):
            target = add(base, scale(vec, t))
            m_next = fam1.get(target)
            if m_next is not None:
                return a, t, m_next
    raise ClaimViolation("induction-progress", "no translate lands on the segment")


def pump_or_block(sys: TileSystem, p: Path, sh: Shield,
                  budget: Optional[EnumBudget] = None,
                  collect_trace: bool = False,
                  view: Optional[GlueView] = None) -> ShieldOutcome:
    """Decide a shield: produce a verified pumping or blocking certificate.

    The shield is re-validated first.  When ``j == k`` the two glues line
    up on one column and the segment between them repeats immediately.
    Otherwise the engine works on the prefix ending one tile past ``k``
    (any certificate for a prefix is one for the whole path), builds the
    workspace, anchor, route and tiled route, and iterates the anchor
    advance until it stalls (pumpable) or a conflict materializes
    (fragile).  Both certificate kinds are passed through the matching
    independent verifier before being returned.  ``view``, when given,
    is a prebuilt :class:`GlueView` of ``(sys, p)``; it serves the shield
    check and the engine, which reads only the glues up to ``k`` and so
    sees the same midpoints in the full path's view as in the prefix's.
    """
    budget = budget or EnumBudget.from_env()
    if view is None:
        view = GlueView(sys, p)
    check_shield(sys, p, sh.i, sh.j, sh.k, view)
    trace = ShieldTrace(sh)
    i, j, k = sh.i, sh.j, sh.k

    def pumpable(u: int, v_: int, branch: str) -> ShieldOutcome:
        spec = PumpingSpec(p, u, v_)
        res = tam.verify_pumpable_cert(sys, spec)
        if not res:
            raise ClaimViolation("certificate-verifies",
                                 f"pumping ({u},{v_}) rejected: {res.reason}")
        return ShieldOutcome("pumpable", sh, branch, pumpable=spec,
                             trace=trace if collect_trace else None)

    if j == k:
        return pumpable(i, j, "repeat-at-exit")

    pt = p.prefix(k + 1)
    ws = build_workspace(sys, pt, sh, view)
    dom = dominant(sys, pt, sh, ws, view)
    trace.m0 = dom.m0
    trace.carrier = (dom.carrier_num, dom.carrier_den)
    trace.anchor_ray = dom.ray
    trace.split = dom.split

    route = build_r(sys, pt, sh, ws, budget)
    trace.route = route
    trace.inner = _assert_route_claims(sys, pt, sh, ws, route, view)

    tiled, conflict = build_R(sys, pt, sh, ws, route)
    trace.tiled_route = tiled
    if conflict is not None:
        cert, which = conflict
        res = tam.verify_fragile_cert(sys, p, cert)
        if not res:
            raise ClaimViolation("certificate-verifies",
                                 f"blocking cert rejected: {res.reason}")
        _assert_blocker_in_workspace(sys, pt, sh, ws, cert)
        return ShieldOutcome("fragile", sh, f"route-conflict-{which}",
                             fragile=cert, blocked_segment=(i + 1, k),
                             trace=trace if collect_trace else None)

    u, v_ = initial_uv(pt, sh, ws, dom, tiled)
    f = PolyCurve([_dbl(pt.pos(dom.m0))], south_ray=True)
    m = dom.m0
    shift = 0
    vec = ws.vector

    for _ in range(budget.max_steps):
        g, h, status = _check_step(pt, sh, ws, u, m, v_, f)
        trace.history.append(InductionStep(u, m, v_, shift, f, g, h))
        if status == "special":
            return pumpable(u, v_, "exit-seam")
        a, t, m_next = _find_next_anchor(pt, ws, u, m)
        if m_next == m:
            if not (m == v_ and t == 1 and a == u):
                raise ClaimViolation("pump-case-degenerate",
                                     f"stalled with a={a} t={t} m={m} v={v_}")
            return pumpable(u, v_, "anchor-stall")
        if not (m_next >= v_ >= m):
            raise ClaimViolation("induction-progress",
                                 f"anchor went backwards: m'={m_next} v={v_} m={m}")
        tail = [add(_dbl(pt.pos(s)), scale(vec, t)) for s in range(m, a - 1, -1)]
        f = PolyCurve([add(q, scale(vec, t)) for q in f.points] + tail[1:],
                      south_ray=True)
        shift += t
        b = next((s for s in range(len(tiled))
                  if _dbl(tiled.pos(s)) == _dbl(pt.pos(m_next))), None)
        if b is None:
            raise ClaimViolation("induction-anchor", "route misses the new anchor")
        d = next((s for s in range(b, -1, -1)
                  if add(_dbl(tiled.pos(s)), vec) in ws.fam1), None)
        if d is None:
            raise ClaimViolation("induction-anchor", "no route tile translates onto the segment")
        u_next = ws.fam1.get(_dbl(tiled.pos(d)))
        if u_next is None:
            raise ClaimViolation("induction-anchor", "new pair start is off the segment")
        v_next = ws.fam1[add(_dbl(tiled.pos(d)), vec)]
        if p.type(u_next) != p.type(v_next):
            raise ClaimViolation("induction-anchor", "new pair tiles differ in type")
        if not (u_next <= m_next <= v_next):
            raise ClaimViolation("induction-anchor",
                                 f"new pair out of order: {u_next},{m_next},{v_next}")
        u, m, v_ = u_next, m_next, v_next
    raise BudgetExceeded(f"progress loop exceeded {budget.max_steps} steps")


def _assert_blocker_in_workspace(sys: TileSystem, pt: Path, sh: Shield,
                                 ws: Workspace, cert: FragilityCert) -> None:
    """Everything the certificate grows beyond the retained prefix stays inside."""
    prefix = {pt.pos(s) for s in range(0, sh.i + 1)}
    for pos, _ in cert.attachments:
        if pos in prefix:
            continue
        if ws.cache.side(_dbl(pos)) is Side.LEFT:
            raise ClaimViolation("blocker-in-workspace",
                                 f"certificate tile at {pos} left the workspace")
