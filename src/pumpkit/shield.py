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

The :class:`Workspace` is the one per-shield context.
:func:`build_workspace` fills it once, after the ``j == k`` exit (a repeat
at the exit needs none of it): the system, the prefix ``0..k+1`` the
engine works on, the doubled positions of tiles ``0..k+1`` and the glue
walk through them, the pumping vector, the cut with its side cache, the
midpoint ``exit2`` of glue ``k`` where the exit ray starts, and the two
translated copies of the segment.  Every later stage (the anchor, the
route, the tiled route, the progress loop) takes the workspace and reads
the shield's data from it.  The glue walk is built once per shield: glue
``g``'s midpoint is ``walk[2g + 1]``, and the lattice walks of the cut, the
anchor split, the inner cut, the anchor's segment and the prefix are
slices of it (:func:`_cut_from`), so no curve of the cut family walks its
tiles again.

Every structural fact the construction relies on is re-checked at runtime
and raises :class:`ClaimViolation` when broken; on producible inputs none
of these can fire, so a violation marks a bug, not a property of the tile
system under study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Optional

from . import tam
from .budgets import EnumBudget
from .errors import BudgetExceeded, ClaimViolation, EmptyRouteSet, NotAShield
from .geometry import (
    INFINITE_OVERLAP,
    Point,
    PolyCurve,
    Side,
    SideCache,
    add,
    clockwise_successors,
    curve_in_closed_right,
    curve_intersection,
    scale,
    step_side,
    sub,
    walk_sides,
)
from .tam import FragilityCert, Path, PumpingSpec, TileSystem
from .visibility import GlueView


def _dbl(pos) -> Point:
    return (2 * pos[0], 2 * pos[1])


def _tile(pos2: Point):
    return (pos2[0] // 2, pos2[1] // 2)


class Shield(NamedTuple):
    """A shield triple: glues ``i`` and ``j`` seen from the south, ``k`` from the north.

    A :class:`~typing.NamedTuple`: it equals the plain tuple ``(i, j, k)``
    and is ordered and hashed as that tuple, field by field.  A shield
    search builds one per triple it returns, and a tuple is the cheapest
    record to build.  :func:`enumerate_shields` builds its records with
    ``tuple.__new__(Shield, (i, j, k))``, mapped over its triples: the
    NamedTuple's own ``__new__`` is a Python function, one frame per
    record, and on paths where every triple is a shield those frames are
    a large share of the search.  The record is the same either way.
    """

    i: int
    j: int
    k: int


@dataclass
class Workspace:
    """Everything the engine derives from one shield, computed once.

    ``walk`` is the unit-step lattice walk through the doubled tiles
    ``0..k+1`` and the glue midpoints between them: tile ``n`` is
    ``walk[2n]`` and glue ``g``'s midpoint ``walk[2g + 1]``.  Any stretch of
    the path, from a tile or a glue to a tile or a glue, has a slice of it
    as its lattice walk.
    """

    sys: TileSystem
    path: Path  # the prefix 0..k+1 the engine works on
    shield: Shield
    pos2: list[Point]  # doubled positions of tiles 0..k+1
    walk: tuple[Point, ...]  # tiles 0..k+1 and the glues between them, doubled
    vector: Point  # doubled displacement from tile i to tile j
    cut: PolyCurve  # up the entry ray, along tiles i+1..k, out the exit ray
    cache: SideCache  # side classification against ``cut``
    exit2: Point  # midpoint of glue k, where the exit ray starts north
    fam1: dict[Point, int]  # doubled position -> index, segment tiles i+1..k
    fam2: dict[Point, int]  # the same for tiles j+1..k moved west by ``vector``


@dataclass
class DominantInfo:
    """The anchor tile index on the lowest carrier ray, and the part past it."""

    m0: int
    carrier_num: int  # start height of the carrier ray on the entry column,
    carrier_den: int  # as the exact fraction carrier_num / carrier_den
    upper: SideCache  # right side of the split (the part past the anchor)


@dataclass
class InductionStep:
    u: int
    m: int
    v: int
    shift: int
    f: PolyCurve


@dataclass
class ShieldTrace:
    shield: Shield
    m0: Optional[int] = None
    carrier: Optional[tuple[int, int]] = None
    route: Optional[tuple[Point, ...]] = None
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
    trace: ShieldTrace
    pumpable: Optional[PumpingSpec] = None
    fragile: Optional[FragilityCert] = None
    blocked_segment: Optional[tuple[int, int]] = None


# -- shield recognition -------------------------------------------------------


def check_shield(sys: TileSystem, p: Path, i: int, j: int, k: int,
                 view: Optional[GlueView] = None) -> None:
    """Raise :class:`NotAShield` unless ``(i, j, k)`` is a shield for ``p``.

    The ray test reads glue midpoints instead of building the segment's
    curve, on the lemma :func:`enumerate_shields` rests on: the translated
    exit ray lies on an odd (glue) column, where the only lattice points of
    segment ``i..k`` are the midpoints of its east/west glues ``i..k-1``.
    """
    if not (0 <= i < j <= k < len(p) - 1):
        raise NotAShield(f"need 0 <= i < j <= k < |p|-1, got {(i, j, k)}")
    if view is None:
        view = GlueView(sys, p)
    gi, gj, gk = view.glue(i), view.glue(j), view.glue(k)
    if gi.label != gj.label:
        raise NotAShield("glues i and j differ in type")
    if gi.pointing != "east" or gj.pointing != "east":
        raise NotAShield("glues i and j must point east")
    if not (view.visible(i, "south") and view.visible(j, "south")):
        raise NotAShield("glues i and j must be visible from the south")
    if not gk.horizontal or not view.visible(k, "north"):
        raise NotAShield("glue k must be visible from the north")
    sx, sy = add(gk.midpoint, sub(_dbl(p.pos(i)), _dbl(p.pos(j))))
    # Glue s of the segment has midpoint pos_s + pos_{s+1} (doubled).
    pos = p.positions[i:k + 1]
    hits = {(x0 + x1, y0 + y1) for (x0, y0), (x1, y1) in zip(pos, pos[1:])
            if x0 + x1 == sx and y0 + y1 >= sy}
    if not hits <= {(sx, sy)}:
        raise NotAShield(f"translated exit ray meets segment at {sorted(hits)}")


def enumerate_shields(sys: TileSystem, p: Path) -> list[Shield]:
    """All shields for the path, in lexicographic (i, j, k) order.

    Equivalent to running :func:`check_shield` on every triple, without
    building a curve per triple.  Glues ``i`` and ``j`` of a shield are
    two east-pointing glues of one label, so a path whose east-pointing
    glues all differ in label has none; that is checked first, before any
    visibility data is built.

    The translated exit ray starts at ``gk.midpoint + 2 * (pos_i - pos_j)``,
    which lies on an odd (glue) column.  The only lattice points of segment
    ``i..k`` on an odd column are the midpoints of its east/west glues ``s``
    in ``[i, k-1]``, and path positions are distinct.  So a triple that
    passes the label, pointing and visibility filters is a shield exactly
    when no such glue on the ray's column lies above the ray start.  For
    each ``i`` the highest glue midpoint per column over ``i..k-1`` grows
    as ``k`` advances and does not depend on ``j``; each ``j`` then costs
    one lookup.  The search runs ``i`` and ``k`` upward and collects the
    accepted ``k`` per partner ``j``; emitting those lists ``j`` by ``j``
    gives the order without a sort.

    It reads only the view's visible banks (glue indices) and the path's
    positions and types, and builds no glue record: glue ``s`` has the
    doubled midpoint ``pos_s + pos_(s+1)``, and an east-pointing glue's
    label is its first tile's east glue.
    """
    positions, types = p.positions, p.types
    east = [t.east for (x, y), (nx, ny), t in zip(positions, positions[1:], types)
            if nx == x + 1 and ny == y]
    if len(set(east)) == len(east):
        return []
    view = GlueView(sys, p)
    south, north = view.banks
    # East-pointing glue i: label t_i.east, doubled midpoint (2 x_i + 1, 2 y_i).
    south_east = []
    for i in south:
        x, y = positions[i]
        if positions[i + 1][0] > x:
            south_east.append((i, types[i].east, 2 * x + 1, 2 * y))
    found = []
    for a, (i, label, ix, iy) in enumerate(south_east):
        # Both glues point east, so their midpoints differ by the doubled
        # displacement between tiles i and j.
        partners = [(j, ix - jx, iy - jy, [])
                    for j, label_j, jx, jy in south_east[a + 1:] if label_j == label]
        if not partners:
            continue
        top: dict[int, int] = {}  # glue column -> highest midpoint, glues i..k-1
        s = i
        for k in north:
            if k < partners[0][0]:
                continue
            # Glues s..k-1: a horizontal one joins tiles on one row y, at doubled 2y.
            x0, y0 = positions[s]
            for x1, y1 in positions[s + 1:k + 1]:
                if y0 == y1:
                    h = top.get(x0 + x1)
                    if h is None or 2 * y0 > h:
                        top[x0 + x1] = 2 * y0
                x0, y0 = x1, y1
            s = k
            x0, y0 = positions[k]
            kx, ky = x0 + positions[k + 1][0], 2 * y0
            for j, dx, dy, ks in partners:
                if j > k:
                    break
                h = top.get(kx + dx)
                if h is None or h <= ky + dy:
                    ks.append(k)
        for j, _, _, ks in partners:
            found += map(tuple.__new__, repeat(Shield), zip(repeat(i), repeat(j), ks))
    return found


# -- workspace ----------------------------------------------------------------


def _glue_walk(tiles: list[Point]) -> tuple[Point, ...]:
    """The unit-step walk through doubled tile positions and the glues between them."""
    walk = tiles[:1]
    for (ux, uy), w in zip(tiles, tiles[1:]):
        walk += [((ux + w[0]) // 2, (uy + w[1]) // 2), w]
    return tuple(walk)


def _cut(head: list[Point], pos2: list[Point], lo: int, exit2: Point) -> PolyCurve:
    """``head``, then path tiles ``lo..k``, then the exit glue, with both rays.

    ``pos2`` is a workspace's doubled positions of tiles ``0..k+1`` and
    ``exit2`` the midpoint of glue ``k``.  The shield cut, the anchor
    split, the inner cut and the progress loop's curves all have this form.
    """
    return PolyCurve(head + pos2[lo:-1] + [exit2], south_ray=True, north_ray=True)


def _cut_from(pos2: list[Point], walk: tuple[Point, ...], start: int) -> PolyCurve:
    """The :func:`_cut` that starts at glue-walk point ``start``, with its lattice.

    ``start`` is ``2g + 1`` for glue ``g``'s midpoint or ``2m`` for tile
    ``m``; either way the tiles that follow are ``start // 2 + 1 .. k``.
    Consecutive vertices are a whole tile step or a half one apart, so the
    curve's lattice walk is the glue walk from ``start`` to the exit glue,
    ``walk[start:-1]``, and the curve takes it as it is.
    """
    return PolyCurve([walk[start]] + pos2[start // 2 + 1:-1] + [walk[-2]],
                     south_ray=True, north_ray=True, lattice=walk[start:-1])


def build_workspace(sys: TileSystem, p: Path, sh: Shield) -> Workspace:
    """Assemble a shield's workspace and verify the cut's structural claims.

    The engine works on the prefix ``0..k+1`` of ``p``; any certificate
    for a prefix is one for the whole path.  The cut runs up the entry
    ray, along the path segment ``i+1..k``, and out the exit ray; its
    right-hand side is the component where the engine is free to edit
    paths.  Verified here: the cut is simple, the seed and the retained
    prefix lie strictly on the left, and the west-translated exit ray
    touches the closed right side at most at its start.
    """
    i, j, k = sh.i, sh.j, sh.k
    pt = p.prefix(k + 1)
    positions = pt.positions
    pos2 = [_dbl(q) for q in positions]
    vec = sub(pos2[j], pos2[i])
    if vec[0] <= 0:
        raise ClaimViolation("pump-vector-east",
                             f"vector {vec} is not strictly east")
    walk = _glue_walk(pos2)
    exit2 = walk[2 * k + 1]
    cut = _cut_from(pos2, walk, 2 * i + 1)
    if not cut.is_simple():
        raise ClaimViolation("cut-simple", "the shield cut self-intersects")
    cache = SideCache(cut)
    sides = [cache.side(_dbl(pos)) for pos in sys.seed.tiles]
    sides += walk_sides(cache, walk[:2 * i + 1])[::2]
    for pos, side in zip(list(sys.seed.tiles) + list(positions[: i + 1]), sides):
        if side is not Side.LEFT:
            raise ClaimViolation(
                "prefix-outside-workspace",
                f"seed/prefix tile at {pos} is not strictly left of the cut")
    # The scan ends above the highest tile, where the cut is its exit ray
    # alone and the side along the translated ray no longer changes.
    sx, sy = sub(exit2, vec)
    top = 2 * max(y for _, y in list(sys.seed.tiles) + list(positions)) + 4
    ray = [(sx, y) for y in range(sy + 1, top + 1)]
    for q, side in zip(ray, walk_sides(cache, ray)):
        if side is not Side.LEFT:
            raise ClaimViolation(
                "shifted-exit-ray-touch",
                f"translated exit ray enters the workspace at {q}")
    fam1 = {pos2[n]: n for n in range(i + 1, k + 1)}
    fam2 = {sub(pos2[n], vec): n for n in range(j + 1, k + 1)}
    return Workspace(sys, pt, sh, pos2, walk, vec, cut, cache, exit2, fam1, fam2)


# -- the dominant anchor tile ---------------------------------------------------


def _carrier_candidates(ws: Workspace):
    """(numerator, x, index) of carrier-ray starts for segment tiles east of entry.

    A ray of direction ``vec`` through tile ``m`` starts on the entry
    column at height num/dx (doubled); it lies on the entry ray when the
    start is not above the glue midpoint.
    """
    sh = ws.shield
    gx, gy = ws.walk[2 * sh.i + 1]
    dx, dy = ws.vector
    out = []
    for m in range(sh.i + 1, sh.k + 1):
        x2, y2 = ws.pos2[m]
        if x2 <= gx:
            continue
        num = y2 * dx - dy * (x2 - gx)
        if num <= gy * dx:
            out.append((num, x2, m))
    return out


def dominant(ws: Workspace) -> DominantInfo:
    """Find the anchor tile on the lowest carrier ray and split the workspace.

    The carrier ray has the pumping vector's direction, starts on the
    entry ray, and passes through at least one segment tile; the anchor
    is the easternmost segment tile on the lowest such ray.  The south
    ray from the anchor splits the workspace into the part before and
    after the anchor.
    """
    sh, pos2, walk, vec = ws.shield, ws.pos2, ws.walk, ws.vector
    i, j, k = sh.i, sh.j, sh.k
    cands = _carrier_candidates(ws)
    if not cands:
        raise ClaimViolation("anchor-exists", "no carrier ray hits the segment")
    best = min(num for num, _, _ in cands)
    on_ray = [(x2, m) for num, x2, m in cands if num == best]
    if not on_ray:
        raise ClaimViolation("anchor-exists", "empty carrier ray")
    m0 = max(on_ray)[1]
    if m0 <= i + 1:
        raise ClaimViolation("anchor-past-start", f"anchor index {m0} <= i+1")

    anchor2 = pos2[m0]
    segment = PolyCurve(pos2[i + 1:k + 1], lattice=walk[2 * i + 2:2 * k + 1])
    hits = set(segment.ray_hits(anchor2, north=False))
    if hits != {anchor2}:
        raise ClaimViolation("anchor-ray-clear",
                             f"anchor ray meets the segment at {sorted(hits)}")
    max_x = segment.bbox()[2]
    n = 1
    while anchor2[0] + n * vec[0] <= max_x:
        if segment.ray_hits(add(anchor2, scale(vec, n)), north=False):
            raise ClaimViolation("anchor-ray-clear",
                                 f"anchor ray shifted {n} periods hits the segment")
        n += 1
    witness = curve_in_closed_right(PolyCurve([anchor2], south_ray=True), ws.cache)
    if witness is not None:
        raise ClaimViolation("anchor-ray-inside",
                             f"anchor ray leaves the workspace at {witness}")
    if m0 > j:
        if anchor2[0] <= walk[2 * j + 1][0]:
            raise ClaimViolation("anchor-ray-east",
                                 "anchor ray not strictly east of glue j")
        back = sub(anchor2, vec)
        bhits = set(segment.ray_hits(back, north=False))
        if not bhits <= {back}:
            raise ClaimViolation("anchor-ray-east",
                                 f"west-shifted anchor ray hits segment at {sorted(bhits)}")

    split = _cut_from(pos2, walk, 2 * m0)
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
    return DominantInfo(m0, best, vec[0], upper)


# -- the binding route ----------------------------------------------------------


def _route_adjacency(ws: Workspace) -> dict[Point, list[Point]]:
    """The route graph: the segment and its west translate, edges within each copy.

    Only edges that lie in the closed right side of the cut are
    admissible: the two tiles, the glue midpoint between them and the two
    half steps joining them.  The segment copy ``i+1..k`` lies on the cut,
    which runs through those very tiles and glues and is simple (the
    workspace checked it), so all its edges are admitted without a query.
    The west copy is one unit-step walk (tile, glue midpoint, tile, ...),
    the workspace's glue walk over tiles ``j+1..k`` moved west by the
    vector, classified by :func:`walk_sides` with one side query: a step
    with both ends off the cut cannot cross it, and a half step with both
    ends on the cut may still leave the region as a chord, which the
    cut's two arms at the step's first end decide.

    Edges go straight into the adjacency lists, each once: the segment is
    a simple path and so is its translate, so the only repeat is a west
    copy edge that is also a segment edge, which a membership test in the
    short list of its end (at most four neighbours) skips.  Every list is
    sorted at the end, the order the search reads them in.
    """
    sh, pos2 = ws.shield, ws.pos2
    adj: dict[Point, list[Point]] = {u: [] for u in (*ws.fam1, *ws.fam2)}
    seg = pos2[sh.i + 1:sh.k + 1]
    for u, w in zip(seg, seg[1:]):
        adj[u].append(w)
        adj[w].append(u)
    if sh.j + 1 < sh.k:  # a west copy of one tile has no edges
        dx, dy = ws.vector
        west = [(x - dx, y - dy) for x, y in ws.walk[2 * sh.j + 2:2 * sh.k + 1]]
        # Points and step interiors alternate: edge west[n]-west[n + 2]
        # is the five entries from sides[2n].
        sides = walk_sides(ws.cache, west, steps=True)
        for n in range(0, len(west) - 1, 2):
            if Side.LEFT not in sides[2 * n:2 * n + 5]:
                u, w = west[n], west[n + 2]
                nbrs = adj[u]
                if w not in nbrs:
                    nbrs.append(w)
                    adj[w].append(u)
    for lst in adj.values():
        lst.sort()
    return adj


def _goal_test(ws: Workspace):
    """Predicate: vertex sits half a tile beside the exit ray, link in region.

    The link runs from the vertex to the exit ray, which is part of the
    cut.  When the vertex lies on the cut too, the link leaves the region
    only as a chord, which :func:`step_side` decides from the cut's two
    arms at the vertex.  It keeps no answers: few vertices pass the cheap
    column and height filter, and fewer of those are asked about twice.
    """
    lkx, lky = ws.exit2
    cache = ws.cache

    def is_goal(u: Point) -> bool:
        if abs(u[0] - lkx) != 1 or u[1] < lky:
            return False
        return (cache.side(u) is not Side.ON
                or step_side(cache.curve, u, (lkx, u[1])) is not Side.LEFT)

    return is_goal


def build_r(ws: Workspace, budget: EnumBudget = EnumBudget()) -> tuple[Point, ...]:
    """The most right-priority admissible route to the exit ray.

    Explores the route graph depth first, most-right-turning successor
    first, which emits candidate routes in right-priority order; the
    first candidate that survives the endpoint-height filter (every
    strict prefix ending beside the exit ray ends strictly lower, and no
    possible strict extension ending beside it ends strictly higher) is
    the selected route.  Returned positions are doubled and omit the
    entry tile ``i``.

    An extension to a goal of equal height does not reject: the two goals
    at one height sit on either side of the exit ray and link to the same
    point of it, so such an extension reaches no higher point of the ray.

    A step of the search makes no Python call for its successors: they are
    :func:`clockwise_successors`' three points, written out in the loop,
    filtered lazily by membership in the vertex's adjacency list.
    """
    adj = _route_adjacency(ws)
    start0, start1 = ws.pos2[ws.shield.i], ws.pos2[ws.shield.i + 1]
    is_goal = _goal_test(ws)

    def extension_reaches(onpath: set[Point], cur: Point, min_y: int) -> bool:
        seen = set(onpath)
        frontier = [cur]
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w in seen:
                    continue
                if is_goal(w) and w[1] > min_y:
                    return True
                seen.add(w)
                frontier.append(w)
        return False

    path = [start0, start1]
    onpath = {start0, start1}
    goal_prefix_ys: list[int] = []
    iters = [filter(adj[start1].__contains__, clockwise_successors(start0, start1))]
    prefix_marks = [0]  # how many goal-prefix heights were pushed at each depth
    nodes = 0

    def selected(cur: Point) -> bool:
        """Whether the path, ending at the goal ``cur``, passes the height filter."""
        y = cur[1]
        if any(py >= y for py in goal_prefix_ys):
            return False
        return not extension_reaches(onpath, cur, y)

    if is_goal(start1):
        if selected(start1):
            return tuple(path[1:])
        goal_prefix_ys.append(start1[1])
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
        # clockwise_successors(path[-1], nxt), most-right-turning first.
        cx, cy = nxt
        bx, by = path[-1][0] - cx, path[-1][1] - cy
        iters.append(filter(adj[nxt].__contains__,
                            ((cx - by, cy + bx), (cx - bx, cy - by), (cx + by, cy - bx))))
        path.append(nxt)
        onpath.add(nxt)
        prefix_marks.append(0)
        if is_goal(nxt):
            if selected(nxt):
                return tuple(path[1:])
            goal_prefix_ys.append(nxt[1])
            prefix_marks[-1] += 1
    raise EmptyRouteSet("no admissible route survives the endpoint-height filter")


def _assert_route_claims(ws: Workspace, route: tuple[Point, ...]) -> None:
    """Order and translate-containment claims on the selected route."""
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
    inner = _cut_from(ws.pos2, ws.walk, 2 * ws.shield.j + 1)
    if not inner.is_simple():
        raise ClaimViolation("inner-cut-simple", "inner cut self-intersects")
    moved = PolyCurve([add(u, ws.vector) for u in route])
    witness = curve_in_closed_right(moved, SideCache(inner))
    if witness is not None:
        raise ClaimViolation(
            "route-shift-inside-inner",
            f"east-shifted route leaves the inner component at {witness}")


def build_R(ws: Workspace, route: tuple[Point, ...]):
    """Tile the route, or construct the blocking certificate.

    Walking the route, the first position where the two translated path
    copies disagree on tile type yields a conflict; growing the prefix
    and the tiled route in the appropriate translation and then placing
    the other copy's tile there blocks the path.  Without a conflict the
    fully tiled route grows in both translations.
    """
    p, i, j = ws.path, ws.shield.i, ws.shield.j
    positions, types = p.positions, p.types
    v_tiles = (ws.vector[0] // 2, ws.vector[1] // 2)
    fam1, fam2 = ws.fam1, ws.fam2

    s0 = len(route)
    for s, u in enumerate(route):
        a, b = fam1.get(u), fam2.get(u)
        if a is not None and b is not None and types[a] != types[b]:
            s0 = s
            break

    tiled_types = []
    for u in route[:s0]:
        a = fam1.get(u)
        tiled_types.append(types[a if a is not None else fam2[u]])
    tiled = Path._of(tuple(map(_tile, route[:s0])), tuple(tiled_types))

    if s0 == len(route):
        for prefix_end, piece in ((i, tiled), (j, tiled.translate(v_tiles))):
            grown = Path._of(positions[: prefix_end + 1] + piece.positions,
                             types[: prefix_end + 1] + piece.types)
            rep = tam.validate_producible_path(ws.sys, grown)
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
        blocker_pos = positions[b_conf]
        cert = FragilityCert((*zip(positions[: j + 1], types), (blocker_pos, types[a_conf])),
                             blocker_pos)
        return tiled, (cert, "east-copy")

    prev = route[s0 - 1]
    b_prev = fam2.get(prev)
    if b_prev is not None and abs(fam2.get(conflict2, 10 ** 9) - b_prev) == 1:
        # Grow prefix..i plus the tiled route, then place the west copy's tile.
        cert = FragilityCert((*zip(positions[: i + 1], types),
                              *zip(tiled.positions, tiled.types),
                              (_tile(conflict2), types[b_conf])), _tile(conflict2))
        return tiled, (cert, "west-copy")
    a_prev = fam1.get(prev)
    if a_prev is not None and abs(a_conf - a_prev) == 1:
        # Grow prefix..j plus the east-shifted route, then the east copy's tile.
        east = tiled.translate(v_tiles)
        east_pos = add(_tile(conflict2), v_tiles)
        cert = FragilityCert((*zip(positions[: j + 1], types),
                              *zip(east.positions, east.types),
                              (east_pos, types[a_conf])), east_pos)
        return tiled, (cert, "east-copy")
    raise ClaimViolation("blocker-edge",
                         "conflict is reachable by neither translated copy")


def _anchor_pair(ws: Workspace, tiled: Path, m: int) -> tuple[int, int]:
    """Anchor pair of anchor tile ``m``: matching indices one period apart.

    The tiled route passes through the anchor tile; scanning backwards
    from there, the first route tile whose east translate is on the
    segment gives the pair ``(u, v)``.  Re-checked: the route carries the
    anchor with its type, ``i+1 <= u <= m <= v``, and ``u`` and ``v`` have
    equal tile types.  The scan starts at the anchor tile itself; the
    first anchor cannot qualify, as :func:`dominant`'s ``anchor-ray-clear``
    check keeps its translate off the segment.
    """
    p, vec, fam1 = ws.path, ws.vector, ws.fam1
    b = tiled.index_of(p.pos(m))
    if b is None:
        raise ClaimViolation("anchor-on-route", f"route misses anchor tile {m}")
    if tiled.type(b) != p.type(m):
        raise ClaimViolation("anchor-on-route", "route retypes the anchor tile")
    for s in range(b, -1, -1):
        start2 = _dbl(tiled.pos(s))
        v = fam1.get(add(start2, vec))
        if v is not None:
            break
    else:
        raise ClaimViolation("anchor-pair", "no route tile east-translates onto the segment")
    u = fam1.get(start2)
    if u is None:
        raise ClaimViolation("anchor-pair", "pair start is not a segment tile")
    if not (ws.shield.i + 1 <= u <= m <= v):
        raise ClaimViolation("anchor-pair",
                             f"pair order broken: i+1={ws.shield.i + 1} u={u} m={m} v={v}")
    if p.type(u) != p.type(v):
        raise ClaimViolation("anchor-pair", "pair tiles differ in type")
    return u, v


def initial_uv(ws: Workspace, dom: DominantInfo, tiled: Path) -> tuple[int, int]:
    """First anchor pair, with the stretch from its start to the anchor checked.

    Beyond :func:`_anchor_pair`'s checks, the east translate of the path
    stretch ``u0..m0`` stays in the upper part and meets the segment only
    at tile ``v0``.
    """
    u0, v0 = _anchor_pair(ws, tiled, dom.m0)
    stretch = PolyCurve([add(q, ws.vector) for q in ws.pos2[u0:dom.m0 + 1]])
    witness = curve_in_closed_right(stretch, dom.upper)
    if witness is not None:
        raise ClaimViolation("anchor-pair",
                             f"translated stretch leaves the upper part at {witness}")
    meet = {q for q in stretch.points if q in ws.fam1}
    if meet != {ws.pos2[v0]}:
        raise ClaimViolation("anchor-pair",
                             f"translated stretch meets the segment at {sorted(meet)}")
    return u0, v0


# -- the progress loop ----------------------------------------------------------


def _x_separation_periods(a: PolyCurve, b: PolyCurve, dx: int) -> int:
    """Periods after which translates of ``a`` sit strictly east of both curves."""
    ax0 = a.bbox()[0]
    bx1 = max(a.bbox()[2], b.bbox()[2])
    return max(0, (bx1 - ax0) // dx) + 2


def _check_step(ws: Workspace, u: int, m: int, v_: int, f: PolyCurve) -> str:
    """Verify the four induction conditions; detect the exit-seam escape.

    Returns "ok", or "special" when the translated stretch crosses the
    half step between the last segment tile and the exit glue, which
    certifies pumpability directly.
    """
    k, vec, cut, pos2 = ws.shield.k, ws.vector, ws.cut, ws.pos2
    if not f.is_simple():
        raise ClaimViolation("induction-h1", "frontier curve self-intersects")
    witness = curve_in_closed_right(f, ws.cache)
    if witness is not None:
        raise ClaimViolation("induction-h2",
                             f"frontier leaves the workspace at {witness}")
    anchor2 = pos2[m]
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
    gk = ws.exit2
    g = _cut(list(f.points), pos2, m + 1, gk)
    if not g.is_simple():
        raise ClaimViolation("induction-h4", "frontier extension self-intersects")
    want = pos2[v_]
    if add(pos2[u], vec) != want:
        raise ClaimViolation("induction-h4", "anchor pair is not one period apart")
    stretch = PolyCurve([add(q, vec) for q in pos2[u:m + 1]])
    inter_c = curve_intersection(stretch, cut)
    inter_g = curve_intersection(stretch, g)
    if inter_c is INFINITE_OVERLAP or inter_g is INFINITE_OVERLAP:
        raise ClaimViolation("induction-h4", "translated stretch overlaps a cut")
    # After an advance by one period the frontier ends with a translated
    # sub-segment of the very stretch checked here, so the stretch may run
    # along the frontier without crossing it; only meetings beyond the
    # frontier's own points are significant.
    extra_g = inter_g - set(f.lattice_points())

    if inter_c == {want} and extra_g <= {want}:
        if extra_g == inter_g:
            # The extension runs down the shifted frontier, back along the
            # shifted stretch to the pair's landing tile, then out the tail
            # of the cut.
            head = [add(q, vec) for q in f.points]
            head += [add(q, vec) for q in reversed(pos2[u:m])]
            if not _cut(head, pos2, v_ + 1, gk).is_simple():
                raise ClaimViolation("induction-h4", "frontier extension kinks")
        return "ok"
    seam = {want, gk}
    if (v_ == k and u + 1 < len(pos2) and add(pos2[u + 1], vec) == pos2[k + 1]
            and inter_c <= seam and extra_g <= seam):
        if sub(pos2[k + 1], pos2[k]) != (2, 0):
            raise ClaimViolation("special-exit", "seam crossing without east exit glue")
        return "special"
    raise ClaimViolation(
        "induction-h4",
        f"translated stretch meets cut at {sorted(inter_c)}, frontier at {sorted(inter_g)}")


def _find_next_anchor(ws: Workspace, u: int, m: int):
    """Largest pair (a, t), ordered by a then t, landing back on the segment."""
    fam1, vec = ws.fam1, ws.vector
    max_x = max(x for x, _ in fam1)
    for a in range(m, u - 1, -1):
        base = ws.pos2[a]
        t_hi = (max_x - base[0]) // vec[0] if vec[0] else 0
        for t in range(t_hi, 0, -1):
            target = add(base, scale(vec, t))
            m_next = fam1.get(target)
            if m_next is not None:
                return a, t, m_next
    raise ClaimViolation("induction-progress", "no translate lands on the segment")


def pump_or_block(sys: TileSystem, p: Path, sh: Shield,
                  budget: EnumBudget = EnumBudget(),
                  view: Optional[GlueView] = None) -> ShieldOutcome:
    """Decide a shield: produce a verified pumping or blocking certificate.

    The shield is re-validated first.  When ``j == k`` the two glues line
    up on one column and the segment between them repeats immediately.
    Otherwise the engine builds the shield's :class:`Workspace`, then the
    anchor, route and tiled route, and iterates the anchor advance until
    it stalls (pumpable) or a conflict materializes (fragile).  Both
    certificate kinds are passed through the matching independent
    verifier before being returned, together with the construction's
    :class:`ShieldTrace`.  ``view``, when given, is a prebuilt
    :class:`GlueView` of ``(sys, p)`` for the shield check.
    """
    check_shield(sys, p, sh.i, sh.j, sh.k, view)
    trace = ShieldTrace(sh)
    i, j, k = sh.i, sh.j, sh.k

    def pumpable(u: int, v_: int, branch: str) -> ShieldOutcome:
        spec = PumpingSpec(p, u, v_)
        res = tam.verify_pumpable_cert(sys, spec)
        if not res:
            raise ClaimViolation("certificate-verifies",
                                 f"pumping ({u},{v_}) rejected: {res.reason}")
        return ShieldOutcome("pumpable", sh, branch, trace, pumpable=spec)

    if j == k:
        return pumpable(i, j, "repeat-at-exit")

    ws = build_workspace(sys, p, sh)
    dom = dominant(ws)
    trace.m0 = dom.m0
    trace.carrier = (dom.carrier_num, dom.carrier_den)

    route = build_r(ws, budget)
    trace.route = route
    _assert_route_claims(ws, route)

    tiled, conflict = build_R(ws, route)
    if conflict is not None:
        cert, which = conflict
        res = tam.verify_fragile_cert(sys, p, cert)
        if not res:
            raise ClaimViolation("certificate-verifies",
                                 f"blocking cert rejected: {res.reason}")
        _assert_blocker_in_workspace(ws, cert)
        return ShieldOutcome("fragile", sh, f"route-conflict-{which}", trace,
                             fragile=cert, blocked_segment=(i + 1, k))

    u, v_ = initial_uv(ws, dom, tiled)
    m = dom.m0
    f = PolyCurve([ws.pos2[m]], south_ray=True)
    shift = 0
    vec = ws.vector

    # The anchor index strictly increases (claim induction-progress) and is a
    # segment index, at most k, so the loop returns within k - m0 + 1 steps.
    for _ in range(k - m + 1):
        status = _check_step(ws, u, m, v_, f)
        trace.history.append(InductionStep(u, m, v_, shift, f))
        if status == "special":
            return pumpable(u, v_, "exit-seam")
        a, t, m_next = _find_next_anchor(ws, u, m)
        if m_next == m:
            if not (m == v_ and t == 1 and a == u):
                raise ClaimViolation("pump-case-degenerate",
                                     f"stalled with a={a} t={t} m={m} v={v_}")
            return pumpable(u, v_, "anchor-stall")
        if not (m_next >= v_ >= m):
            raise ClaimViolation("induction-progress",
                                 f"anchor went backwards: m'={m_next} v={v_} m={m}")
        moved = scale(vec, t)
        tail = [add(q, moved) for q in reversed(ws.pos2[a:m])]
        f = PolyCurve([add(q, moved) for q in f.points] + tail, south_ray=True)
        shift += t
        u, v_ = _anchor_pair(ws, tiled, m_next)
        m = m_next
    raise ClaimViolation("induction-progress",
                         f"anchor still advancing after {k - dom.m0 + 1} steps")


def _assert_blocker_in_workspace(ws: Workspace, cert: FragilityCert) -> None:
    """Everything the certificate grows beyond the retained prefix stays inside."""
    prefix = set(ws.path.positions[: ws.shield.i + 1])
    for pos, _ in cert.attachments:
        if pos in prefix:
            continue
        if ws.cache.side(_dbl(pos)) is Side.LEFT:
            raise ClaimViolation("blocker-in-workspace",
                                 f"certificate tile at {pos} left the workspace")
