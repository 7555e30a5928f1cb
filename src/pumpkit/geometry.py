"""Exact integer geometry on the doubled lattice.

Everything in this module that has a position lives on a lattice whose
unit is *half* a tile edge: a tile centered at tile coordinates (x, y)
sits at the doubled point (2x, 2y), and the midpoint of the shared edge
between two adjacent tiles has exactly one odd doubled coordinate.  All
predicates below are computed with plain ints, so results are exact and
every geometric object is hashable.

The central object is :class:`PolyCurve`: an axis-aligned polyline on the
doubled lattice, optionally extended by an infinite vertical ray to the
south at its first vertex and one to the north at its last vertex.  A
simple curve with both rays cuts the plane into a left and a right
component; :func:`classify_side` decides membership by the parity of the
crossings between the curve and the south-west diagonal ray from the query
point, which needs no clipping window and no floating point.  Each curve
sorts, once, the x-coordinates where its finite part crosses every diagonal
line ``y - x = d``, so a query is one binary search in that line's list
plus a constant-time test per infinite ray (the slab idea behind planar
point location).  A curve's first side query checks its two preconditions
(both rays, simple) and builds its side record, one flat tuple of the
lattice set, the two ray starts, their diagonals and the diagonal table,
in O(|curve|); every later query is one set lookup, one dict lookup and
one binary search.  The table pays only for a curve that gets many
queries, so the shield engine asks through a :class:`SideCache`, which
answers a point outside the finite part's bounding box from the two rays
alone and builds the record only for a query inside the box.

A vertical ray is a curve's ``south_ray`` or ``north_ray``: a visibility
ray of a glue is the one-point curve at its midpoint with that ray, and a
ray standing alone is its start point and direction.
:meth:`PolyCurve.ray_hits` is the one query for where a ray meets a
curve's finite part; simplicity and :func:`curve_intersection` read it.

Most claims the engine checks say that a whole curve, a ray or a chain of
tiles and glues stays in one closed side of a cut.  :func:`walk_sides`
classifies such a unit-step walk with one query, at its first point, on
two exact facts: a unit step with both ends off a curve cannot cross it,
so the side is constant between consecutive curve points; and the open
interior of a unit step with one end on a simple curve meets the curve
only when the step runs along it, so :func:`step_side` decides the step
from the curve's two arms at that end, whether the step leaves the curve,
returns to it as a chord or runs along it.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import repeat
from typing import Optional, Sequence

from .errors import (
    EmptyPath,
    NonSimpleCurve,
    NotAdjacent,
    NotAlmostVertical,
    NotOnCurve,
)

Point = tuple[int, int]
Displacement = tuple[int, int]


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    ON = "on"


_LEFT, _RIGHT, _ON = Side.LEFT, Side.RIGHT, Side.ON


class Turn(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    SAME = "same"


def add(p: Point, v: Displacement) -> Point:
    return (p[0] + v[0], p[1] + v[1])


def sub(p: Point, q: Point) -> Displacement:
    return (p[0] - q[0], p[1] - q[1])


def scale(v: Displacement, c: int) -> Displacement:
    return (c * v[0], c * v[1])


def rot_cw(v: Displacement) -> Displacement:
    """Quarter turn clockwise (y axis pointing north)."""
    return (v[1], -v[0])


class PolyCurve:
    """Axis-aligned polyline on the doubled lattice, with optional rays.

    ``points`` are the vertices in curve order; consecutive vertices must
    differ by an axis-aligned doubled step, naturally of length 1 or 2
    (half or full tile edge) for curves built from paths and glues.
    ``south_ray``/``north_ray`` extend the curve to infinity below the
    first vertex / above the last vertex.

    Derived data is built once, on first use: the lattice points (as a
    tuple, as a set and as a point-to-position map), the simplicity flag,
    the bounding box and the :meth:`side_record` that side queries read.
    The lattice walk is the base of the rest: one pass over the segments
    builds it, and one pass over the walk builds the diagonal table, which
    the side record keeps.

    ``lattice`` is an internal path for a caller that already holds the
    lattice walk, such as a slice of a longer walk the curve runs along
    (the shield engine cuts its curves out of one glue walk per shield).
    Its precondition: it equals what :meth:`lattice_points` would build
    from ``points``, as a tuple.  It is not checked; it replaces the first
    pass and nothing else.
    """

    __slots__ = ("points", "south_ray", "north_ray", "_lattice", "_lattice_set",
                 "_index", "_simple", "_bbox", "_sides")

    def __init__(self, points: Sequence[Point], south_ray: bool = False,
                 north_ray: bool = False, *,
                 lattice: Optional[tuple[Point, ...]] = None):
        pts = tuple(points)
        if not pts:
            raise EmptyPath("a curve needs at least one vertex")
        for a, b in zip(pts, pts[1:]):
            dx, dy = b[0] - a[0], b[1] - a[1]
            if (dx == 0) == (dy == 0):
                raise ValueError(f"bad curve step {a} -> {b}")
        self.points = pts
        self.south_ray = south_ray
        self.north_ray = north_ray
        self._lattice = lattice
        self._lattice_set = None
        self._index = None
        self._simple = None
        self._bbox = None
        self._sides = None

    def __repr__(self):
        ray = ("S" if self.south_ray else "") + ("N" if self.north_ray else "")
        return f"PolyCurve({len(self.points)} pts{',' + ray if ray else ''})"

    def __eq__(self, other):
        return (
            isinstance(other, PolyCurve)
            and self.points == other.points
            and self.south_ray == other.south_ray
            and self.north_ray == other.north_ray
        )

    def __hash__(self):
        return hash((self.points, self.south_ray, self.north_ray))

    # -- derived data, computed lazily -------------------------------------

    def lattice_points(self) -> tuple[Point, ...]:
        """All doubled-lattice points of the finite part, in curve order.

        One pass over the segments adds each one's inner points, then its
        end.  Curves built from paths and glues step by half a tile edge
        (length 1) or a whole one (length 2), whose only inner point is its
        midpoint; longer segments add a range.
        """
        if self._lattice is None:
            pts = self.points
            walk = [pts[0]]
            for (ax, ay), b in zip(pts, pts[1:]):
                bx, by = b
                n = abs(bx - ax) + abs(by - ay)
                if n == 2:
                    walk.append(((ax + bx) >> 1, (ay + by) >> 1))
                elif n > 2:
                    if ax == bx:
                        step = 1 if by > ay else -1
                        walk.extend(zip(repeat(ax), range(ay + step, by, step)))
                    else:
                        step = 1 if bx > ax else -1
                        walk.extend(zip(range(ax + step, bx, step), repeat(ay)))
                walk.append(b)
            self._lattice = tuple(walk)
        return self._lattice

    def lattice_set(self) -> frozenset[Point]:
        if self._lattice_set is None:
            self._lattice_set = frozenset(self.lattice_points())
        return self._lattice_set

    def lattice_index(self) -> dict[Point, int]:
        """Position of each lattice point of the finite part in curve order."""
        if self._index is None:
            self._index = {q: n for n, q in enumerate(self.lattice_points())}
        return self._index

    @property
    def is_almost_vertical(self) -> bool:
        return self.south_ray and self.north_ray

    def is_simple(self) -> bool:
        """No doubled-lattice point is visited twice (rays included).

        For axis-aligned curves at this granularity, repeated lattice
        points are the only way two pieces can meet, so this is a complete
        self-intersection test.
        """
        if self._simple is None:
            ok = len(self.lattice_set()) == len(self.lattice_points())
            # Each ray may meet the finite part at its own start only.
            if ok and self.south_ray:
                ok = len(self.ray_hits(self.points[0], north=False)) == 1
            if ok and self.north_ray:
                ok = len(self.ray_hits(self.points[-1], north=True)) == 1
            # A tail/tail meeting of the two rays always implies one ray
            # passes a finite endpoint of the other, which the checks above
            # already caught; no separate ray/ray test is needed.
            self._simple = ok
        return self._simple

    def ray_hits(self, start: Point, north: bool) -> list[Point]:
        """Lattice points of the finite part on a vertical ray, in curve order.

        The ray runs from ``start`` (included) to the north when ``north``,
        else to the south.  This is the one query for where a ray, such as
        another curve's ``south_ray`` or ``north_ray``, meets a curve.
        """
        sx, sy = start
        if north:
            return [q for q in self.lattice_points() if q[0] == sx and q[1] >= sy]
        return [q for q in self.lattice_points() if q[0] == sx and q[1] <= sy]

    def bbox(self) -> tuple[int, int, int, int]:
        """(min_x, min_y, max_x, max_y) of the finite vertex set."""
        if self._bbox is None:
            xs = [p[0] for p in self.points]
            ys = [p[1] for p in self.points]
            self._bbox = (min(xs), min(ys), max(xs), max(ys))
        return self._bbox

    def diagonal_table(self) -> dict[int, list[int]]:
        """For each ``d``, the sorted x where the finite part crosses ``y - x = d``.

        With ``e = y - x`` at a point, a segment from a to b counts for
        every ``d`` in ``[min(e_a, e_b), max(e_a, e_b))``.  A vertex the
        line passes through is then counted once, and a vertex it only
        grazes twice or not at all, always at one x, so the parity of the
        crossings on either side of any x off the curve is exact.
        Segments are axis-aligned, so every crossing is a lattice point,
        and the rule adds up over the unit steps of the lattice walk: each
        step counts once, for the ``d`` of its corner with the larger x and
        the smaller y, at that x.  Lines the finite part misses have no key.
        Built afresh on each call; :meth:`side_record` keeps the one that
        side queries read.
        """
        table: dict[int, list[int]] = defaultdict(list)
        lat = self.lattice_points()
        for (ax, ay), (bx, by) in zip(lat, lat[1:]):
            x = ax if ax > bx else bx
            table[(ay if ay < by else by) - x].append(x)
        for xs in table.values():
            xs.sort()
        return dict(table)

    def side_record(self) -> tuple[frozenset[Point], int, int, int, int, int, int,
                                   dict[int, list[int]]]:
        """``(on, sx, sy, nx, ny, ds, dn, table)``, the flat record side queries read.

        ``on`` is the lattice set, ``(sx, sy)`` the first vertex (where the
        south ray starts), ``(nx, ny)`` the last one (where the north ray
        starts), ``ds = sy - sx`` and ``dn = ny - nx`` the diagonals ``y - x``
        of the two ray starts, and ``table`` the :meth:`diagonal_table`.
        Every query compares its own diagonal with both ray-start
        diagonals, so they are computed here, once per curve; the record is
        flat so that a query unpacks it in one step.

        Built once, after the two preconditions of a side query pass: both
        rays present and the curve simple.  A curve that fails either keeps
        no record, so every later query raises again.
        """
        if self._sides is None:
            _check_side_query(self)
            (sx, sy), (nx, ny) = self.points[0], self.points[-1]
            self._sides = (self.lattice_set(), sx, sy, nx, ny, sy - sx, ny - nx,
                           self.diagonal_table())
        return self._sides

    # Kept: the reference "on the curve" predicate of walk_sides' docstring and the tests.
    def contains(self, p: Point) -> bool:
        if p in self.lattice_set():
            return True
        if self.south_ray:
            sx, sy = self.points[0]
            if p[0] == sx and p[1] < sy:
                return True
        if self.north_ray:
            nx, ny = self.points[-1]
            if p[0] == nx and p[1] > ny:
                return True
        return False

    def translate(self, v: Displacement) -> "PolyCurve":
        return PolyCurve([add(p, v) for p in self.points],
                         self.south_ray, self.north_ray)


# -- side classification ----------------------------------------------------

def _check_side_query(curve: PolyCurve) -> None:
    """Raise unless ``curve`` has both rays, then unless it is simple."""
    if not (curve.south_ray and curve.north_ray):
        raise NotAlmostVertical("side classification needs both infinite rays")
    if not curve.is_simple():
        raise NonSimpleCurve("side classification needs a simple curve")


def classify_side(curve: PolyCurve, p: Point) -> Side:
    """Which side of a simple almost-vertical curve a lattice point is on.

    Points of the curve itself answer ``Side.ON``; otherwise the parity of
    crossings of the south-west diagonal ray decides (odd means RIGHT, as
    the far east is reachable from the right component).  Points east of
    the curve's easternmost extent therefore classify RIGHT.  The finite
    part's crossings are the x below p's own in the diagonal table's list
    for ``d = y - x`` at p; the south ray meets that line at its own x iff
    ``d`` is below ``y - x`` at the first vertex, and the north ray iff
    ``d`` is at least ``y - x`` at the last vertex (the table's half-open
    rule).  No crossing lies at p's own x, since it would be p itself.

    The first query checks the preconditions and builds the curve's
    :meth:`~PolyCurve.side_record` in O(|curve|); each later query unpacks
    that flat record once, with both ray-start diagonals in it, and is one
    set lookup, one dict lookup and one binary search.  The shield engine
    reaches this function through :meth:`SideCache.side` only for points
    inside the curve's bounding box, so its first such point pays for the
    record; points outside the box never come here.
    """
    record = curve._sides
    if record is None:
        record = curve.side_record()
    on, sx, sy, nx, ny, ds, dn, table = record
    if p in on:
        return _ON
    px, py = p
    # The rays run below the first vertex and above the last one.
    if px == sx and py < sy or px == nx and py > ny:
        return _ON
    d = py - px
    xs = table.get(d)
    crossings = bisect_left(xs, px) if xs else 0
    if d < ds and sx < px:
        crossings += 1
    if d >= dn and nx < px:
        crossings += 1
    return _RIGHT if crossings & 1 else _LEFT


def crossing_parity(curve: PolyCurve, p: Point, toward_ne: bool) -> int:
    """Parity (0 or 1) of crossings between the curve and a diagonal ray from p.

    The ray has direction (1, 1) when ``toward_ne`` else (-1, -1).  It stays
    so that tests can check the north-east count against ``classify_side``'s
    south-west one: off the curve the two always differ.  The north-east
    count reads the same flat side record: the table's crossings past p's
    x, plus each ray that the line through p meets east of p, told by the
    ray's start diagonal as in :func:`classify_side`.
    """
    side = classify_side(curve, p)
    if side is _ON:
        raise NotOnCurve("parity undefined for points on the curve")
    if not toward_ne:
        return 1 if side is _RIGHT else 0
    _, sx, _, nx, _, ds, dn, table = curve._sides
    px, py = p
    d = py - px
    xs = table.get(d, ())
    crossings = len(xs) - bisect_right(xs, px)
    if d < ds and sx > px:
        crossings += 1
    if d >= dn and nx > px:
        crossings += 1
    return crossings & 1


class SideCache:
    """Side classification against one fixed curve, for the shield engine.

    Building the cache checks the side-query preconditions (both rays, a
    simple curve) and keeps the two ray starts and the finite part's
    bounding box; it builds no side record.  :meth:`side` is the one query
    for lattice points, and :func:`walk_sides` asks it once per walk.

    Outside the box the rays alone decide: below it the curve is its south
    ray, which a row crosses once, at the first vertex's x, and the far
    east is RIGHT; above it, the north ray at the last vertex's x; east of
    it is RIGHT and west of it LEFT.  A point inside the box goes to
    :func:`classify_side`, whose first query builds the curve's side
    record and diagonal table.  So a curve the engine asks only about
    points outside its box, or none at all, never builds the O(|curve|)
    table.  It keeps no answers: few points are asked about twice.
    """

    __slots__ = ("curve", "_extent")

    def __init__(self, curve: PolyCurve):
        _check_side_query(curve)
        (sx, sy), (nx, ny) = curve.points[0], curve.points[-1]
        self.curve = curve
        self._extent = (sx, sy, nx, ny) + curve.bbox()

    def side(self, p: Point) -> Side:
        px, py = p
        sx, sy, nx, ny, x0, y0, x1, y1 = self._extent
        if py < y0:
            x = sx
        elif py > y1:
            x = nx
        elif x0 <= px <= x1:
            return classify_side(self.curve, p)
        else:
            return _RIGHT if px > x1 else _LEFT
        return _RIGHT if px > x else _LEFT if px < x else _ON


# Unit directions in clockwise order, from north.
_CLOCKWISE = {(0, 1): 0, (1, 0): 1, (0, -1): 2, (-1, 0): 3}


def step_side(curve: PolyCurve, a: Point, b: Point) -> Side:
    """Side of the open unit step from the curve point ``a`` to ``b``.

    ``curve`` is simple with both rays (a :class:`SideCache` checked it)
    and ``a`` lies on it, finite part or ray.  The curve's two arms through
    ``a`` go to its neighbours in :meth:`PolyCurve.lattice_index`; on a ray,
    or at an end of the finite part, an arm is vertical.  The step lies on
    the curve when ``b`` is one of those neighbours.  Otherwise its open
    interior is off the curve, since a unit step with one end on a simple
    lattice curve meets the curve's other points only at its far end, and
    the arms tell its side: the curve runs north, so the right side is
    the sector clockwise after the outgoing arm and before the incoming
    one.
    """
    ax, ay = a
    n = curve.lattice_index().get(a)
    if n is None:  # on a ray, past its start
        back, ahead = (ax, ay - 1), (ax, ay + 1)
    else:
        lat = curve.lattice_points()
        back = lat[n - 1] if n else (ax, ay - 1)
        ahead = lat[n + 1] if n + 1 < len(lat) else (ax, ay + 1)
    if b == back or b == ahead:
        return _ON
    out = _CLOCKWISE[(ahead[0] - ax, ahead[1] - ay)]
    inc = (_CLOCKWISE[(back[0] - ax, back[1] - ay)] - out) & 3
    return _RIGHT if (_CLOCKWISE[(b[0] - ax, b[1] - ay)] - out) & 3 < inc else _LEFT


def walk_sides(cache: SideCache, walk: Sequence[Point],
               steps: bool = False) -> list[Side]:
    """Side of every point of a unit-step lattice walk, one query per walk.

    Two exact facts about the simple almost-vertical curve ``cache.curve``
    (on it means :meth:`PolyCurve.contains`, which covers the finite part
    and both rays) make this cheap:

    - *Steps off the curve.*  A unit step between two lattice points that
      are both off the curve cannot cross it: the curve runs along lattice
      lines between lattice points, so it could only meet the step's open
      interior along the whole step, ends included.  So along a walk the
      side is constant between two consecutive curve points.  The open
      interior of a step with one end off the curve lies on that end's
      side.
    - *Steps from the curve.*  :func:`step_side` decides a step with one
      end on the curve from the curve's two arms at that end.  So the
      step after every contact, and the stretch it starts, needs no
      query, and neither does a step with both ends on the curve, which
      runs along it or is a chord whose open interior is off it.

    Only a first point off the curve costs a :meth:`SideCache.side` query.
    The on-curve test of every walk point reads the curve's
    :meth:`~PolyCurve.lattice_index` and the cache's two ray starts.  The
    index also decides a step between two points of the finite part that
    are next to each other in it: the step runs along the curve, so it is
    ON, which is :func:`step_side`'s own first test, made without the call.
    A walk along the curve thus makes no :func:`step_side` call; a chord,
    a step on a ray and a step leaving the curve make one each.

    Returns one side per walk point; with ``steps``, the sides of the walk
    points and of the step interiors alternate (``2n - 1`` entries for
    ``n`` points).
    """
    ON = Side.ON
    curve = cache.curve
    index = curve.lattice_index().get
    sx, sy, nx, ny = cache._extent[:4]
    out = []
    last = prev = at = None  # side of the previous point, that point, its index
    for q in walk:
        n = index(q)
        if n is not None or q[0] == sx and q[1] < sy or q[0] == nx and q[1] > ny:
            side = ON
        elif last is None:
            side = cache.side(q)  # the walk's first point
        elif last is ON:
            side = step_side(curve, prev, q)  # a stretch leaving the curve
        else:
            side = last
        if steps and prev is not None:
            if last is not ON:
                out.append(last)
            elif side is not ON:
                out.append(side)
            elif n is not None and at is not None and (n - at == 1 or at - n == 1):
                out.append(ON)  # a step along the finite part
            else:
                out.append(step_side(curve, prev, q))
        out.append(side)
        last, prev, at = side, q, n
    return out


def _walk_witness(cache: SideCache, walk: Sequence[Point]) -> Optional[Point]:
    """First LEFT point of a unit-step walk; failing that, the first chord leaving.

    A chord witness is the south or west end of the chord.
    """
    sides = walk_sides(cache, walk, steps=True)
    point_sides = sides[::2]
    if Side.LEFT in point_sides:
        return walk[point_sides.index(Side.LEFT)]
    if Side.LEFT in sides:
        n = sides.index(Side.LEFT) // 2
        a, b = walk[n], walk[n + 1]
        return ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
    return None


def curve_in_closed_right(sub: PolyCurve, cache: SideCache) -> Optional[Point]:
    """First witness point of ``sub`` outside the closed right side, if any.

    The finite part's lattice points are one unit-step walk, classified by
    :func:`walk_sides`, chords included, since a chord may leave the
    region without touching any lattice point strictly.  The
    witness is the first LEFT lattice point in curve order; failing that,
    the south or west end of the first chord that leaves the region.
    Infinite ray tails, from their start, are walked the same way down to
    (up to) two below (above) the boundary's finite part.  Past that only
    the boundary's own ray remains: strictly east of it is RIGHT, on it is
    ON, west of it is LEFT, so the tail's last point has the side of the
    rest of the ray.
    """
    witness = _walk_witness(cache, sub.lattice_points())
    box = cache.curve.bbox()
    if witness is None and sub.south_ray:
        sx, sy = sub.points[0]
        witness = _walk_witness(cache, [(sx, y) for y in range(min(sy, box[1]) - 2, sy + 1)])
    if witness is None and sub.north_ray:
        nx, ny = sub.points[-1]
        witness = _walk_witness(cache, [(nx, y) for y in range(ny, max(ny, box[3]) + 3)])
    return witness


# -- curve/curve intersections ----------------------------------------------

INFINITE_OVERLAP = object()


def _rays(curve: PolyCurve) -> list[tuple[Point, bool]]:
    """``(start, north)`` for each infinite ray of a curve."""
    rays = []
    if curve.south_ray:
        rays.append((curve.points[0], False))
    if curve.north_ray:
        rays.append((curve.points[-1], True))
    return rays


def curve_intersection(a: PolyCurve, b: PolyCurve):
    """Lattice points shared by two curves, or INFINITE_OVERLAP.

    Since all segments are axis-aligned with doubled-integer endpoints,
    two curves can only meet at lattice points or along shared segments,
    and a shared segment always contains at least two lattice points; the
    returned set is therefore a faithful picture of the intersection
    whenever it is used to check "at most/exactly one meeting point".
    Overlapping infinite rays report INFINITE_OVERLAP.
    """
    pts = set(a.lattice_set() & b.lattice_set())
    rays_a, rays_b = _rays(a), _rays(b)
    for start, north in rays_a:
        pts.update(b.ray_hits(start, north))
    for start, north in rays_b:
        pts.update(a.ray_hits(start, north))
    for sa, north_a in rays_a:
        for sb, north_b in rays_b:
            if sa[0] != sb[0]:
                continue
            if north_a == north_b:
                return INFINITE_OVERLAP
            north_y = sa[1] if north_a else sb[1]
            south_y = sb[1] if north_a else sa[1]
            overlap = south_y - north_y + 1
            if overlap > 2:
                return INFINITE_OVERLAP
            for y in range(north_y, south_y + 1):
                pts.add((sa[0], y))
    return pts


# -- path turns ---------------------------------------------------------------

def turn_right_of_path(prev: Point, cur: Point, taken: Point,
                       candidate: Point) -> Turn:
    """Order two candidate continuations of a path at ``cur`` clockwise.

    ``prev`` is the point the path arrived from.  The three possible
    steps out of ``cur`` (everything but going back) are ranked clockwise
    starting just after the back direction; ``candidate`` is RIGHT of
    ``taken`` when it comes later in that ranking.
    """
    back = sub(prev, cur)
    step_taken = sub(taken, cur)
    step_cand = sub(candidate, cur)
    mag = abs(back[0]) + abs(back[1])
    for name, step in (("prev/cur", back), ("taken", step_taken),
                       ("candidate", step_cand)):
        if (step[0] == 0) == (step[1] == 0) or abs(step[0]) + abs(step[1]) != mag:
            raise NotAdjacent(f"{name} is not a grid step of matching length")
    if step_taken == back or step_cand == back:
        raise NotAdjacent("taken/candidate may not double back to prev")
    if step_cand == step_taken:
        return Turn.SAME
    order = (rot_cw(back), rot_cw(rot_cw(back)), rot_cw(rot_cw(rot_cw(back))))
    return Turn.RIGHT if order.index(step_cand) > order.index(step_taken) else Turn.LEFT


def clockwise_successors(prev: Point, cur: Point) -> list[Point]:
    """Candidate next points from ``cur``, most-right-turning first.

    Step length matches the incoming step ``prev -> cur``.  With the back
    step ``(bx, by) = prev - cur``, the three steps that do not go back are
    its quarter turns clockwise, ``(by, -bx)``, ``(-bx, -by)`` and
    ``(-by, bx)``, and :func:`turn_right_of_path` ranks a later turn as more
    to the right; so the list is the third, the second, then the first,
    each written out as arithmetic.  :func:`~pumpkit.shield.build_r` inlines
    the same three expressions in its search loop.
    """
    cx, cy = cur
    bx, by = prev[0] - cx, prev[1] - cy
    return [(cx - by, cy + bx), (cx - bx, cy - by), (cx + by, cy - bx)]
