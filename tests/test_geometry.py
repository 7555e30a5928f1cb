"""Exact-geometry layer: plane sides, turns, lattice walks."""

import random
import time
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpkit import shield
from pumpkit.budgets import EnumBudget
from pumpkit.errors import (
    NonSimpleCurve,
    NotAlmostVertical,
    NotOnCurve,
)
from pumpkit.geometry import (
    PolyCurve,
    Side,
    Turn,
    classify_side,
    clockwise_successors,
    crossing_parity,
    curve_in_closed_right,
    turn_right_of_path,
    walk_sides,
    SideCache,
)
from pumpkit.oracle import FloodFill, doubled

from conftest import HAND_MADE, _recorded, _short_walks, random_curve


def vertical_line(x=1):
    return PolyCurve([(x, 0)], south_ray=True, north_ray=True)


def test_classify_straight_cut():
    c = vertical_line(1)
    assert classify_side(c, (4, 0)) is Side.RIGHT
    assert classify_side(c, (-4, 0)) is Side.LEFT
    assert classify_side(c, (1, 7)) is Side.ON
    assert classify_side(c, (1, -7)) is Side.ON


def assert_side_check_fails(curve, error):
    """A curve that fails a side-query precondition keeps no side record.

    So a second query raises again, and so does a cache built on the curve.
    """
    for _ in range(2):
        with pytest.raises(error):
            classify_side(curve, (1, 1))
    with pytest.raises(error):
        SideCache(curve)


def test_classify_needs_rays():
    assert_side_check_fails(PolyCurve([(0, 0), (2, 0)]), NotAlmostVertical)
    assert_side_check_fails(PolyCurve([(0, 0), (2, 0)], south_ray=True), NotAlmostVertical)
    # The rays are checked first: a curve that also crosses itself says so.
    assert_side_check_fails(PolyCurve([(0, 0), (2, 0), (2, 2), (0, 2), (0, -2)]),
                            NotAlmostVertical)


def test_classify_rejects_non_simple():
    c = PolyCurve([(0, 0), (2, 0), (2, 2), (0, 2), (0, -2)],
                  south_ray=True, north_ray=True)
    assert not c.is_simple()
    assert_side_check_fails(c, NonSimpleCurve)


def test_classify_matches_floodfill_random():
    rng = random.Random(7)
    for _ in range(30):
        curve = random_curve(rng)
        x0, y0, x1, y1 = curve.bbox()
        window = (x0 - 3, y0 - 3, x1 + 3, y1 + 3)
        fill = FloodFill(curve, window)
        for _ in range(30):
            p = (rng.randrange(window[0], window[2] + 1),
                 rng.randrange(window[1], window[3] + 1))
            assert classify_side(curve, p) is fill.side(p)


def test_parity_duality():
    # Off-curve points sit on exactly one side: the two diagonal rays
    # disagree in parity.
    rng = random.Random(11)
    for _ in range(20):
        curve = random_curve(rng, corners=6)
        for _ in range(40):
            p = (rng.randrange(-30, 31), rng.randrange(-30, 31))
            if curve.contains(p):
                continue
            ne = crossing_parity(curve, p, toward_ne=True)
            sw = crossing_parity(curve, p, toward_ne=False)
            assert ne != sw


def walk_parity(curve, p, toward_ne):
    """Reference: crossing parity from one walk over every vertex, O(|curve|).

    The ray has direction (1, 1) when ``toward_ne`` else (-1, -1).  The
    point p must not lie on the curve.  A crossing is a sign change of the
    vertex sequence relative to the diagonal line through p; a vertex the
    line merely grazes (both neighbours on the same side) does not count.
    Because curve segments are axis-aligned and the diagonal is not, every
    meeting point is an exact lattice point, and no two consecutive
    vertices can both lie on the line.
    """
    px, py = p
    verts = list(curve.points)
    if curve.south_ray:
        sx, sy = verts[0]
        reach = abs(sy - py) + abs(sx - px) + 2
        verts.insert(0, (sx, sy - reach))
    if curve.north_ray:
        nx, ny = verts[-1]
        reach = abs(ny - py) + abs(nx - px) + 2
        verts.append((nx, ny + reach))

    def on_ray(q):
        t = q[0] - px
        return t > 0 if toward_ne else t < 0

    crossings = 0
    last_sign = 0
    pending_zero: Optional[tuple[int, int]] = None
    for q in verts:
        s = (q[1] - py) - (q[0] - px)
        if s == 0:
            pending_zero = q
            continue
        sign = 1 if s > 0 else -1
        if last_sign != 0 and sign != last_sign:
            if pending_zero is not None:
                if on_ray(pending_zero):
                    crossings += 1
            else:
                # The meeting point is interior to the last segment; its
                # coordinates follow from the segment's fixed axis.
                a = prev_vert
                b = q
                if a[1] == b[1]:
                    meet = (px + (a[1] - py), a[1])
                else:
                    meet = (a[0], py + (a[0] - px))
                if on_ray(meet):
                    crossings += 1
        last_sign = sign
        pending_zero = None
        prev_vert = q
    return crossings & 1


def assert_parity_matches_walk(curve, margin=3):
    """Table parity equals the walk at every off-curve point near the curve.

    ``classify_side`` and a ``SideCache`` must agree with the walk at every
    window point: ``ON`` on the curve, otherwise the south-west parity.
    """
    x0, y0, x1, y1 = curve.bbox()
    cache = SideCache(curve)
    checked = 0
    for x in range(x0 - margin, x1 + margin + 1):
        for y in range(y0 - margin, y1 + margin + 1):
            q = (x, y)
            if curve.contains(q):
                want = Side.ON
            else:
                for toward_ne in (False, True):
                    assert (crossing_parity(curve, q, toward_ne)
                            == walk_parity(curve, q, toward_ne)), (curve.points, q)
                want = Side.RIGHT if walk_parity(curve, q, False) else Side.LEFT
                checked += 1
            assert classify_side(curve, q) is want, (curve.points, q)
            assert cache.side(q) is want, (curve.points, q)
    return checked


def test_table_parity_matches_walk_random_staircases():
    rng = random.Random(13)
    for _ in range(40):
        assert_parity_matches_walk(random_curve(rng, corners=rng.randrange(1, 9)))


@pytest.mark.parametrize("pts", HAND_MADE)
def test_table_parity_matches_walk_hand_made(pts):
    curve = PolyCurve(pts, south_ray=True, north_ray=True)
    assert curve.is_simple()
    assert assert_parity_matches_walk(curve) > 0


def test_table_parity_matches_walk_scaled():
    # The step references classify quadrupled step midpoints against the
    # doubled curve, whose table is built separately.
    rng = random.Random(17)
    curves = [PolyCurve(pts, south_ray=True, north_ray=True) for pts in HAND_MADE]
    curves += [random_curve(rng, corners=5) for _ in range(10)]
    for curve in curves:
        assert_parity_matches_walk(doubled(curve))


def test_table_parity_matches_walk_on_engine_curves(monkeypatch):
    # The curves pump_or_block cuts regions with, captured on short sampled walks.
    captured = []
    monkeypatch.setattr(shield, "SideCache", _recorded(shield.SideCache, captured))
    budget = EnumBudget(max_path_len=10, max_nodes=600)
    for sys_, p in _short_walks(random.Random(29), 400, 10):
        late = [s for s in shield.enumerate_shields(sys_, p) if s.j < s.k]
        if late:
            shield.pump_or_block(sys_, p, late[0], budget)
    assert len(captured) >= 25
    for curve in {cache.curve for _, cache in captured}:
        assert_parity_matches_walk(curve)
        assert_parity_matches_walk(doubled(curve), margin=2)


LONG_CURVE_SECONDS = 1.0


def test_long_curve_window_cost():
    # A 41x41 window against a staircase of about 5,000 vertices.  Walking
    # the whole curve per query takes seconds; one table per curve and a
    # binary search per query stay well inside the budget.
    rng = random.Random(43)
    curve = random_curve(rng, corners=2500)
    assert len(curve.points) > 5000
    cx, cy = curve.points[len(curve.points) // 2]
    window = [(x, y) for x in range(cx - 20, cx + 21) for y in range(cy - 20, cy + 21)]
    start = time.perf_counter()
    sides = {q: classify_side(curve, q) for q in window}
    elapsed = time.perf_counter() - start
    assert elapsed < LONG_CURVE_SECONDS, elapsed
    assert {Side.LEFT, Side.RIGHT} <= set(sides.values())
    for q in rng.sample(window, 60):
        if sides[q] is not Side.ON:
            want = Side.RIGHT if walk_parity(curve, q, toward_ne=False) else Side.LEFT
            assert sides[q] is want


def test_parity_on_curve_rejected():
    with pytest.raises(NotOnCurve):
        crossing_parity(vertical_line(), (1, 3), True)


def test_parity_needs_rays():
    with pytest.raises(NotAlmostVertical):
        crossing_parity(PolyCurve([(0, 0), (2, 0)], south_ray=True), (1, 5), True)


def test_components_nonempty_and_connected():
    rng = random.Random(23)
    for _ in range(10):
        curve = random_curve(rng, corners=5)
        x0, y0, x1, y1 = curve.bbox()
        window = (x0 - 3, y0 - 3, x1 + 3, y1 + 3)
        fill = FloodFill(curve, window)
        inside = [
            (x, y)
            for x in range(window[0], window[2] + 1)
            for y in range(window[1], window[3] + 1)
        ]
        lefts = [p for p in inside if fill.side(p) is Side.LEFT]
        rights = [p for p in inside if fill.side(p) is Side.RIGHT]
        assert lefts and rights


def test_south_ray_east_of_curve_ray_is_right():
    # Closing fact: a south ray strictly east of the curve's own south ray
    # and disjoint from the curve lies in the right component.
    rng = random.Random(31)
    for _ in range(20):
        curve = random_curve(rng, corners=5)
        sx = curve.points[0][0]
        x = curve.bbox()[2] + 1 + rng.randrange(3)
        if x <= sx:
            continue
        probe = PolyCurve([(x, curve.bbox()[1] - 1)], south_ray=True)
        assert curve_in_closed_right(probe, SideCache(curve)) is None


def test_north_ray_probes_match_floodfill():
    # Short walks that end in a north ray, and some that also start in a
    # south ray, against a flood fill of the curve at half resolution: a
    # probe lies in the closed right side exactly when no point of its
    # quadrupled walk (lattice points, step midpoints and the rays up to
    # the window's edge) is LEFT.  Ray tails cross the curve, touch it and
    # leave it by chords between two of its points.
    rng = random.Random(37)
    ray_witnesses = kept = chords = 0
    for _ in range(30):
        curve = random_curve(rng, corners=5)
        x0, y0, x1, y1 = curve.bbox()
        window = (2 * x0 - 20, 2 * y0 - 20, 2 * x1 + 20, 2 * y1 + 20)
        fill = FloodFill(doubled(curve), window)
        cache = SideCache(curve)
        for _ in range(20):
            walk = [(rng.randrange(x0 - 2, x1 + 3), rng.randrange(y0 - 2, y1 + 3))]
            for _ in range(rng.randrange(4)):
                dx, dy = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
                walk.append((walk[-1][0] + dx, walk[-1][1] + dy))
            south = rng.random() < 0.3
            probe = PolyCurve(walk, south_ray=south, north_ray=True)
            pts = probe.lattice_points()
            quad = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(pts, pts[1:])]
            quad += [(2 * x, 2 * y) for x, y in pts]
            (sx, sy), (nx, ny) = pts[0], pts[-1]
            quad += [(2 * nx, y) for y in range(2 * ny + 1, window[3] + 1)]
            if south:
                quad += [(2 * sx, y) for y in range(window[1], 2 * sy)]
            inside = all(fill.side(q) is not Side.LEFT for q in quad)
            got = curve_in_closed_right(probe, cache)
            assert (got is None) == inside, (curve.points, walk, south)
            kept += inside
            if got is not None and got[0] == nx and got[1] >= ny:
                # A LEFT point, or the south end of a chord that leaves.
                gx, gy = 2 * got[0], 2 * got[1]
                assert Side.LEFT in (fill.side((gx, gy)), fill.side((gx, gy + 1)))
                ray_witnesses += 1
                chords += fill.side((gx, gy)) is Side.ON
    assert kept > 50 and ray_witnesses > 50 and chords > 0


# -- turns ---------------------------------------------------------------------

def test_turn_examples():
    prev, cur = (0, 0), (0, 2)
    east, west = (2, 2), (-2, 2)
    assert turn_right_of_path(prev, cur, taken=east, candidate=west) is Turn.LEFT
    assert turn_right_of_path(prev, cur, taken=west, candidate=east) is Turn.RIGHT
    assert turn_right_of_path(prev, cur, taken=east, candidate=east) is Turn.SAME


def test_turn_requires_adjacency():
    with pytest.raises(Exception):
        turn_right_of_path((0, 0), (0, 2), (4, 2), (0, 4))


_STEPS = [(2, 0), (-2, 0), (0, 2), (0, -2)]


@given(st.sampled_from(_STEPS),
       st.permutations([s for s in _STEPS]))
@settings(max_examples=50)
def test_turn_total_order(back, candidates):
    cur = (0, 0)
    prev = (back[0], back[1])
    options = [c for c in candidates if c != back]
    pts = [(c[0], c[1]) for c in options]
    # Antisymmetric and transitive on the three possible continuations.
    for a in pts:
        for b in pts:
            if a == b:
                continue
            ab = turn_right_of_path(prev, cur, taken=b, candidate=a)
            ba = turn_right_of_path(prev, cur, taken=a, candidate=b)
            assert {ab, ba} == {Turn.LEFT, Turn.RIGHT}
    ranked = sorted(
        pts,
        key=lambda c: sum(
            turn_right_of_path(prev, cur, taken=o, candidate=c) is Turn.RIGHT
            for o in pts if o != c))
    for lo, hi in zip(ranked, ranked[1:]):
        assert turn_right_of_path(prev, cur, taken=lo, candidate=hi) is Turn.RIGHT


def test_clockwise_successors_follow_the_turn_order():
    # turn_right_of_path is the independent definition of the order the
    # route search tries successors in: most-right-turning first.
    for length in (1, 2):
        for ux, uy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            cur = (5, -3)
            prev = (cur[0] - length * ux, cur[1] - length * uy)  # arriving along (ux, uy)
            got = clockwise_successors(prev, cur)
            steps = {(cur[0] + length * dx, cur[1] + length * dy)
                     for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))}
            assert len(got) == 3 and set(got) == steps - {prev}, (prev, cur, got)
            for right, left in zip(got, got[1:]):
                assert turn_right_of_path(prev, cur, taken=left, candidate=right) is Turn.RIGHT
            # The first is a right turn off the incoming step.
            assert got[0] == (cur[0] + length * uy, cur[1] - length * ux)


# -- departures ------------------------------------------------------------------

def first_departure(d: PolyCurve, c: PolyCurve):
    """First place where curve ``d`` leaves curve ``c``, with the side entered.

    Returns ``None`` when ``d`` never leaves ``c``; otherwise a pair
    ``(index, side)`` where ``index`` counts unit lattice steps along
    ``d``.  When a step leaves ``c`` only through its interior (both
    endpoints on ``c``), the index of the step's far end is reported and
    the side is measured at the step midpoint.  The tests below check
    ``walk_sides(steps=True)`` through it against ``classify_side``.
    """
    cache = SideCache(c)
    pts = d.lattice_points()
    if not c.contains(pts[0]):
        raise NotOnCurve("d does not start on c")
    # A step's interior is off c whenever its far end is, so the first
    # entry off c is always a step interior, and it has the far end's side.
    for n, side in enumerate(walk_sides(cache, pts, steps=True)):
        if side is not Side.ON:
            return (n + 1) // 2, side
    return None


def test_departure_none_on_shared_prefix():
    c = PolyCurve([(1, 0), (1, 2), (3, 2)], south_ray=True, north_ray=True)
    d = PolyCurve([(1, 0), (1, 2)])
    assert first_departure(d, c) is None


def test_departure_east_is_right():
    c = vertical_line(1)
    d = PolyCurve([(1, 0), (3, 0)])
    idx, side = first_departure(d, c)
    assert idx == 1 and side is Side.RIGHT


def test_departure_requires_start_on_curve():
    with pytest.raises(NotOnCurve):
        first_departure(PolyCurve([(5, 5), (7, 5)]), vertical_line(1))


def test_departure_agrees_with_classify():
    rng = random.Random(41)
    for _ in range(40):
        c = random_curve(rng, corners=5)
        start = c.points[rng.randrange(len(c.points))]
        step = rng.choice(_STEPS)
        d = PolyCurve([start, (start[0] + step[0], start[1] + step[1])])
        got = first_departure(d, c)
        if got is None:
            continue
        idx, side = got
        probe = d.lattice_points()[idx]
        expect = classify_side(c, probe)
        if expect is not Side.ON:
            assert side is expect
