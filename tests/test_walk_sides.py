"""Walk classification and the step rule against per-point references.

``geometry.walk_sides`` asks one side query per walk, at its first point,
and decides the step after every contact with the boundary by
``geometry.step_side``, from the boundary's two arms at the contact.  The
references share no side rule with that code: ``oracle.walk_sides_by_point``
classifies every point with ``classify_side`` and every step's open
interior at its midpoint, with ``classify_side`` against the doubled
boundary.  An inline per-point ``curve_in_closed_right`` gives the
witnesses the engine must reproduce exactly, on the curves the engine
checks over criterion 9's corpus and on seeded random curves with walks
that run along the boundary, touch it, cross it and jump across it by
chords.  The oracle's ``route_problem``, built from the definitions the
same way, gives the cut, the route graph and the goals each shield's
workspace must equal: on the recorded engine pass, and on the workspaces
``analyze`` builds for seeded 40-150-tile walks, where the route search
does its longest work, together with every lattice walk a workspace
hands out.  ``SideCache.side``, which answers points outside a curve's
box from its rays, is checked against ``classify_side`` on windows
around the same curves, and two guards count the work the cut family
skips: diagonal tables for curves asked nothing inside their box, and
``step_side`` calls for steps along the curve.
"""

import random
import time

import pytest

from pumpkit import driver, formats, geometry, oracle, shield
from pumpkit.geometry import (PolyCurve, Side, SideCache, classify_side, step_side,
                              walk_sides)
from pumpkit.oracle import doubled, walk_sides_by_point

from conftest import HAND_MADE, _producible_walks, _recorded, random_curve

REFERENCE_SECONDS = 5.0  # per test case; each takes 0.3 to 2.5 s on a 2-core machine
LONG_WALKS = 1000  # seeded producible walks of 40-150 tiles; 52 reach a workspace

_UNIT = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def reference_walk_witness(curve, scaled, pts):
    """First LEFT point of a walk, else the south or west end of the first chord leaving.

    ``scaled`` is ``doubled(curve)``, against which step midpoints are
    classified in quadrupled coordinates.
    """
    for q in pts:
        if classify_side(curve, q) is Side.LEFT:
            return q
    for a, b in zip(pts, pts[1:]):
        if classify_side(scaled, (a[0] + b[0], a[1] + b[1])) is Side.LEFT:
            return ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
    return None


def reference_curve_in_closed_right(sub, curve):
    """``curve_in_closed_right`` with one side query per point and per step.

    The finite part, then each ray tail from its start to two past the
    boundary's finite part, is checked point by point and step by step;
    past that, a ray west of the boundary's own ray leaves the region.
    """
    scaled = doubled(curve)
    witness = reference_walk_witness(curve, scaled, sub.lattice_points())
    if witness is not None:
        return witness
    if sub.south_ray:
        sx, sy = sub.points[0]
        bx, by = curve.points[0]
        floor = min(sy, curve.bbox()[1]) - 2
        witness = reference_walk_witness(curve, scaled,
                                         [(sx, y) for y in range(floor, sy + 1)])
        if witness is not None:
            return witness
        if sx < bx:
            return (sx, floor - 2)
    if sub.north_ray:
        nx, ny = sub.points[-1]
        bx, by = curve.points[-1]
        ceil_ = max(ny, curve.bbox()[3]) + 2
        witness = reference_walk_witness(curve, scaled,
                                         [(nx, y) for y in range(ny, ceil_ + 1)])
        if witness is not None:
            return witness
        if nx < bx:
            return (nx, ceil_ + 2)
    return None


def assert_route_inputs_match(ws):
    """The cut, the route graph and the goals of ``ws`` equal the oracle's."""
    cut, _, adj, want = oracle.route_problem(ws.sys, ws.path, ws.shield)
    assert cut == ws.cut and cut.lattice_points() == ws.cut.lattice_points()
    assert shield._route_adjacency(ws) == adj
    is_goal = shield._goal_test(ws)
    assert all(is_goal(u) is want(u) for u in adj)


def fresh_lattice(curve):
    """The lattice walk of ``curve``'s vertices, recomputed by a new curve."""
    return PolyCurve(curve.points).lattice_points()


def assert_workspace_lattices(ws):
    """The glue walk and every cut cut out of it equal fresh lattice walks.

    The walk's slices are the lattices of the cut family: the shield cut
    (from glue i), the anchor split (from a tile), the inner cut (from
    glue j), so every start from glue i on is checked, and the prefix
    walk ``build_workspace`` classifies.
    """
    i, _, k = ws.shield
    assert ws.walk == PolyCurve(ws.pos2).lattice_points()
    assert ws.walk[:2 * i + 1] == PolyCurve(ws.pos2[:i + 1]).lattice_points()
    for start in range(2 * i + 1, 2 * k + 1):
        cut = shield._cut_from(ws.pos2, ws.walk, start)
        assert cut.lattice_points() == fresh_lattice(cut), (ws.shield, start)


def assert_walks_match(curve, walks):
    scaled = doubled(curve)
    for walk in walks:
        got = walk_sides(SideCache(curve), walk, steps=True)
        assert got == walk_sides_by_point(curve, scaled, walk), (curve.points, walk)
        assert walk_sides(SideCache(curve), walk) == got[::2]


def assert_witness_matches(sub, curve):
    want = reference_curve_in_closed_right(sub, curve)
    assert geometry.curve_in_closed_right(sub, SideCache(curve)) == want, (
        curve.points, sub.points, sub.south_ray, sub.north_ray)
    return want


def _random_walk(rng, start, n):
    walk = [start]
    for _ in range(n):
        dx, dy = rng.choice(_UNIT)
        walk.append((walk[-1][0] + dx, walk[-1][1] + dy))
    return walk


def _chord_walks(curve):
    """Two-point walks from each finite lattice point to a curve point beside it.

    Apart from the steps between consecutive lattice points, which are
    left out, these are the chords, and the steps down the south ray or
    up the north ray from their start.
    """
    index = curve.lattice_index()
    out = []
    for q, n in index.items():
        for dx, dy in _UNIT:
            w = (q[0] + dx, q[1] + dy)
            m = index.get(w)
            if m is None and curve.contains(w) or m is not None and abs(m - n) != 1:
                out.append([q, w])
    return out


def _along(rng, curve):
    """A walk along a stretch of the curve, stepping off it and back now and then."""
    pts = curve.lattice_points()
    a = rng.randrange(len(pts))
    b = rng.randrange(a, min(len(pts), a + 30))
    walk = [pts[a]]
    for q in pts[a + 1:b + 1]:
        if rng.random() < 0.15:
            dx, dy = rng.choice(_UNIT)
            off = (walk[-1][0] + dx, walk[-1][1] + dy)
            walk += [off, walk[-1]]
        walk.append(q)
    return walk


# Finite parts that run beside the curve's own rays, with chords onto them.
BESIDE_RAYS = [
    [(1, 0), (2, 0), (2, -4), (4, -4)],
    [(4, 0), (4, 5), (1, 5), (1, 2), (0, 2)],
]


def _random_curves(rng):
    curves = [PolyCurve(pts, south_ray=True, north_ray=True)
              for pts in HAND_MADE + BESIDE_RAYS]
    curves += [random_curve(rng, corners=rng.randrange(1, 9)) for _ in range(40)]
    return curves + [doubled(c) for c in curves[:20]]


def test_walk_sides_matches_per_point_reference_on_random_walks():
    start = time.perf_counter()
    rng = random.Random(71)
    chords = left_chord_witnesses = tail_witnesses = 0
    for curve in _random_curves(rng):
        x0, y0, x1, y1 = curve.bbox()
        walks = _chord_walks(curve)
        chords += len(walks)
        walks += [_along(rng, curve) for _ in range(4)]
        walks += [_random_walk(rng, (rng.randrange(x0 - 2, x1 + 3),
                                     rng.randrange(y0 - 2, y1 + 3)), 40)
                  for _ in range(4)]
        # Straight walks across the whole curve cross it and touch it.
        y = rng.randrange(y0, y1 + 1)
        walks.append([(x, y) for x in range(x0 - 3, x1 + 4)])
        x = rng.randrange(x0, x1 + 1)
        walks.append([(x, y) for y in range(y0 - 3, y1 + 4)])
        assert_walks_match(curve, walks)
        for walk in walks:
            witness = assert_witness_matches(PolyCurve(walk), curve)
            left_chord_witnesses += len(walk) == 2 and witness is not None
            # Ray tails: the walk's ends extended down and up to infinity.
            for south, north in ((True, False), (False, True), (True, True)):
                got = assert_witness_matches(PolyCurve(walk, south, north), curve)
                tail_witnesses += witness is None and got is not None
    # The walks reach chords, chords that leave the region, and tails that do.
    assert chords > 200 and left_chord_witnesses > 40 and tail_witnesses > 100
    elapsed = time.perf_counter() - start
    assert elapsed < REFERENCE_SECONDS, elapsed


def test_walk_sides_matches_per_point_reference_on_engine_curves(engine_record):
    # Every curve a SideCache is built on, every sub-curve checked for
    # closed-right containment and every route graph, for one part of
    # the recorded engine pass over _engine_groups' groups.
    start = time.perf_counter()
    groups, workspaces = engine_record.groups, engine_record.workspaces
    assert groups > 900 and engine_record.pumped > 750 and len(workspaces) > groups

    witnesses = set()
    for sub, curve in set(engine_record.checked):
        witnesses.add(assert_witness_matches(sub, curve))
    assert witnesses == {None}  # no claim fires on producible paths
    for curve in set(engine_record.boundaries):
        # Copies one step east and north run along the curve, touch it and
        # jump across it by chords.
        pts = curve.lattice_points()
        assert_walks_match(curve, [[(x + dx, y + dy) for x, y in pts]
                                   for dx, dy in ((1, 0), (0, 1))])
    for ws in workspaces:
        assert_route_inputs_match(ws)
        assert_workspace_lattices(ws)
    elapsed = time.perf_counter() - start
    assert elapsed < REFERENCE_SECONDS, elapsed


def test_route_inputs_and_lattices_on_long_walks():
    # The workspaces analyze builds past the j == k return on long seeded
    # walks, and every curve the engine builds meanwhile: the route graph,
    # the goals and each lattice walk the workspace hands out.
    built, curves = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shield, "build_workspace", _recorded(shield.build_workspace, built))
        mp.setattr(shield, "PolyCurve", _recorded(shield.PolyCurve, curves))
        for sys_, p in _producible_walks(random.Random(47), LONG_WALKS):
            driver.analyze(sys_, p)
    workspaces = [ws for _, ws in built]
    assert len(workspaces) > 30 and max(len(ws.pos2) for ws in workspaces) > 100
    for ws in workspaces:
        assert_route_inputs_match(ws)
        assert_workspace_lattices(ws)
    assert len(curves) > 5 * len(workspaces)
    for _, curve in curves:
        assert curve.lattice_points() == fresh_lattice(curve), curve.points


# Shield (51, 54, 68) of a 141-tile random walk, in the frame the engine
# decides it in, cut to the prefix 0..k+1 the engine works on.
CHORD_EDGE_SYSTEM = """\
tile A north=b east=c south=b west=c
seed 1 17 A
seed 1 18 A
path 2 17 A ; 2 16 A ; 2 15 A ; 2 14 A ; 1 14 A ; 0 14 A ; 0 13 A ; 1 13 A ; \
2 13 A ; 3 13 A ; 3 12 A ; 3 11 A ; 4 11 A ; 5 11 A ; 5 12 A ; 5 13 A ; 6 13 A ; \
6 14 A ; 7 14 A ; 8 14 A ; 9 14 A ; 10 14 A ; 11 14 A ; 12 14 A ; 12 13 A ; \
12 12 A ; 13 12 A ; 14 12 A ; 15 12 A ; 16 12 A ; 17 12 A ; 17 11 A ; 17 10 A ; \
17 9 A ; 16 9 A ; 16 10 A ; 16 11 A ; 15 11 A ; 15 10 A ; 15 9 A ; 15 8 A ; \
15 7 A ; 16 7 A ; 16 6 A ; 17 6 A ; 18 6 A ; 19 6 A ; 19 5 A ; 19 4 A ; 19 3 A ; \
19 2 A ; 20 2 A ; 21 2 A ; 21 1 A ; 21 0 A ; 22 0 A ; 23 0 A ; 24 0 A ; 24 1 A ; \
23 1 A ; 23 2 A ; 23 3 A ; 22 3 A ; 21 3 A ; 20 3 A ; 20 4 A ; 20 5 A ; 21 5 A ; \
21 4 A ; 22 4 A
"""


def test_route_graph_drops_an_edge_that_leaves_through_a_chord():
    sys_, p = formats.parse_system(CHORD_EDGE_SYSTEM)
    ws = shield.build_workspace(sys_, p, shield.Shield(51, 54, 68))
    # Tile (42, 10) lies on the cut's finite part and the glue midpoint
    # (43, 10) on its exit ray; the half step between them is a chord
    # through the left side, while both ends of the edge are not LEFT.
    u, glue, w = (44, 10), (43, 10), (42, 10)
    sides = walk_sides(ws.cache, [u, glue, w], steps=True)
    assert sides == [Side.RIGHT, Side.RIGHT, Side.ON, Side.LEFT, Side.ON]
    adj = shield._route_adjacency(ws)
    assert w not in adj[u] and u not in adj[w]
    assert_route_inputs_match(ws)
    # The edge was never on the selected route.
    assert shield.build_r(ws) == ((42, 4), (42, 2), (42, 0), (44, 0), (46, 0), (48, 0),
                                  (48, 2), (46, 2), (46, 4), (46, 6), (44, 6), (44, 8),
                                  (44, 10))


def _points_on(curve):
    """The curve's finite lattice points, and its ray points to two past its box."""
    (sx, sy), (nx, ny) = curve.points[0], curve.points[-1]
    _, y0, _, y1 = curve.bbox()
    return (list(curve.lattice_points())
            + [(sx, y) for y in range(y0 - 2, sy)]
            + [(nx, y) for y in range(ny + 1, y1 + 3)])


def assert_step_rule(curve):
    """``step_side`` on every unit step from a point of ``curve``, against the doubled curve.

    A step with both ends on the curve is asked from each end.  Returns
    the number of chords and of chords with an end on a ray past its start.
    """
    scaled = doubled(curve)
    on = _points_on(curve)
    index = curve.lattice_index()
    chords = ray_chords = 0
    for a in on:
        for dx, dy in _UNIT:
            b = (a[0] + dx, a[1] + dy)
            want = classify_side(scaled, (2 * a[0] + dx, 2 * a[1] + dy))
            assert step_side(curve, a, b) is want, (curve.points, a, b)
            if curve.contains(b) and want is not Side.ON:
                assert step_side(curve, b, a) is want, (curve.points, b, a)
                chords += 1
                ray_chords += a not in index or b not in index
    return chords, ray_chords


def test_step_side_matches_doubled_curve():
    # Hand-made curves, curves beside their own rays, seeded staircases
    # and the doubled copies of all of them; every step from the finite
    # part, both of its ends and both ray columns.
    start = time.perf_counter()
    rng = random.Random(73)
    curves = [PolyCurve(pts, south_ray=True, north_ray=True)
              for pts in HAND_MADE + BESIDE_RAYS]
    curves += [random_curve(rng, corners=rng.randrange(1, 9)) for _ in range(40)]
    curves += [doubled(c) for c in curves]
    chords = ray_chords = 0
    for curve in curves:
        c, r = assert_step_rule(curve)
        chords += c
        ray_chords += r
    assert chords > 80 and ray_chords > 10, (chords, ray_chords)
    elapsed = time.perf_counter() - start
    assert elapsed < REFERENCE_SECONDS, elapsed


def test_step_side_matches_doubled_curve_on_engine_curves(engine_record):
    # Every distinct boundary a side cache is built on, over one part of
    # the recorded engine pass.
    start = time.perf_counter()
    curves = set(engine_record.boundaries)
    chords = sum(assert_step_rule(curve)[0] for curve in curves)
    assert len(curves) > 500 and chords > 100, (len(curves), chords)
    elapsed = time.perf_counter() - start
    assert elapsed < REFERENCE_SECONDS, elapsed


def assert_cache_matches_classify(curve, margin=3):
    """``SideCache.side`` equals ``classify_side`` on the box grown by ``margin``.

    The window holds both ray columns below and above the box, and points
    beside the box on every side, which the cache answers from the rays.
    """
    cache = SideCache(curve)
    x0, y0, x1, y1 = curve.bbox()
    window = [(x, y) for x in range(x0 - margin, x1 + margin + 1)
              for y in range(y0 - margin, y1 + margin + 1)]
    got = [cache.side(q) for q in window]
    want = [classify_side(curve, q) for q in window]
    if got != want:
        n = next(n for n, (a, b) in enumerate(zip(got, want)) if a is not b)
        raise AssertionError((curve.points, window[n], got[n], want[n]))


def test_side_cache_matches_classify_side():
    start = time.perf_counter()
    for curve in _random_curves(random.Random(79)):
        assert_cache_matches_classify(curve)
    elapsed = time.perf_counter() - start
    assert elapsed < REFERENCE_SECONDS, elapsed


def test_side_cache_matches_classify_side_on_engine_curves(engine_record):
    start = time.perf_counter()
    for curve in set(engine_record.boundaries):
        assert_cache_matches_classify(curve)
    elapsed = time.perf_counter() - start
    assert elapsed < REFERENCE_SECONDS, elapsed


def test_cut_family_builds_a_table_only_for_a_query_inside_the_box(monkeypatch):
    # The CHORD_EDGE_SYSTEM workspace: the anchor split is asked only about
    # points its rays decide, and the inner cut only about walks that start
    # on it, so neither builds a diagonal table.  Every table built is for
    # a curve classify_side was asked about.
    tables, asked = [], []
    monkeypatch.setattr(PolyCurve, "diagonal_table",
                        _recorded(PolyCurve.diagonal_table, tables))
    monkeypatch.setattr(geometry, "classify_side", _recorded(classify_side, asked))
    sys_, p = formats.parse_system(CHORD_EDGE_SYSTEM)
    ws = shield.build_workspace(sys_, p, shield.Shield(51, 54, 68))
    shield.dominant(ws)
    assert tables == [] and asked == []
    route = shield.build_r(ws)
    assert len(tables) == 1 and tables[0][0][0] is ws.cut
    assert {id(args[0]) for args, _ in asked} == {id(ws.cut)}
    tables.clear()
    shield._assert_route_claims(ws, route)
    assert tables == []


def test_walk_along_a_curve_makes_no_step_side_call(monkeypatch):
    # Every step of a curve's own lattice walk runs along the curve, which
    # the lattice index decides without the step rule.
    steps = []
    monkeypatch.setattr(geometry, "step_side", _recorded(step_side, steps))
    for curve in _random_curves(random.Random(83)):
        walk = curve.lattice_points()
        got = walk_sides(SideCache(curve), walk, steps=True)
        assert steps == [], curve.points
        assert got == walk_sides_by_point(curve, doubled(curve), walk)


def test_walk_sides_asks_one_side_query_per_walk(monkeypatch):
    # A straight walk across HAND_MADE's first curve at y = -2 meets it at
    # x = 1, 5 and 9: four stretches off the curve, one side query.
    asked = []
    monkeypatch.setattr(SideCache, "side", _recorded(SideCache.side, asked))
    curve = PolyCurve(HAND_MADE[0], south_ray=True, north_ray=True)
    walk = [(x, -2) for x in range(-3, 13)]
    for steps in (False, True):
        asked.clear()
        sides = walk_sides(SideCache(curve), walk, steps)
        assert len(asked) == 1
        assert sides[::1 + steps] == [classify_side(curve, q) for q in walk]
        assert sides[::1 + steps].count(Side.ON) >= 3
    # A walk that starts on the curve asks none.
    asked.clear()
    walk_sides(SideCache(curve), walk[4:], steps=True)
    assert asked == []


def test_goal_test_decides_links_without_walks(monkeypatch):
    # The CHORD_EDGE_SYSTEM workspace has graph vertices on the cut beside
    # the exit ray; their links are decided by the step rule alone.
    sys_, p = formats.parse_system(CHORD_EDGE_SYSTEM)
    ws = shield.build_workspace(sys_, p, shield.Shield(51, 54, 68))
    walks = []
    monkeypatch.setattr(shield, "walk_sides", _recorded(shield.walk_sides, walks))
    lkx, lky = ws.exit2
    _, _, adj, want = oracle.route_problem(sys_, p, ws.shield)
    on_cut = [u for u in adj if abs(u[0] - lkx) == 1 and u[1] >= lky
              and ws.cache.side(u) is Side.ON]
    assert on_cut
    is_goal = shield._goal_test(ws)
    assert all(is_goal(u) is want(u) for u in adj)
    assert walks == []
