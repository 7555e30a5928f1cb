"""The one vertical-ray query against per-point references.

``PolyCurve.ray_hits`` is the only code in ``geometry`` and ``shield``
that collects the lattice points a vertical ray meets.  Inline copies of
``curve_intersection`` and of ``PolyCurve.is_simple`` as they read before
it, with a ray object of their own and one containment test per lattice
point, give the results it must reproduce exactly: on every curve pair
the progress loop intersects over criterion 9's corpus, on seeded random
curves paired with translates that put two rays on one column, and on
random lattice walks whose rays run into their own finite part.
"""

import random
import time

from pumpkit.geometry import INFINITE_OVERLAP, PolyCurve, curve_intersection

from conftest import HAND_MADE, random_curve

REFERENCE_SECONDS = 5.0  # per test case; each takes well under 2 s on a 2-core machine

_UNIT = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def _reference_rays(curve):
    """(start, heading) of each infinite ray, headings "south" and "north"."""
    rays = []
    if curve.south_ray:
        rays.append((curve.points[0], "south"))
    if curve.north_ray:
        rays.append((curve.points[-1], "north"))
    return rays


def _reference_ray_contains(ray, q):
    (x0, y0), heading = ray
    if heading == "north":
        return q[0] == x0 and q[1] >= y0
    return q[0] == x0 and q[1] <= y0


def reference_curve_intersection(a, b):
    """``curve_intersection`` as it read with one ray test per lattice point."""
    fa, fb = a.lattice_set(), b.lattice_set()
    pts = set(fa & fb)
    for ray in _reference_rays(a):
        for q in fb:
            if _reference_ray_contains(ray, q):
                pts.add(q)
    for ray in _reference_rays(b):
        for q in fa:
            if _reference_ray_contains(ray, q):
                pts.add(q)
    for ra in _reference_rays(a):
        for rb in _reference_rays(b):
            if ra[0][0] != rb[0][0]:
                continue
            if ra[1] == rb[1]:
                return INFINITE_OVERLAP
            north_y = ra[0][1] if ra[1] == "north" else rb[0][1]
            south_y = rb[0][1] if ra[1] == "north" else ra[0][1]
            if south_y - north_y + 1 > 2:
                return INFINITE_OVERLAP
            for y in range(north_y, south_y + 1):
                pts.add((ra[0][0], y))
    return pts


def reference_is_simple(curve):
    """``PolyCurve.is_simple`` as it read with one scan of the lattice set per ray."""
    seen = curve.lattice_set()
    ok = len(seen) == len(curve.lattice_points())
    if ok and curve.south_ray:
        sx, sy = curve.points[0]
        ok = not any(x == sx and y < sy for x, y in seen)
    if ok and curve.north_ray:
        nx, ny = curve.points[-1]
        ok = not any(x == nx and y > ny for x, y in seen)
    return ok


def _ray_only_hits(ray_curve, other):
    """Points of ``other``'s finite part on a ray of ``ray_curve`` and off its finite part."""
    return {q for ray in _reference_rays(ray_curve) for q in other.lattice_set()
            if _reference_ray_contains(ray, q)} - ray_curve.lattice_set()


def brute_ray_hits(curve, start, north):
    """The curve's lattice points met by walking the ray's column, in curve order."""
    on = curve.lattice_set()
    x, y = start
    y0, y1 = curve.bbox()[1], curve.bbox()[3]
    ys = range(y, y1 + 1) if north else range(y, y0 - 1, -1)
    met = {(x, t) for t in ys if (x, t) in on}
    return [q for q in curve.lattice_points() if q in met]


def assert_intersections_match(pairs):
    """Same point set, or INFINITE_OVERLAP in the same cases; returns the results."""
    results = []
    for a, b in pairs:
        got, want = curve_intersection(a, b), reference_curve_intersection(a, b)
        if want is INFINITE_OVERLAP:
            assert got is INFINITE_OVERLAP, (a.points, b.points)
        else:
            assert got is not INFINITE_OVERLAP and got == want, (a.points, b.points)
        results.append(want)
    return results


def _random_walk_curve(rng, n, avoid=False):
    """A random unit-step lattice walk with random rays: often not simple.

    A walk that may revisit points mostly does; the rays of one that
    avoids itself often run into its finite part.
    """
    walk = [(0, 0)]
    for _ in range(n):
        x, y = walk[-1]
        steps = [(x + dx, y + dy) for dx, dy in _UNIT]
        if avoid:
            steps = [q for q in steps if q not in walk]
            if not steps:
                break
        walk.append(rng.choice(steps))
    return PolyCurve(walk, rng.random() < 0.7, rng.random() < 0.7)


def _shapes(rng):
    """Hand-made and seeded random curves, with every choice of rays."""
    finite = list(HAND_MADE)
    finite += [list(random_curve(rng, corners=rng.randrange(1, 8)).points)
               for _ in range(30)]
    finite += [[(rng.randrange(-5, 6), rng.randrange(-5, 6))] for _ in range(4)]
    return [PolyCurve(pts, south, north) for pts in finite
            for south in (False, True) for north in (False, True)]


def test_ray_hits_matches_column_walk():
    start = time.perf_counter()
    rng = random.Random(13)
    curves = _shapes(rng) + [_random_walk_curve(rng, 30, avoid=True) for _ in range(40)]
    on_start = off_start = nonempty_off = 0
    for curve in curves:
        x0, y0, x1, y1 = curve.bbox()
        starts = list(curve.lattice_points())
        starts += [(rng.randrange(x0 - 2, x1 + 3), rng.randrange(y0 - 3, y1 + 4))
                   for _ in range(20)]
        for q in starts:
            for north in (False, True):
                got = curve.ray_hits(q, north)
                assert got == brute_ray_hits(curve, q, north), (curve.points, q, north)
                if q in curve.lattice_set():
                    on_start += 1
                    assert q in got
                else:
                    off_start += 1
                    nonempty_off += bool(got)
    assert on_start > 2000 and off_start > 2000 and nonempty_off > 500
    elapsed = time.perf_counter() - start
    assert elapsed < REFERENCE_SECONDS, elapsed


def test_is_simple_matches_per_point_scans():
    start = time.perf_counter()
    rng = random.Random(17)
    curves = _shapes(rng) + [_random_walk_curve(rng, rng.randrange(1, 30), avoid)
                             for avoid in (False, True) for _ in range(200)]
    repeats = ray_only = 0  # not simple by a repeated point, by a ray alone
    for curve in curves:
        want = reference_is_simple(curve)
        assert curve.is_simple() is want, (curve.points, curve.south_ray, curve.north_ray)
        if len(curve.lattice_set()) != len(curve.lattice_points()):
            repeats += 1
        else:
            ray_only += not want
    assert repeats > 50 and ray_only > 50 and sum(c.is_simple() for c in curves) > 100
    elapsed = time.perf_counter() - start
    assert elapsed < REFERENCE_SECONDS, elapsed


def test_curve_intersection_matches_reference_on_shared_columns():
    # Each curve against translates that put one of its rays on the column
    # of one of the translate's rays: same headings overlap infinitely,
    # opposite headings in a stretch from empty to three or more points.
    start = time.perf_counter()
    rng = random.Random(19)
    pairs = []
    for curve in _shapes(rng):
        (sx, sy), (nx, ny) = curve.points[0], curve.points[-1]
        for dy in range(-4, 5):
            pairs.append((curve, curve.translate((0, dy))))
            # The curve's north ray on the column of the translate's south
            # ray, and the other way round.
            pairs.append((curve, curve.translate((nx - sx, ny - sy + dy))))
            pairs.append((curve.translate((sx - nx, sy - ny + dy)), curve))
            pairs.append((curve, curve.translate((rng.randrange(-4, 5), dy))))
    results = assert_intersections_match(pairs)
    overlaps = {}  # opposite-heading ray pairs on one column, by shared points
    from_a = from_b = 0  # finite results that one curve's rays add to
    for (a, b), want in zip(pairs, results):
        if want is not INFINITE_OVERLAP:
            from_a += bool(_ray_only_hits(a, b))
            from_b += bool(_ray_only_hits(b, a))
        for sa, ha in _reference_rays(a):
            for sb, hb in _reference_rays(b):
                if sa[0] == sb[0] and ha != hb:
                    north_y, south_y = (sa[1], sb[1]) if ha == "north" else (sb[1], sa[1])
                    n = max(0, south_y - north_y + 1)
                    overlaps[min(n, 3)] = overlaps.get(min(n, 3), 0) + 1
    assert all(overlaps.get(n, 0) > 50 for n in range(4)), overlaps
    assert from_a > 500 and from_b > 500, (from_a, from_b)
    assert sum(r is INFINITE_OVERLAP for r in results) > 1000
    assert sum(r is not INFINITE_OVERLAP and len(r) > 0 for r in results) > 500
    elapsed = time.perf_counter() - start
    assert elapsed < REFERENCE_SECONDS, elapsed


def test_curve_intersection_matches_reference_on_engine_pairs(engine_record):
    # Every curve pair the progress loop intersects, for one part of
    # the recorded engine pass over _engine_groups' groups.
    start = time.perf_counter()
    pairs = engine_record.pairs
    results = assert_intersections_match(set(pairs))
    assert len(pairs) > 5000 and sum(bool(r) for r in results) > 1500
    for curve in {c for pair in pairs for c in pair}:
        assert curve.is_simple() is reference_is_simple(curve)
    elapsed = time.perf_counter() - start
    assert elapsed < REFERENCE_SECONDS, elapsed
