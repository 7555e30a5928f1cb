"""The lattice walk and diagonal table against per-segment references.

``PolyCurve.lattice_points`` adds the midpoint of each whole step in one
pass over the segments, and ``diagonal_table`` takes one pass over the
lattice walk.  Inline copies of both as they read before, with a range per
segment, give the tuples and tables they must reproduce exactly: on seeded
random curves that mix half, whole and long steps, and on every curve the
engine builds for the j < k shields of criterion 9's corpus.
"""

import random
from collections import defaultdict
from itertools import repeat

from pumpkit.geometry import PolyCurve

from conftest import time_budget

REFERENCE_SECONDS = 5.0  # per test case; each takes under 2 s on a 2-core machine


def reference_lattice(points):
    """The lattice walk of an axis-aligned polyline, one segment at a time."""
    pts = [points[0]]
    for (ax, ay), (bx, by) in zip(points, points[1:]):
        if ax == bx:
            step = 1 if by > ay else -1
            pts.extend(zip(repeat(ax), range(ay + step, by + step, step)))
        else:
            step = 1 if bx > ax else -1
            pts.extend(zip(range(ax + step, bx + step, step), repeat(ay)))
    return tuple(pts)


def reference_diagonals(points):
    """For each ``d``, the sorted x where the segments cross ``y - x = d``.

    Each segment counts for every ``d`` in ``[min(e_a, e_b), max(e_a, e_b))``
    with ``e = y - x`` at its two vertices.
    """
    table = defaultdict(list)
    for (ax, ay), (bx, by) in zip(points, points[1:]):
        ea, eb = ay - ax, by - bx
        for d in range(min(ea, eb), max(ea, eb)):
            table[d].append(ax if ax == bx else ay - d)
    for xs in table.values():
        xs.sort()
    return dict(table)


def assert_matches_reference(curve):
    assert curve.lattice_points() == reference_lattice(curve.points), curve.points
    assert curve.diagonal_table() == reference_diagonals(curve.points), curve.points


def random_mixed_curve(rng, n, lengths):
    """``n`` random axis-aligned segments with lengths drawn from ``lengths``."""
    pts = [(rng.randrange(-9, 10), rng.randrange(-9, 10))]
    for _ in range(n):
        x, y = pts[-1]
        step = rng.choice(lengths) * rng.choice((1, -1))
        pts.append((x + step, y) if rng.random() < 0.5 else (x, y + step))
    return PolyCurve(pts, rng.random() < 0.5, rng.random() < 0.5)


def random_mixed_staircase(rng, n):
    """A simple almost-vertical curve whose segments mix half, whole and long steps.

    The curve climbs north with every vertical segment, so it never meets
    itself or its rays; horizontal segments and vertical runs are split
    into random pieces of length 1, 2 or 3 to 6.
    """
    pts = [(rng.randrange(-9, 10), 0)]
    for n_seg in range(n):
        x, y = pts[-1]
        total = rng.randrange(1, 9)
        sign = rng.choice((1, -1)) if n_seg % 2 == 0 else 1
        while total > 0:
            piece = min(total, rng.choice((1, 2, rng.randrange(3, 7))))
            total -= piece
            x, y = (x + sign * piece, y) if n_seg % 2 == 0 else (x, y + piece)
            pts.append((x, y))
    return PolyCurve(pts, south_ray=True, north_ray=True)


def test_lattice_walk_matches_reference_on_random_curves():
    with time_budget(REFERENCE_SECONDS):
        rng = random.Random(83)
        kinds = {"half": (1,), "whole": (2,), "path": (1, 2), "mixed": (1, 2, 3, 5, 8)}
        n = 0
        for lengths in kinds.values():
            for _ in range(150):
                assert_matches_reference(random_mixed_curve(rng, rng.randrange(0, 30), lengths))
                n += 1
        for _ in range(200):
            assert_matches_reference(random_mixed_staircase(rng, rng.randrange(1, 12)))
            n += 1
        assert n == 800


def test_lattice_walk_matches_reference_on_engine_curves(engine_record):
    # Every curve the engine builds (the cut, the anchor's segment and
    # rays, the split, the inner cut, the moved route and stretches, the
    # progress loop's frontiers and extensions), over one part of
    # criterion 9's groups.
    with time_budget(REFERENCE_SECONDS):
        groups = engine_record.groups
        assert groups > 900 and len(engine_record.curves) > 10 * groups
        for curve in engine_record.curves:
            assert_matches_reference(curve)
