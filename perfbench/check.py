"""Independent checkers for the benchmark's outputs.

Nothing here imports ``pumpkit``: each check recomputes its answer from
the definitions, on the benchmark's own tuple representation (see
``gen.py``).  A checker returns ``None`` when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

from collections import deque

from gen import SIDE_OF_STEP, STEPS, binds


def check_producible(seed, path):
    """A path is producible when it is simple, misses the seed, each tile
    binds to the one before it and the first tile binds to the seed."""
    if not path:
        return "empty path"
    seen = set()
    for n, (pos, t) in enumerate(path):
        if pos in seed:
            return f"tile {n} overlaps the seed"
        if pos in seen:
            return f"tile {n} revisits {pos}"
        seen.add(pos)
        if n and not binds(path[n - 1][1], t, _step(path[n - 1][0], pos)):
            return f"tile {n} does not bind to tile {n - 1}"
    (x, y), t = path[0]
    if not any(binds(seed[(x - dx, y - dy)], t, (dx, dy))
               for dx, dy, _ in STEPS if (x - dx, y - dy) in seed):
        return "first tile does not bind to the seed"
    return None


def _step(a, b):
    return (b[0] - a[0], b[1] - a[1])


def check_pumping(seed, path, i, j):
    """Simulate enough periods of the pumping ``(i, j)`` explicitly.

    The infinite path is tiles ``0..i`` followed by copies ``m = 0, 1, ...``
    of tiles ``i+1..j`` shifted by ``m`` times the vector from tile ``i``
    to tile ``j``.  Copy ``m`` is shifted ``m * L`` along the vector's
    dominant axis, ``L`` its largest component, so once ``m * L`` exceeds
    the summed width and height ``E`` of seed, prefix and one period, copy
    ``m`` misses the seed, the prefix and copy ``0``.  Simulating
    ``E // L + 2`` copies therefore covers every pair of copies (by
    translation) and every copy that could touch the seed or the prefix.
    """
    if not (0 <= i < j < len(path)):
        return f"index pair ({i}, {j}) out of order or range"
    (xi, yi), (xj, yj) = path[i][0], path[j][0]
    v = (xj - xi, yj - yi)
    if v == (0, 0):
        return "pumping vector is zero"
    obstacles = set(seed) | {pos for pos, _ in path[: i + 1]}
    period = path[i + 1: j + 1]
    cells = list(obstacles) + [pos for pos, _ in period]
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    extent = max(xs) - min(xs) + max(ys) - min(ys)
    copies = extent // max(abs(v[0]), abs(v[1])) + 2
    occupied = set()
    prev = path[i]
    for m in range(copies):
        for (x, y), t in period:
            pos = (x + m * v[0], y + m * v[1])
            if pos in obstacles:
                return f"copy {m} hits the seed or the prefix at {pos}"
            if pos in occupied:
                return f"copy {m} overlaps an earlier copy at {pos}"
            if not binds(prev[1], t, _step(prev[0], pos)):
                return f"copy {m} does not bind at {pos}"
            occupied.add(pos)
            prev = (pos, t)
    return None


def check_fragile(tiles, seed, path, attachments, conflict):
    """Replay the attachments from the seed; the result must put another
    tile type than the path's on the path position ``conflict``."""
    declared = {t[0]: t for t in tiles}
    grown = dict(seed)
    for n, (pos, t) in enumerate(attachments):
        if declared.get(t[0]) != t:
            return f"attachment {n} uses an undeclared tile {t}"
        if pos in grown:
            return f"attachment {n} lands on the filled position {pos}"
        x, y = pos
        if not any(binds(grown[(x - dx, y - dy)], t, (dx, dy))
                   for dx, dy, _ in STEPS if (x - dx, y - dy) in grown):
            return f"attachment {n} at {pos} binds to nothing"
        grown[pos] = t
    want = {pos: t for pos, t in path}.get(conflict)
    if want is None:
        return f"conflict position {conflict} is not on the path"
    placed = grown.get(conflict)
    if placed is None:
        return f"conflict position {conflict} is never filled"
    if placed[0] == want[0]:
        return f"the replay places the path's own tile {want[0]} at {conflict}"
    return None


def shields(seed, path):
    """Every shield ``(i, j, k)`` of the path, from the definition in the
    ``pumpkit.shield`` module docstring, in lexicographic order.

    Glue ``g`` joins tiles ``g`` and ``g + 1``; its label is the first
    tile's glue on the shared side and it points the way the path steps.
    A shield needs ``0 <= i < j <= k < |path| - 1``; glues ``i`` and ``j``
    point east, carry the same label and are visible from the south; glue
    ``k`` points east or west and is visible from the north; and the
    northward ray from glue ``k``'s midpoint, moved by the vector from tile
    ``j`` to tile ``i``, meets the polyline through tiles ``i..k`` at most
    at the ray's start.  A vertical ray from a glue midpoint is blocked,
    as ``pumpkit.visibility.GlueView`` documents, by any two horizontally
    adjacent tiles of seed plus path that straddle its column beyond it.
    All coordinates below are doubled, so midpoints are lattice points.
    """
    cells = set(seed) | {pos for pos, _ in path}
    straddle = {}  # doubled glue column -> doubled heights of straddling pairs
    for x, y in cells:
        if (x + 1, y) in cells:
            straddle.setdefault(2 * x + 1, []).append(2 * y)
    glues = []  # (label, pointing, doubled midpoint, south-visible, north-visible)
    for g in range(len(path) - 1):
        (x0, y0), t0 = path[g]
        (x1, y1), _ = path[g + 1]
        step = (x1 - x0, y1 - y0)
        mid = (x0 + x1, y0 + y1)
        heights = straddle.get(mid[0], ()) if step[1] == 0 else None
        glues.append((t0[SIDE_OF_STEP[step]], step, mid,
                      heights is not None and all(h >= mid[1] for h in heights),
                      heights is not None and all(h <= mid[1] for h in heights)))
    doubled = [(2 * x, 2 * y) for (x, y), _ in path]
    out = []
    last = len(path) - 2
    for i in range(last + 1):
        if glues[i][1] != (1, 0) or not glues[i][3]:
            continue
        for j in range(i + 1, last + 1):
            if glues[j][1] != (1, 0) or not glues[j][3] or glues[j][0] != glues[i][0]:
                continue
            shift = (doubled[i][0] - doubled[j][0], doubled[i][1] - doubled[j][1])
            for k in range(j, last + 1):
                if not glues[k][4]:
                    continue
                rx = glues[k][2][0] + shift[0]
                ry = glues[k][2][1] + shift[1]
                if all(not _on_ray(rx, ry, doubled[s], doubled[s + 1])
                       for s in range(i, k)):
                    out.append((i, j, k))
    return out


def _on_ray(rx, ry, a, b):
    """Whether the unit step ``a -> b`` has a lattice point on the ray
    ``x == rx, y >= ry`` other than the ray's start ``(rx, ry)``."""
    for q in (a, ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2), b):
        if q[0] == rx and q[1] >= ry and q != (rx, ry):
            return True
    return False


def flood_sides(points, window):
    """Side of every window point of an almost-vertical curve, by flood fill.

    The curve is the polyline through ``points`` (doubled lattice) with a
    ray south from its first vertex and one north from its last.  Inside a
    box two cells wider than window and curve, the curve and its rays wall
    the box in two; the part holding the box's west edge is ``"left"``, the
    part holding its east edge ``"right"``, and curve points are ``"on"``.
    """
    wall = {points[0]}
    for a, b in zip(points, points[1:]):
        dx = (b[0] > a[0]) - (b[0] < a[0])
        dy = (b[1] > a[1]) - (b[1] < a[1])
        x, y = a
        while (x, y) != b:
            x, y = x + dx, y + dy
            wall.add((x, y))
    xs = [x for x, _ in points] + [window[0], window[2]]
    ys = [y for _, y in points] + [window[1], window[3]]
    x0, y0, x1, y1 = min(xs) - 2, min(ys) - 2, max(xs) + 2, max(ys) + 2
    (sx, sy), (nx, ny) = points[0], points[-1]
    wall.update((sx, y) for y in range(y0, sy))
    wall.update((nx, y) for y in range(ny + 1, y1 + 1))
    side = {q: "on" for q in wall}
    for label, start in (("left", (x0, y0)), ("right", (x1, y0))):
        todo = deque([start])
        side[start] = label
        while todo:
            x, y = todo.popleft()
            for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if q not in side and x0 <= q[0] <= x1 and y0 <= q[1] <= y1:
                    side[q] = label
                    todo.append(q)
    wx0, wy0, wx1, wy1 = window
    return tuple(side[(x, y)] for x in range(wx0, wx1 + 1) for y in range(wy0, wy1 + 1))

