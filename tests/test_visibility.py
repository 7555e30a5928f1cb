"""Visibility, spans, right-priority, and the two executable lemma checkers."""


import random
import time
from dataclasses import replace
from itertools import chain

import pytest

from pumpkit import GlueView, Path, right_priority, spans, visible
from pumpkit.driver import ROT90, TRANSPOSE
from pumpkit.errors import (
    LastGlueNotVisible,
    NotAShield,
    NotCanonical,
    NotEasternmost,
    OrientationMismatch,
    PrefixAmbiguity,
)
from pumpkit.shield import Shield, check_shield, enumerate_shields
from pumpkit.visibility import Span, _beats, check_glue_east, check_glue_side

from conftest import (_long_walks, _short_walks, and_east_facing, check_orderings, corpus_paths,
                      path_of, system_of)


def test_unit_glue_visible_both_ways(unit):
    p = path_of(unit, (1, 0, "A"), (2, 0, "A"))
    assert visible(unit, p, 0, "south")
    assert visible(unit, p, 0, "north")


def test_hook_blocks_south():
    # A hook whose tail runs underneath the first glue.
    sys_ = system_of([("H", "h", "h", "h", "h")], {(0, 0): "H"})
    p = path_of(sys_, (1, 0, "H"), (2, 0, "H"), (3, 0, "H"), (3, -1, "H"),
                (2, -1, "H"), (1, -1, "H"))
    assert not visible(sys_, p, 0, "south")
    assert visible(sys_, p, 0, "north")


def test_wrong_orientation_raises(unit):
    # vertical glue asked for a vertical ray
    sys2 = system_of([("V", "v", "v", "v", "v")], {(0, 0): "V"})
    p = path_of(sys2, (0, 1, "V"), (0, 2, "V"))
    with pytest.raises(OrientationMismatch):
        visible(sys2, p, 0, "south")
    # East and west rays are the transposed instance's north and south ones.
    with pytest.raises(ValueError):
        visible(sys2, p, 0, "east")
    tsys, tp = TRANSPOSE.apply(sys2), TRANSPOSE.apply(p)
    assert visible(tsys, tp, 0, "north")
    assert visible(tsys, tp, 0, "south")


def test_straddling_pair_blocks_ray():
    # Two adjacent tiles of seed+path flanking the column block the ray
    # even though no glue of the path crosses it.
    sys_ = system_of([("T", "t", "t", "t", "t")], {(0, 0): "T"})
    p = path_of(sys_, (1, 0, "T"), (1, 1, "T"), (0, 1, "T"), (0, 2, "T"),
                (1, 2, "T"))
    # Glue 3 between (0,2) and (1,2) sits on column 0; below it the pair
    # (0,1),(1,1) straddles the same column.
    assert not visible(sys_, p, 3, "south")
    assert visible(sys_, p, 3, "north")


def test_spans_unit(unit, unit_path):
    got = spans(unit, unit_path)
    assert [(s.coordinate, s.s, s.n, s.orientation, s.pointing, s.height)
            for s in got] == [(1, 0, 0, "up", "east", 0),
                              (2, 1, 1, "up", "east", 0)]


def test_spans_exclude_seed_column(unit, unit_path):
    assert all(s.coordinate != 0 for s in spans(unit, unit_path))


def test_spans_heights_six_and_eight(battlements):
    sys_, p = battlements
    by_col = {s.coordinate: s for s in spans(sys_, p)}
    assert by_col[2].height == 6 and by_col[2].pointing == "east"
    assert by_col[2].orientation == "up"
    assert by_col[4].height == 8 and by_col[4].pointing == "east"
    assert {by_col[c].height for c in (1, 6, 7)} == {0}


def test_spans_not_canonical():
    # The last glue shares its column with an earlier glue: not extremal.
    sys_ = system_of([("T", "t", "t", "t", "t")], {(0, 0): "T"})
    p = path_of(sys_, (0, 1, "T"), (1, 1, "T"), (1, 2, "T"), (0, 2, "T"))
    with pytest.raises(NotCanonical):
        spans(sys_, p)


def test_horizontal_spans_by_rotation_equivariance(battlements):
    # A quarter turn counterclockwise maps glue columns to glue rows with
    # the same index, swapping the two visible ends: the south-visible
    # glue becomes the east-visible one.  Orientation therefore flips,
    # east pointing becomes north, and heights carry over as widths.  The
    # rows are read as the columns of the transposed instance, with the
    # directions renamed back.
    sys_, p = battlements
    vert = spans(sys_, p)
    rsys, rpath = ROT90.apply(sys_), ROT90.apply(p)
    horiz = [_as_row_span(s) for s in spans(TRANSPOSE.apply(rsys), TRANSPOSE.apply(rpath))]

    def flip_orient(s):
        if s.s == s.n:
            return "right"  # single-glue spans are canonically up/right
        return {"up": "left", "down": "right"}[s.orientation]

    assert [(s.coordinate, s.s, s.n, s.orientation, s.pointing, s.height)
            for s in horiz] == \
           [(s.coordinate, s.n, s.s, flip_orient(s),
             {"east": "north", "west": "south", None: None}[s.pointing],
             s.height)
            for s in vert]


def test_span_per_column_unique(rng):
    checked = 0
    for sys_, p in and_east_facing(_short_walks(rng, 1500)):
        try:
            got = spans(sys_, p)
        except NotCanonical:
            continue
        cols = [s.coordinate for s in got]
        assert len(cols) == len(set(cols))
        checked += 1
    assert checked >= 200


# -- O(1) queries against the scanning definition --------------------------------


def _blockers_by_scan(sys_, p):
    """Every straddling tile pair's midpoint, listed per glue column and row."""
    tiles = set(sys_.seed.tiles) | set(p.positions)
    cols, rows = {}, {}
    for (x, y) in tiles:
        if (x + 1, y) in tiles:
            cols.setdefault(2 * x + 1, []).append(2 * y)
        if (x, y + 1) in tiles:
            rows.setdefault(2 * y + 1, []).append(2 * x)
    return cols, rows


def _seed_glue_lines(sys_, vertical):
    """Glue columns (rows) of the seed's labelled east/west (north/south) glues."""
    out = set()
    for (x, y), t in sys_.seed.tiles.items():
        c, hi, lo = (x, t.east, t.west) if vertical else (y, t.north, t.south)
        if hi is not None:
            out.add(2 * c + 1)
        if lo is not None:
            out.add(2 * c - 1)
    return out


def _visible_by_scan(g, direction, cols, rows):
    gx, gy = g.midpoint
    if direction in ("south", "north"):
        if not g.horizontal:
            raise OrientationMismatch(direction)
        segs = cols.get(gx, ())
        if direction == "south":
            return not any(sy < gy for sy in segs)
        return not any(sy > gy for sy in segs)
    if g.horizontal:
        raise OrientationMismatch(direction)
    segs = rows.get(gy, ())
    if direction == "west":
        return not any(sx < gx for sx in segs)
    return not any(sx > gx for sx in segs)


def _axis_spans_by_scan(view, vertical, cols, rows):
    """Spans from per-column glue lists sorted in full and scanned with any()."""
    p = view.path
    axis_idx = 1 if vertical else 0
    seed_glue = _seed_glue_lines(view.sys, vertical)
    groups = {}
    for g in view.glues:
        if g.horizontal == vertical:
            groups.setdefault(g.midpoint[1 - axis_idx], []).append(g)
    out = []
    for key in sorted(groups):
        if key in seed_glue:
            continue
        glues = sorted(groups[key], key=lambda g: g.midpoint[axis_idx])
        lo, hi = glues[0], glues[-1]
        segs = (cols if vertical else rows).get(key, ())
        if any(c < lo.midpoint[axis_idx] for c in segs):
            continue
        if any(c > hi.midpoint[axis_idx] for c in segs):
            continue
        s, n = lo.index, hi.index
        if vertical:
            orientation = "up" if s <= n else "down"
        else:
            orientation = "right" if s <= n else "left"
        out.append(Span(s, n, (key - 1) // 2, orientation,
                        lo.pointing if lo.pointing == hi.pointing else None,
                        (lo if s <= n else hi).label,
                        p.pos(n)[axis_idx] - p.pos(s)[axis_idx]))
    return out


# The transposed frame's directions, named as in the caller's frame.
_ROW_NAMES = {"up": "right", "down": "left", "east": "north", "west": "south", None: None}


def _column_spans(view):
    """Every eligible column's span, with no extremal-glue precondition."""
    return [Span.of(col, rec) for col, rec in view.column_spans().items()]


def _as_row_span(s):
    """A span of the transposed instance as the row span of the original."""
    return replace(s, orientation=_ROW_NAMES[s.orientation], pointing=_ROW_NAMES[s.pointing])


def test_glue_view_matches_scanning_definition():
    instances = chain(corpus_paths(), _long_walks(random.Random(7), 300))
    n_paths = n_queries = n_spans = 0
    for sys_, p in instances:
        view = GlueView(sys_, p)
        # East and west are the transposed view's north and south.
        tview = GlueView(TRANSPOSE.apply(sys_), TRANSPOSE.apply(p))
        asked = {"south": (view, "south"), "north": (view, "north"),
                 "east": (tview, "north"), "west": (tview, "south")}
        cols, rows = _blockers_by_scan(sys_, p)
        for g in view.glues:
            for direction, (v, d) in asked.items():
                try:
                    want = _visible_by_scan(g, direction, cols, rows)
                except OrientationMismatch:
                    with pytest.raises(OrientationMismatch):
                        v.visible(g.index, d)
                    continue
                assert v.visible(g.index, d) == want
                n_queries += 1
        got = _column_spans(view)
        assert got == _axis_spans_by_scan(view, True, cols, rows)
        n_spans += len(got)
        got = [_as_row_span(s) for s in _column_spans(tview)]
        assert got == _axis_spans_by_scan(view, False, cols, rows)
        n_spans += len(got)
        n_paths += 1
    assert n_paths > 5000 and n_queries > 50000 and n_spans > 10000


ENUMERATE_SECONDS = 2.0  # the test takes about 0.6 s on a 2-core machine


def test_enumerate_shields_matches_check_shield_on_long_walks():
    # enumerate_shields reads bank indices and positions only; check_shield
    # on every triple is the definition it must reproduce.  check_shield
    # tests glues i and j (label, pointing, south visibility) before it
    # reads k, so a pair that fails there fails for every k, and its one
    # check at k = j stands for all of them.
    start = time.perf_counter()
    n_paths = n_shields = n_checks = n_ray = 0
    for sys_, p in _long_walks(random.Random(11), 40):
        view = GlueView(sys_, p)
        m = len(p) - 1
        want = []
        for i in range(m):
            for j in range(i + 1, m):
                for k in range(j, m):
                    n_checks += 1
                    try:
                        check_shield(sys_, p, i, j, k, view)
                    except NotAShield as e:
                        if str(e).startswith("glues i and j"):
                            break
                        n_ray += str(e).startswith("translated")
                        continue
                    want.append(Shield(i, j, k))
        assert enumerate_shields(sys_, p) == want
        n_paths += 1
        n_shields += len(want)
    assert n_paths == 40 and n_shields > 2000 and n_checks > 100000 and n_ray > 500
    assert time.perf_counter() - start < ENUMERATE_SECONDS


# -- right priority -----------------------------------------------------------


def test_right_priority_direction(unit):
    base = [(0, 0), (0, 1)]
    east = tuple(base + [(1, 1)])
    west = tuple(base + [(-1, 1)])
    straight = tuple(base + [(0, 2)])
    assert right_priority([east, west]) == east
    assert right_priority([west, east]) == east
    assert right_priority([east, west, straight]) == east
    assert right_priority([west, straight]) == straight


def test_right_priority_type_tiebreak(unit):
    sys_ = system_of([("A", None, "a", None, "a"), ("B", None, "a", None, "a")],
                     {(0, 0): "A"})
    pa = path_of(sys_, (1, 0, "A"), (2, 0, "A"))
    pb = path_of(sys_, (1, 0, "A"), (2, 0, "B"))
    assert right_priority([pb, pa]) == pa


def test_right_priority_prefix_rejected():
    a = ((0, 0), (0, 1), (1, 1))
    b = ((0, 0), (0, 1), (1, 1), (2, 1))
    with pytest.raises(PrefixAmbiguity):
        right_priority([a, b])


def test_right_priority_beats_all_pairwise(rng):
    # The chosen element wins every pairwise comparison.
    for _ in range(100):
        base = [(0, 0), (1, 0)]
        cands = set()
        while len(cands) < 5:
            walk = list(base)
            seen = set(walk)
            for _ in range(rng.randrange(1, 5)):
                x, y = walk[-1]
                nxt = rng.choice([(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)])
                if nxt in seen:
                    break
                walk.append(nxt)
                seen.add(nxt)
            if len(walk) > 2:
                cands.add(tuple(walk))
        cands = sorted(cands)
        prefix_free = [c for c in cands
                       if not any(c != o and o[:len(c)] == c for o in cands)
                       and not any(c != o and c[:len(o)] == o for o in cands)]
        if len(prefix_free) < 2:
            continue
        best = right_priority(prefix_free)
        for other in prefix_free:
            if other != best:
                assert _beats(best, other)


# -- lemma checkers ------------------------------------------------------------


def test_checkers_unit(unit, unit_path):
    assert check_glue_east(unit, unit_path) is None
    assert check_glue_side(unit, unit_path) is None


def test_check_glue_east_precondition(unit):
    sys_ = system_of([("T", "t", "t", "t", "t")], {(0, 0): "T"})
    p = path_of(sys_, (1, 0, "T"), (1, 1, "T"), (2, 1, "T"), (2, 0, "T"))
    # Last glue points south: not north-visible.
    with pytest.raises(LastGlueNotVisible):
        check_glue_east(sys_, p)


def test_check_glue_east_one_tile_path(unit):
    # A one-tile path has no last glue to see from the north.
    with pytest.raises(LastGlueNotVisible):
        check_glue_east(unit, path_of(unit, (1, 0, "A")))


def test_check_glue_side_precondition(unit):
    backwards = Path(list(reversed(
        path_of(unit, (1, 0, "A"), (2, 0, "A")).entries)))
    with pytest.raises(NotEasternmost):
        check_glue_side(unit, backwards)


def test_staircase_side_disjunct(staircase):
    sys_, p = staircase
    assert check_glue_side(sys_, p) is None


def test_checkers_hold_on_corpus(rng):
    checked = [check_orderings(sys_, p) for sys_, p in _short_walks(rng, 500) if len(p) > 1]
    checked_east, checked_side = map(sum, zip(*checked))
    assert checked_east > 200 and checked_side > 200


def test_detector_fires_on_forced_visibility(monkeypatch):
    # Under the straddling-pair blocking rule no chain-adjacent path seems
    # able to violate the ordering discipline, visible or not; to show the
    # detector is not vacuous, force visibility wide open and feed it a
    # bend whose west glue sits east of an east glue.
    sys_ = system_of([("T", "t", "t", "t", "t")], {(9, 9): "T"})
    p = path_of(sys_, (0, 0, "T"), (1, 0, "T"), (1, 1, "T"), (0, 1, "T"))

    def wide_open(self, i, direction):
        g = self.glues[i]
        if g.horizontal != (direction in ("south", "north")):
            raise OrientationMismatch(direction)
        return True

    monkeypatch.setattr(GlueView, "visible", wide_open)
    got = check_glue_east(sys_, p)
    assert got is not None
