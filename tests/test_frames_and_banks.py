"""One pass per frame: orientation, margins, early ``TooShort``, visible banks, flips.

``driver._orient_east`` reads its quarter turn off the last tile's
extremes and its margins off one bounding box; ``canonicalize`` orients
its cut path through it and stops at once on a path with no more than
``half`` tiles; ``GlueView`` keeps only the column extremes, builds a
glue record when one is named, and reads the visible banks, the span
records and the span precondition off the extremes and the positions;
the driver reads a down span's upright form in the ``FLIP_V`` frame off
the span itself (``driver._flipped``); the span ledger reads the view's
span records over its stretch only.  Inline copies of the code as it
read before (per-turn point lists, the per-point margin translation, the
turn read off the side of the square, the separate glue pass, the
per-glue visibility scan, the span rule over glue records, the rebuilt
``FLIP_V`` view and the ledger over an all-spans dict) are the
references they must reproduce exactly: on criterion 9's corpus and on
seeded random producible walks of 40-150 tiles (one-type tower walks for
the flips, the tall-span towers and one hand-built path for the ledger).
"""

import random
from collections import Counter
from dataclasses import replace
from itertools import chain

import pytest

from pumpkit import driver, tam
from pumpkit.driver import FLIP_V, IDENTITY, Frame, canonicalize
from pumpkit.errors import ClaimViolation, NotCanonical, TooShort
from pumpkit.formats import parse_system
from pumpkit.visibility import GlueRef, GlueView, Span, spans

from conftest import (TALL_BRANCH_CASES, _producible_walks, _tower_walks, and_east_facing,
                      corpus_paths, path_of, system_of, time_budget, tower_path)

REFERENCE_SECONDS = 5.0  # per test; each takes well under 2 s on a 2-core machine

# The frames ``_case_tall_prefix`` turns its prefix by before orienting it.
TALL_PREFIX_TURNS = (Frame.rotation(3), Frame.rotation(3).compose(FLIP_V))

_TURNS = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0))


def reference_to_margins(frame, sys_, p):
    """``frame``, then the translation putting seed plus path on both axes."""
    pts = frame._points(chain(sys_.seed.tiles, (q for q, _ in p.entries)))
    return Frame.translation((-min(x for x, _ in pts),
                              -min(y for _, y in pts))).compose(frame)


def reference_orient_east(sys_, p, frame=IDENTITY):
    """The first quarter turn whose point list has the last tile unique easternmost."""
    pts = frame._points(chain(sys_.seed.tiles, (q for q, _ in p.entries)))
    for k, (a, b, _, _) in enumerate(_TURNS):
        xs = [a * x + b * y for x, y in pts]
        if xs.count(xs[-1]) == 1 and xs[-1] == max(xs):
            return reference_to_margins(Frame.rotation(k).compose(frame), sys_, p)
    return None


def reference_canonical_frame(sys_, p, dist):
    """``canonicalize``'s frame from a scan of the whole path, or ``None``."""
    half = dist + len(sys_.seed)
    x0, y0 = p.pos(0)
    east, west, north, south = x0 + half, x0 - half, y0 + half, y0 - half
    b = next((s for s, ((x, y), _) in enumerate(p.entries)
              if x == east or y == north or x == west or y == south), None)
    if b is None:
        return None
    bx, by = p.pos(b)[0] - x0, p.pos(b)[1] - y0
    turns = 0 if bx == half else 3 if by == half else 2 if bx == -half else 1
    return reference_to_margins(
        Frame.rotation(turns).compose(Frame.translation((-x0, -y0))), sys_, p.prefix(b))


def reference_glue_refs(p):
    """One glue record per consecutive tile pair, in a pass of its own."""
    entries = p.entries
    refs = []
    for i in range(len(entries) - 1):
        (x0, y0), t0 = entries[i]
        x1, y1 = entries[i + 1][0]
        side = tam.SIDE_OF_STEP[(x1 - x0, y1 - y0)]
        mx = x0 + x1
        refs.append(GlueRef(i, getattr(t0, side), side, (mx, y0 + y1), mx % 2 == 1))
    return refs


def reference_columns(refs):
    """Lowest and highest glue record of each glue column, from the records."""
    cols = {}
    for g in refs:
        if g.horizontal:
            lo, hi = cols.get(g.midpoint[0], (g, g))
            if g.midpoint[1] < lo.midpoint[1]:
                lo = g
            elif g.midpoint[1] >= hi.midpoint[1]:
                hi = g
            cols[g.midpoint[0]] = (lo, hi)
    return cols


def reference_column_spans(view, refs):
    """The span records as read off glue records, with the view's blocking data."""
    cols = reference_columns(refs)
    out = {}
    for key in sorted(cols):
        lo, hi = cols[key]
        low_pair, high_pair = view.pair_cols[key]
        if (key in view.seed_glue_cols or low_pair < lo.midpoint[1]
                or high_pair > hi.midpoint[1]):
            continue
        out[(key - 1) // 2] = (lo.index, hi.index,
                               (lo if lo.index <= hi.index else hi).label,
                               lo.pointing if lo.pointing == hi.pointing else None,
                               (hi.midpoint[1] - lo.midpoint[1]) // 2)
    return out


def reference_spans_defined(view, refs):
    """Whether the last glue record is the unique easternmost glue of path and seed."""
    if not refs:
        return False
    last_x = refs[-1].midpoint[0]
    rest = [g.midpoint for g in refs[:-1]] + view.seed_glue_midpoints()
    return all(m[0] < last_x for m in rest)


def reference_banks(view):
    """South- and north-visible glues by the per-glue ``visible`` scan."""
    return ([g for g in view.glues if g.horizontal and view.visible(g.index, "south")],
            [g for g in view.glues if g.horizontal and view.visible(g.index, "north")])


def reference_flipped_spans(sys_, p):
    """The spans of a rebuilt ``FLIP_V`` view by column, as the driver looked them up."""
    return {s.coordinate: s for s in spans(FLIP_V.apply(sys_), FLIP_V.apply(p))}


def reference_all_spans(view):
    """Every span of the view by column, behind the extremal-glue check as it read."""
    if len(view.path) < 2:
        raise NotCanonical("path has no glues")
    last_x = view.glues[-1].midpoint[0]
    rest = [g.midpoint for g in view.glues[:-1]] + view.seed_glue_midpoints()
    if any(m[0] >= last_x for m in rest):
        raise NotCanonical("last glue is not the unique extremal glue on axis vertical")
    return {col: Span.of(col, rec) for col, rec in view.column_spans().items()}


def reference_build_ledger(view, trail):
    """The span ledger from the all-spans dict: ``(stretch, columns)`` or ``None``."""
    try:
        all_spans = reference_all_spans(view)
    except NotCanonical as e:
        trail.append(f"ledger-unavailable: {e}")
        return None
    x_last = max(all_spans, default=None)
    if x_last is None or all_spans[x_last].pointing != "east":
        raise ClaimViolation("ledger-east-end", "the last glue has no east-pointing span")
    x0 = x_last
    while (x0 - 1) in all_spans and all_spans[x0 - 1].pointing == "east":
        x0 -= 1
    stretch = {col: all_spans[col] for col in range(x0, x_last + 1)}
    first_seen = {}
    for col, s in stretch.items():
        first_seen.setdefault((s.glue_type, s.orientation), col)
    tiles = len(view.sys.tiles)
    if len(first_seen) > 2 * tiles:
        raise ClaimViolation("ledger-size",
                             f"{len(first_seen)} span signatures for {tiles} tile types")
    return stretch, [*first_seen.values(), x_last]


def reference_couple_pair(stretch):
    """Westernmost same-signature pair with non-decreasing height, over the stretch."""
    found = list(stretch.values())
    for ai, sa in enumerate(found):
        for sb in found[ai + 1:]:
            if (sb.glue_type == sa.glue_type and sb.orientation == sa.orientation
                    and sb.height >= sa.height):
                return sa, sb
    return None


def test_banks_from_columns_match_per_glue_scan():
    # The view keeps only column extremes and builds glue records on
    # request; its banks, their pointing filters, span records and span
    # precondition must equal what the records of a separate pass give.
    with time_budget(REFERENCE_SECONDS):
        n_paths = n_visible = n_west = n_spans = n_defined = 0
        for sys_, p in chain(corpus_paths(), _producible_walks(random.Random(17), 300)):
            view = GlueView(sys_, p)
            refs = reference_glue_refs(p)
            assert view.cols == {key: (lo.index, lo.midpoint[1], hi.index, hi.midpoint[1])
                                 for key, (lo, hi) in reference_columns(refs).items()}
            assert view.glues == reference_glue_refs(p)
            south, north = reference_banks(view)
            assert view.south_visible() == south
            assert view.north_visible() == north
            assert view.banks == ([g.index for g in south], [g.index for g in north])
            for bank, bank_refs in zip(view.banks, (south, north)):
                west = [g.index for g in bank_refs if g.pointing == "west"]
                assert view.west_pointing(bank) == west
                assert view.east_pointing(bank) == [g.index for g in bank_refs
                                                    if g.pointing == "east"]
                n_west += bool(west)
            records = reference_column_spans(view, refs)
            assert view.column_spans() == records
            defined = reference_spans_defined(view, refs)
            if defined:
                view.check_spans_defined()
            else:
                with pytest.raises(NotCanonical):
                    view.check_spans_defined()
            n_paths += 1
            n_visible += len(south) + len(north)
            n_spans += len(records)
            n_defined += defined
        assert n_paths > 5000 and n_visible > 20000 and n_west > 1000
        assert n_spans > 20000 and 1000 < n_defined < n_paths


def test_banks_are_fresh_lists_of_one_view():
    sys_ = system_of([("Z", "z", "z", "z", "z")], {(0, 0): "Z"})
    # Glues 0 and 2 share a column: only the lower is visible from the
    # south, only the higher from the north.
    view = GlueView(sys_, path_of(sys_, (1, 0, "Z"), (2, 0, "Z"), (2, 1, "Z"), (1, 1, "Z")))
    first = view.south_visible()
    first.clear()
    assert [g.index for g in view.south_visible()] == [0]
    assert [g.index for g in view.north_visible()] == [2]


def test_orient_east_matches_per_turn_point_lists():
    with time_budget(REFERENCE_SECONDS):
        counts = {"oriented": 0, "none": 0}
        instances = chain(_producible_walks(random.Random(23), 200),
                          (inst for n, inst in enumerate(corpus_paths()) if n % 4 == 0))
        for sys_, p in instances:
            for frame in (IDENTITY,) + TALL_PREFIX_TURNS:
                for cut in (len(p), len(p) // 2 + 1):
                    q = p.prefix(cut - 1)
                    want = reference_orient_east(sys_, q, frame)
                    assert driver._orient_east(sys_, q, frame) == want
                    counts["oriented" if want is not None else "none"] += 1
        assert counts["oriented"] > 2000 and counts["none"] > 200


def test_canonical_frame_matches_per_point_margins():
    # ``canonicalize`` orients through ``driver._orient_east``; the
    # reference reads the turn off the side of the square the cut tile is
    # on.  Each of the four sides is taken.
    with time_budget(REFERENCE_SECONDS):
        turns = Counter()
        for sys_, p in _producible_walks(random.Random(29), 200):
            for dist in (3, 8, 20):
                want = reference_canonical_frame(sys_, p, dist)
                try:
                    got = canonicalize(sys_, p, bound_override=dist).frame
                except TooShort:
                    assert want is None
                    continue
                assert got == want
                turns[got.turns] += 1
        assert sorted(turns) == [0, 1, 2, 3] and min(turns.values()) >= 100


@pytest.mark.parametrize("step", sorted(tam.STEP.values()))
@pytest.mark.parametrize("dist", [1, 4, 9])
def test_too_short_boundary_on_straight_paths(step, dist):
    # One seed tile, so half = dist + 1.  Tile s of a straight path lies
    # exactly s steps from tile 0: half tiles never reach the square, and
    # half + 1 tiles reach it with the last one.
    sys_ = system_of([("T", "g", "g", "g", "g")], {(0, 0): "T"})
    half = dist + 1
    dx, dy = step

    def straight(n):
        return path_of(sys_, *[((s + 1) * dx, (s + 1) * dy, "T") for s in range(n)])

    with pytest.raises(TooShort):
        canonicalize(sys_, straight(half), bound_override=dist)
    assert reference_canonical_frame(sys_, straight(half), dist) is None
    canon = canonicalize(sys_, straight(half + 1), bound_override=dist)
    assert canon.truncated_at == half and len(canon.path) == half + 1
    assert canon.frame == reference_canonical_frame(sys_, straight(half + 1), dist)


def test_flipped_span_matches_rebuilt_flip_view():
    # Every span of the mirrored frame is the span on the same column with
    # its two glues swapped; on a down span that is ``driver._flipped``.
    with time_budget(REFERENCE_SECONDS):
        fixtures = [tower_path(runs) for runs, _, _ in TALL_BRANCH_CASES]
        n_spans = n_flips = 0
        for sys_, p in chain(corpus_paths(), fixtures, _tower_walks(random.Random(31), 2500)):
            try:
                found = spans(sys_, p)
            except NotCanonical:
                continue
            rebuilt = reference_flipped_spans(sys_, p)
            assert list(rebuilt) == [s.coordinate for s in found]
            for s in found:
                mirrored = replace(s, s=s.n, n=s.s, orientation="up" if s.n <= s.s else "down")
                assert rebuilt[s.coordinate] == mirrored
                if s.orientation == "down":
                    assert driver._flipped(s) == mirrored
                    n_flips += 1
            n_spans += len(found)
        assert n_spans > 20000 and n_flips > 800


# The lowest glues of columns -1 and 0 point west and the highest east, so
# those spans point nowhere and the stretch stops just east of them.  Random
# walks never put such a span next to the stretch in the driver's frame.
MIXED_SPAN_TEXT = """\
tile G north=g east=g south=g west=g
tile P north=g east=g south=g west=p
tile Q north=g east=p south=g west=q
tile R north=g east=q south=g west=g
tile S north=g east=- south=- west=-
seed 0 0 S
path 0 1 G ; 0 2 G ; 1 2 G ; 1 1 G ; 1 0 G ; 1 -1 P ; 0 -1 Q ; -1 -1 R ; -1 0 G ; \
-1 1 G ; -1 2 G ; -1 3 G ; 0 3 G ; 1 3 G ; 2 3 G ; 3 3 G ; 4 3 G ; 5 3 G ; 6 3 G
"""


def _ledger_outcome(build, view):
    """``(trail, result)`` of one ledger build; a claim violation's text is its result."""
    trail = []
    try:
        return trail, build(view, trail)
    except ClaimViolation as e:
        return trail, f"ClaimViolation: {e}"


def test_ledger_matches_all_spans_reference():
    # The ledger reads the span records of its stretch only; the old one
    # built every span, an all-spans dict and a stretch dict.  Both run on
    # each path as given and, where it orients, in its east-facing frame,
    # where the driver builds its ledgers.
    with time_budget(REFERENCE_SECONDS):
        fixtures = [tower_path(runs) for runs, _, _ in TALL_BRANCH_CASES]
        fixtures.append(parse_system(MIXED_SPAN_TEXT))
        n_ledgers = n_unavailable = n_pairs = n_stretch = 0
        for sys_, p in and_east_facing(chain(corpus_paths(), fixtures,
                                             _producible_walks(random.Random(23), 300))):
            view = GlueView(sys_, p)
            want_trail, want = _ledger_outcome(reference_build_ledger, view)
            got_trail, got = _ledger_outcome(driver._build_ledger, view)
            assert got_trail == want_trail
            if not isinstance(want, tuple):
                assert got == want  # ``None``, or the same claim violation
                n_unavailable += want is None
                continue
            stretch, columns = want
            x_last = got.columns[-1]
            assert list(stretch) == list(range(got.x0, x_last + 1))
            assert [Span.of(col, got.spans[col]) for col in stretch] == list(stretch.values())
            assert got.columns == columns
            pair = driver._find_couple_pair(got)
            assert pair == reference_couple_pair(stretch)
            n_ledgers += 1
            n_pairs += pair is not None
            n_stretch += len(stretch)
        assert n_ledgers > 5000 and n_unavailable > 3000 and n_pairs > 4000 and n_stretch > 40000
