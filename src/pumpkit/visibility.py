"""Glue visibility, spans, and right-priority selection for paths.

A glue of a path is the labelled contact between two consecutive tiles;
it is *visible from the south* when the vertical ray dropped from its
midpoint meets neither the path's embedding nor the seed.  Because the
ray runs on a glue column (odd doubled x) it can only be blocked by other
glues of the path on the same column, or by the edge between two
horizontally adjacent seed tiles straddling that column; this makes
visibility a per-column min/max question and keeps everything exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from . import tam
from .errors import (
    LastGlueNotVisible,
    NotCanonical,
    NotEasternmost,
    OrientationMismatch,
    PrefixAmbiguity,
)
from .geometry import Point, Turn, turn_right_of_path
from .tam import Path, TileSystem

POINTING = {(1, 0): "east", (-1, 0): "west", (0, 1): "north", (0, -1): "south"}


@dataclass(frozen=True)
class GlueRef:
    """Glue ``index`` sits between path tiles ``index`` and ``index + 1``."""

    index: int
    label: str
    pointing: str
    midpoint: Point  # doubled coordinates; exactly one odd component

    @property
    def horizontal(self) -> bool:
        """True when the glue points east or west (sits on a glue column)."""
        return self.pointing in ("east", "west")

    @property
    def column(self) -> int:
        """Glue column index (tile units); only for east/west glues."""
        return (self.midpoint[0] - 1) // 2

    @property
    def row(self) -> int:
        return (self.midpoint[1] - 1) // 2


def glue_refs(p: Path) -> list[GlueRef]:
    refs = []
    for i in range(len(p) - 1):
        (x0, y0), t0 = p[i]
        (x1, y1), t1 = p[i + 1]
        step = (x1 - x0, y1 - y0)
        side = tam.SIDE_OF_STEP[step]
        label = t0.glue(side)
        refs.append(GlueRef(i, label, POINTING[step], (x0 + x1, y0 + y1)))
    return refs


class GlueView:
    """Precomputed per-column/per-row glue and blocking data for one path.

    A glue ray is blocked by any 4-adjacent tile pair of seed plus path
    that straddles it strictly beyond its start, whether or not the pair
    interacts and whichever of the two assemblies each tile comes from.
    Consecutive path pairs (the glues themselves, and with them every
    crossing of the path's embedding) are such pairs, so one midpoint map
    per column/row answers every visibility query; the stronger rule is
    what keeps the engine's workspace free of the seed and the retained
    prefix in every case.
    """

    def __init__(self, sys: TileSystem, p: Path):
        self.sys = sys
        self.path = p
        self.glues = glue_refs(p)
        self.cols: dict[int, list[GlueRef]] = {}
        self.rows: dict[int, list[GlueRef]] = {}
        for g in self.glues:
            if g.horizontal:
                self.cols.setdefault(g.midpoint[0], []).append(g)
            else:
                self.rows.setdefault(g.midpoint[1], []).append(g)
        for lst in self.cols.values():
            lst.sort(key=lambda g: g.midpoint[1])
        for lst in self.rows.values():
            lst.sort(key=lambda g: g.midpoint[0])
        # Midpoints of all adjacent tile pairs in seed + path.
        self.pair_cols: dict[int, list[int]] = {}
        self.pair_rows: dict[int, list[int]] = {}
        tiles = set(sys.seed.tiles) | {pos for pos, _ in p.entries}
        for (x, y) in tiles:
            if (x + 1, y) in tiles:
                self.pair_cols.setdefault(2 * x + 1, []).append(2 * y)
            if (x, y + 1) in tiles:
                self.pair_rows.setdefault(2 * y + 1, []).append(2 * x)
        # Columns/rows carrying a labelled seed glue are ineligible for spans.
        self.seed_glue_cols: set[int] = set()
        self.seed_glue_rows: set[int] = set()
        for (x, y), t in sys.seed.tiles.items():
            if t.east is not None:
                self.seed_glue_cols.add(2 * x + 1)
            if t.west is not None:
                self.seed_glue_cols.add(2 * x - 1)
            if t.north is not None:
                self.seed_glue_rows.add(2 * y + 1)
            if t.south is not None:
                self.seed_glue_rows.add(2 * y - 1)

    # -- visibility ---------------------------------------------------------

    def visible(self, i: int, direction: str) -> bool:
        g = self.glues[i]
        if direction in ("south", "north"):
            if not g.horizontal:
                raise OrientationMismatch(
                    f"glue {i} points {g.pointing}; no {direction} ray from it")
            gx, gy = g.midpoint
            blockers = self.pair_cols.get(gx, ())
            if direction == "south":
                return not any(sy < gy for sy in blockers)
            return not any(sy > gy for sy in blockers)
        if direction in ("east", "west"):
            if g.horizontal:
                raise OrientationMismatch(
                    f"glue {i} points {g.pointing}; no {direction} ray from it")
            gx, gy = g.midpoint
            blockers = self.pair_rows.get(gy, ())
            if direction == "west":
                return not any(sx < gx for sx in blockers)
            return not any(sx > gx for sx in blockers)
        raise ValueError(f"unknown direction {direction!r}")

    def south_visible(self) -> list[GlueRef]:
        return [g for g in self.glues if g.horizontal and self.visible(g.index, "south")]

    def north_visible(self) -> list[GlueRef]:
        return [g for g in self.glues if g.horizontal and self.visible(g.index, "north")]

    def seed_glue_midpoints(self) -> list[Point]:
        """Midpoints of the seed's labelled glues (doubled coordinates)."""
        pts = []
        for (x, y), t in self.sys.seed.tiles.items():
            for label, mid in ((t.north, (2 * x, 2 * y + 1)),
                               (t.east, (2 * x + 1, 2 * y)),
                               (t.south, (2 * x, 2 * y - 1)),
                               (t.west, (2 * x - 1, 2 * y))):
                if label is not None:
                    pts.append(mid)
        return pts


def visible(sys: TileSystem, p: Path, i: int, direction: str) -> bool:
    """Whether glue ``i`` of the path is visible from the given direction."""
    return GlueView(sys, p).visible(i, direction)


# -- spans --------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """Extremal visible glue pair on one glue column (or row).

    ``s`` is the glue index visible from the south (west for horizontal
    spans), ``n`` the one visible from the north (east).  ``coordinate``
    is the glue column (row) in tile units.
    """

    s: int
    n: int
    coordinate: int
    axis: str  # "vertical" | "horizontal"
    orientation: str  # up/down for vertical, right/left for horizontal
    pointing: Optional[str]
    glue_type: str
    extent: int  # height of a vertical span, width of a horizontal one

    @property
    def height(self) -> int:
        return self.extent

    @property
    def width(self) -> int:
        return self.extent


def _axis_spans(view: GlueView, vertical: bool) -> list[Span]:
    p = view.path
    groups = view.cols if vertical else view.rows
    seed_glue = view.seed_glue_cols if vertical else view.seed_glue_rows
    pair_segs = view.pair_cols if vertical else view.pair_rows
    out = []
    for key in sorted(groups):
        if key in seed_glue:
            continue
        glues = groups[key]
        lo, hi = glues[0], glues[-1]  # sorted by the running coordinate
        segs = pair_segs.get(key, ())
        axis_idx = 1 if vertical else 0
        if any(c < lo.midpoint[axis_idx] for c in segs):
            continue  # a straddling tile pair blocks the low ray
        if any(c > hi.midpoint[axis_idx] for c in segs):
            continue
        s, n = lo.index, hi.index
        if vertical:
            orientation = "up" if s <= n else "down"
        else:
            orientation = "right" if s <= n else "left"
        pointing = lo.pointing if lo.pointing == hi.pointing else None
        first = lo if s <= n else hi
        extent = (p.pos(n)[axis_idx] - p.pos(s)[axis_idx])
        out.append(Span(s, n, (key - 1) // 2, "vertical" if vertical else "horizontal",
                        orientation, pointing, first.label, extent))
    return out


def spans(sys: TileSystem, p: Path, axis: str = "vertical") -> list[Span]:
    """One span per eligible glue column (row), sorted by coordinate.

    Requires the path's last glue to be the unique easternmost glue of
    path and seed for the vertical axis (unique highest for horizontal);
    this guarantees each column's extremal glues really are visible.
    Columns carrying labelled seed glues are skipped, as are columns where
    an unlabelled seed edge blocks the extremal ray.
    """
    if axis not in ("vertical", "horizontal"):
        raise ValueError("axis must be 'vertical' or 'horizontal'")
    if len(p) < 2:
        raise NotCanonical("path has no glues")
    view = GlueView(sys, p)
    last = view.glues[-1]
    coord = 0 if axis == "vertical" else 1
    rest = [g.midpoint for g in view.glues[:-1]] + view.seed_glue_midpoints()
    if any(m[coord] >= last.midpoint[coord] for m in rest):
        raise NotCanonical(
            f"last glue is not the unique extremal glue on axis {axis}")
    return _axis_spans(view, vertical=(axis == "vertical"))


# -- right priority ------------------------------------------------------------

PathLike = Union[Path, Sequence[Point]]


def _entries(c: PathLike):
    if isinstance(c, Path):
        return c.entries
    return tuple((tuple(p), None) for p in c)


def _beats(a: PathLike, b: PathLike) -> bool:
    """Whether ``a`` is the right-priority one of paths ``a`` and ``b``."""
    ea, eb = _entries(a), _entries(b)
    if ea == eb:
        raise PrefixAmbiguity("duplicate candidate")
    n = min(len(ea), len(eb))
    div = next((t for t in range(n) if ea[t] != eb[t]), None)
    if div is None:
        raise PrefixAmbiguity("one candidate is a prefix of another")
    pa, pb = ea[div][0], eb[div][0]
    if pa == pb:
        # Same position, different tile type: canonical (name) order wins.
        return ea[div][1].name < eb[div][1].name
    # Shared first two positions force the divergence past index 1, so the
    # previous two entries exist and give the turn frame.
    prev, cur = ea[div - 2][0], ea[div - 1][0]
    return turn_right_of_path(prev, cur, taken=pb, candidate=pa) is Turn.RIGHT


def right_priority(candidates: Sequence[PathLike]) -> PathLike:
    """The candidate that is right-priority over every other one.

    All candidates must share their first two positions and none may be a
    prefix of another.  The comparison is a strict total order, so a
    single sweep finds the maximum.
    """
    items = list(candidates)
    if not items:
        raise ValueError("empty candidate set")
    first = _entries(items[0])
    for c in items[1:]:
        e = _entries(c)
        if len(e) < 2 or e[0][0] != first[0][0] or e[1][0] != first[1][0]:
            raise ValueError("candidates must share their first two positions")
    best = items[0]
    for other in items[1:]:
        if _beats(other, best):
            best = other
    return best


# -- executable lemma checkers --------------------------------------------------

def check_glue_east(sys: TileSystem, p: Path):
    """Order/pointing discipline of south-visible glues.

    On a producible path whose last glue is visible from the north, any
    two south-visible glues obey: if one points east and lies west of the
    other, the other comes later on the path and points east too (and the
    west-mirrored statement).  Returns ``None`` when the discipline holds,
    else the first offending pair ``(a, b)``.  A counterexample on a
    producible input marks an implementation bug; the suite treats it as
    a failure.
    """
    view = GlueView(sys, p)
    last = len(p) - 2
    lg = view.glues[last]
    if not lg.horizontal or not view.visible(last, "north"):
        raise LastGlueNotVisible("precondition: last glue visible from the north")
    sv = view.south_visible()
    for a in sv:
        for b in sv:
            if a.index == b.index:
                continue
            xa, xb = p.pos(a.index)[0], p.pos(b.index)[0]
            if a.pointing == "east" and xa < xb:
                if not (a.index < b.index and b.pointing == "east"):
                    return (a.index, b.index)
            if a.pointing == "west" and xa > xb:
                if not (a.index < b.index and b.pointing == "west"):
                    return (a.index, b.index)
    return None


def check_glue_side(sys: TileSystem, p: Path):
    """One of the two visible banks points uniformly east.

    Requires the last tile of the path to be the unique easternmost tile
    of path plus seed.  Returns ``None`` when all north-visible glues
    point east or all south-visible glues do; otherwise a witness pair
    ``(north_index, south_index)`` of west-pointing visible glues.
    """
    xs = [x for (x, _) in p.positions] + [x for (x, _) in sys.seed.tiles]
    last_x = p.pos(len(p) - 1)[0]
    if xs.count(last_x) != 1 or last_x != max(xs):
        raise NotEasternmost("precondition: last tile unique easternmost")
    view = GlueView(sys, p)
    north_west = [g for g in view.north_visible() if g.pointing == "west"]
    south_west = [g for g in view.south_visible() if g.pointing == "west"]
    if north_west and south_west:
        return (north_west[0].index, south_west[0].index)
    return None
