"""Glue visibility, spans, and right-priority selection for paths.

A glue of a path is the labelled contact between two consecutive tiles;
it is *visible from the south* when the vertical ray dropped from its
midpoint meets neither the path's embedding nor the seed.  Because the
ray runs on a glue column (odd doubled x) it can only be blocked by other
glues of the path on the same column, or by the edge between two
horizontally adjacent seed tiles straddling that column; this makes
visibility a per-column min/max question and keeps everything exact.

Only a column's lowest glue can be seen from the south and only its
highest from the north, so a :class:`GlueView` keeps just those: one pass
over the path's positions gives each glue column its two extremal glue
indices and their heights, with no glue record and no label lookup.
Labels and pointing are read off the path's positions and types when a
rule needs them, and a glue's :class:`GlueRef` is built only when a caller
names that glue.  The visible banks are lists of glue indices.

A span joins the lowest and the highest glue of one glue column.  The
span rule is one pass over the column extremes,
:meth:`GlueView.column_spans`, which gives each eligible column a plain
record ``(s, n, label, pointing, height)``; :func:`spans` wraps every
record in a :class:`Span`, while the driver's span ledger reads the
records and builds a ``Span`` only for the columns it hands on.

This module works on glue columns only, as the paper's spans do.  East
and west rays, and spans along glue rows, are the south and north rays
and the column spans of the transposed instance (``driver.TRANSPOSE``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

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

# A column's span as ``(s, n, label, pointing, height)``: see GlueView.column_spans.
SpanRecord = tuple[int, int, str, Optional[str], int]


@dataclass(slots=True)
class GlueRef:
    """Glue ``index`` sits between path tiles ``index`` and ``index + 1``.

    A plain slotted record, not a frozen one: a frozen dataclass pays a
    ``setattr`` call per field.  A view builds one only when a caller names
    its glue (:meth:`GlueView.glue`).  Nothing changes a ``GlueRef`` after
    it is built.
    """

    index: int
    label: str
    pointing: str
    midpoint: Point  # doubled coordinates; exactly one odd component
    horizontal: bool  # points east or west: the midpoint's x is odd

    @property
    def column(self) -> int:
        """Glue column index (tile units); only for east/west glues."""
        return (self.midpoint[0] - 1) // 2


class GlueView:
    """Per-column glue and blocking data of one path, for visibility queries.

    A glue ray is blocked by any 4-adjacent tile pair of seed plus path
    that straddles it strictly beyond its start, whether or not the pair
    interacts and whichever of the two assemblies each tile comes from.
    Consecutive path pairs (the glues themselves, and with them every
    crossing of the path's embedding) are such pairs, so the lowest and
    highest pair midpoint on each column answer every visibility query in
    O(1); the stronger rule is what keeps the engine's workspace free of
    the seed and the retained prefix in every case.

    Built with the view, in one pass each and with no glue record: ``cols``,
    the lowest and the highest glue of each glue column as
    ``(lo index, lo y, hi index, hi y)`` (doubled ``y``), ``pair_cols`` and
    ``seed_glue_cols``.  Everything else is read off these and the path's
    positions on request.  A glue's :class:`GlueRef` is built from path
    tiles ``i`` and ``i + 1`` each time a caller names it (:meth:`glue`):
    a record costs under a microsecond, and callers name few glues twice.
    The full list (:attr:`glues`) is built on first read, and the decision
    never reads it.

    The visible banks (:attr:`banks`, glue indices) are read off the column
    extremes, once per view.  A horizontal glue joins two horizontally
    adjacent tiles, so it is itself a pair straddling its column, and a
    glue lower on the same column blocks it from the south.  Only a
    column's lowest glue can therefore be visible from the south, and only
    its highest from the north; each is visible when no straddling pair
    lies beyond it.  This needs the glues of one column to have distinct
    midpoints, as on any self-avoiding path.  The span records
    (:meth:`column_spans`) are read off the same extremes, in one pass when
    asked for and never while the view is built: most views, such as the
    shield search's, never read them.

    A view holds ``sys`` and ``path``, so it is the per-frame context the
    driver hands down: each frame builds one and shares it.
    """

    def __init__(self, sys: TileSystem, p: Path):
        self.sys = sys
        self.path = p
        # On each glue column, the lowest and the highest glue: a span joins
        # them.  Ties keep the first glue as the lowest and the last as the
        # highest, as a stable sort of the glues in path order would.
        cols: dict[int, tuple[int, int, int, int]] = {}
        positions = p.positions
        if positions:
            x0, y0 = positions[0]
            # Glue i joins tiles i and i + 1; it is horizontal when they share a row.
            for i, (x1, y1) in enumerate(positions[1:]):
                if y1 == y0:
                    gx, gy = x0 + x1, y0 + y1
                    old = cols.get(gx)
                    if old is None:
                        cols[gx] = (i, gy, i, gy)
                    elif gy < old[1]:
                        cols[gx] = (i, gy, old[2], old[3])
                    elif gy >= old[3]:
                        cols[gx] = (old[0], old[1], i, gy)
                x0, y0 = x1, y1
        self.cols = cols
        # Lowest and highest midpoint of the adjacent tile pairs of seed +
        # path straddling each glue column; only these two can block.
        tiles = set(sys.seed.tiles)
        tiles.update(positions)
        pair_cols: dict[int, tuple[int, int]] = {}
        for (x, y) in tiles:
            if (x + 1, y) in tiles:
                key, c = 2 * x + 1, 2 * y
                old = pair_cols.get(key)
                if old is None:
                    pair_cols[key] = (c, c)
                elif c < old[0]:
                    pair_cols[key] = (c, old[1])
                elif c > old[1]:
                    pair_cols[key] = (old[0], c)
        self.pair_cols = pair_cols
        # Columns carrying a labelled seed glue are ineligible for spans.
        self.seed_glue_cols: set[int] = set()
        for (x, y), t in sys.seed.tiles.items():
            if t.east is not None:
                self.seed_glue_cols.add(2 * x + 1)
            if t.west is not None:
                self.seed_glue_cols.add(2 * x - 1)

    # -- glue records, on request ------------------------------------------------

    def glue(self, i: int) -> GlueRef:
        """A fresh record of glue ``i``, built from path tiles ``i`` and ``i + 1``."""
        positions = self.path.positions
        if not 0 <= i < len(positions) - 1:
            raise IndexError(f"no glue {i} on a path of {len(positions)} tiles")
        x0, y0 = positions[i]
        x1, y1 = positions[i + 1]
        # The glue sits on the side of tile i it points out of.
        side = POINTING[(x1 - x0, y1 - y0)]
        return GlueRef(i, getattr(self.path.types[i], side), side, (x0 + x1, y0 + y1),
                       y0 == y1)

    @cached_property
    def glues(self) -> list[GlueRef]:
        """Every glue's record in path order, built on first read."""
        return [self.glue(i) for i in range(len(self.path) - 1)]

    def east_pointing(self, indices: Iterable[int]) -> list[int]:
        """The east-pointing glues among the horizontal glues ``indices``."""
        positions = self.path.positions
        return [i for i in indices if positions[i + 1][0] > positions[i][0]]

    def west_pointing(self, indices: Iterable[int]) -> list[int]:
        """The west-pointing glues among the horizontal glues ``indices``."""
        positions = self.path.positions
        return [i for i in indices if positions[i + 1][0] < positions[i][0]]

    # -- visibility ---------------------------------------------------------

    def visible(self, i: int, direction: str) -> bool:
        """Whether glue ``i`` is visible from the ``"south"`` or ``"north"``."""
        if direction not in ("south", "north"):
            raise ValueError(f"unknown direction {direction!r}")
        positions = self.path.positions
        if not 0 <= i < len(positions) - 1:
            raise IndexError(f"no glue {i} on a path of {len(positions)} tiles")
        x0, y0 = positions[i]
        x1, y1 = positions[i + 1]
        if y0 != y1:
            raise OrientationMismatch(
                f"glue {i} points {self.glue(i).pointing}; no {direction} ray from it")
        lo, hi = self.pair_cols[x0 + x1]  # holds at least the glue's own pair
        return lo >= y0 + y1 if direction == "south" else hi <= y0 + y1

    @cached_property
    def banks(self) -> tuple[list[int], list[int]]:
        """Indices of the south- and north-visible glues, ascending.

        Read off the column extremes once per view; the lists are shared,
        so a caller must not change them.
        """
        south, north = [], []
        pair_cols = self.pair_cols
        for gx, (lo, lo_y, hi, hi_y) in self.cols.items():
            low_pair, high_pair = pair_cols[gx]
            if low_pair >= lo_y:
                south.append(lo)
            if high_pair <= hi_y:
                north.append(hi)
        south.sort()
        north.sort()
        return south, north

    def south_visible(self) -> list[GlueRef]:
        """Records of the glues visible from the south, in path order (a fresh list)."""
        return [self.glue(i) for i in self.banks[0]]

    def north_visible(self) -> list[GlueRef]:
        """Records of the glues visible from the north, in path order (a fresh list)."""
        return [self.glue(i) for i in self.banks[1]]

    # -- spans -----------------------------------------------------------------

    def check_spans_defined(self) -> None:
        """Raise :class:`NotCanonical` unless this path's spans are defined.

        They are defined when the path has a glue and its last glue is
        the unique easternmost glue of path and seed; this guarantees each
        column's extremal glues really are visible.  A glue's midpoint x
        (doubled) is the sum of its two tiles' x, so this reads positions.
        """
        positions = self.path.positions
        if len(positions) < 2:
            raise NotCanonical("path has no glues")
        xs = [q[0] for q in positions]
        last_x = xs[-2] + xs[-1]
        if (max(map(add, xs[:-2], xs[1:-1]), default=last_x - 1) < last_x
                and all(x < last_x for x, _ in self.seed_glue_midpoints())):
            return
        # The driver's ledger-unavailable trail quotes this text, axis and all.
        raise NotCanonical("last glue is not the unique extremal glue on axis vertical")

    def column_spans(self) -> dict[int, SpanRecord]:
        """The span record ``(s, n, label, pointing, height)`` of each eligible column.

        Keys are glue columns in tile units, ascending.  A column is
        eligible when it carries no labelled seed glue and no straddling
        pair lies beyond either of its extremal glues; ``s`` is the index
        of its lowest glue, ``n`` of its highest, ``label`` the label of
        the one earlier on the path, ``pointing`` their common pointing or
        ``None``, and ``height`` the tile distance between them.  This one
        pass over the column extremes is the span rule; :class:`Span`
        records are built from it (:meth:`Span.of`) only where a caller
        needs them.  It does not check :meth:`check_spans_defined`.

        Labels and pointing come from the path's tiles: a glue on doubled
        column ``key`` points east exactly when its first tile's doubled x
        is below ``key``, so the two extremes point alike exactly when
        their first tiles share an x.
        """
        cols, pair_cols, seed_glue = self.cols, self.pair_cols, self.seed_glue_cols
        positions, types = self.path.positions, self.path.types
        out = {}
        for key, (s, lo_y, n, hi_y) in sorted(cols.items()):
            if key in seed_glue:
                continue
            low_pair, high_pair = pair_cols[key]
            if low_pair < lo_y or high_pair > hi_y:
                continue  # a straddling tile pair blocks an extremal ray
            first, other = (s, n) if s <= n else (n, s)
            x = positions[first][0]
            if 2 * x < key:
                label, pointing = types[first].east, "east"
            else:
                label, pointing = types[first].west, "west"
            if other != first and positions[other][0] != x:
                pointing = None
            # Both extremal glues lie on the column, so their midpoints differ
            # along it by twice the tile distance of tiles s and n.
            out[key >> 1] = (s, n, label, pointing, (hi_y - lo_y) >> 1)
        return out

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


@dataclass(slots=True)
class Span:
    """Extremal visible glue pair on one glue column.

    ``s`` is the glue index visible from the south, ``n`` the one visible
    from the north, and ``coordinate`` the glue column in tile units.
    Spans along glue rows are the spans of the transposed instance.

    A plain slotted record, like :class:`GlueRef`, read off a column's
    span record by :meth:`of`.  Nothing changes a ``Span`` after it is
    built, and nothing hashes one (a mutable dataclass is not hashable).
    """

    s: int
    n: int
    coordinate: int
    orientation: str  # "up" when s <= n, else "down"
    pointing: Optional[str]
    glue_type: str
    height: int

    @classmethod
    def of(cls, column: int, rec: SpanRecord) -> "Span":
        """The span of glue column ``column``, read off its record ``rec``."""
        s, n, label, pointing, height = rec
        return cls(s, n, column, "up" if s <= n else "down", pointing, label, height)


def spans(sys: TileSystem, p: Path, view: Optional[GlueView] = None) -> list[Span]:
    """One span per eligible glue column, sorted by column.

    Raises :class:`NotCanonical` when the spans are undefined
    (:meth:`GlueView.check_spans_defined`).  Columns carrying labelled
    seed glues are skipped, as are columns where an unlabelled seed edge
    blocks the extremal ray (:meth:`GlueView.column_spans`).  ``view``,
    when given, is a prebuilt :class:`GlueView` of ``(sys, p)``.  Each
    :class:`Span` is a fresh slotted record, compared by value and not
    hashable.
    """
    if view is None:
        view = GlueView(sys, p)
    view.check_spans_defined()
    return [Span.of(col, rec) for col, rec in view.column_spans().items()]


# -- right priority ------------------------------------------------------------

if TYPE_CHECKING:
    # Only annotations read it: a subscripted alias built at import stays in
    # typing's cache, and with it the classes of that import of the package.
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
    last = len(p) - 2
    if last < 0:
        raise LastGlueNotVisible("precondition: the path has no glue")
    view = GlueView(sys, p)
    lg = view.glues[last]
    if not lg.horizontal or not view.visible(last, "north"):
        raise LastGlueNotVisible("precondition: last glue visible from the north")
    # Visibility glue by glue, from its definition: the lemma checker
    # does not rest on the column rule the view's banks use.
    sv = [g for g in view.glues if g.horizontal and view.visible(g.index, "south")]
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
