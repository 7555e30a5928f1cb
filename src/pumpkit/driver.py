"""End-to-end analysis pipeline: canonical form, span bookkeeping, case split.

The driver moves a producible path into a canonical frame (last tile
the unique easternmost), where a decision tree proposes shields, and
:func:`analyze` hands each proposal to the engine until one is decided,
then re-verifies the certificate in the caller's frame.  The tree, with
the trail tag each case writes:

- ``canonical(rot,cut)``, or ``below-bound(no truncation)`` and a
  best-effort orientation (``not-orientable`` when none exists);
- ``flip-vertical(orient visible bank)``: west glues visible from the
  north; mirror north-south and start again (``depth-limit`` past three);
- ``west-pigeonhole(i,j,k)``: two same-label west glues visible from the
  south give a shield in the east-west mirror;
- the span ledger over the east-pointing stretch of columns ending at
  the last glue (``ledger-unavailable`` when spans are undefined), then
  ``tall-span(col,h)`` for the first column whose span outruns the cone
  bound, or else ``cone-case(c0)``.  A tall span is decided in the prefix
  below it, upright (``flip-vertical(down span)``): ``narrow-prefix(i,j,k)``
  while the span is short against the prefix's width, else
  ``tall-prefix(north|south,rows)``, the prefix turned on its side and
  run through this tree again; ``narrow-prefix-fallthrough``,
  ``tall-prefix-too-flat`` and ``tall-span-fallthrough`` mark a case that
  found nothing;
- ``equal-span-pair(cols a,b)``: the westernmost repeated span pair,
  upright (``flip-vertical(down spans)``), or ``no-span-pair``.

The span ledger reads the frame view's span records
(:meth:`~pumpkit.visibility.GlueView.column_spans`, plain tuples keyed by
column): it walks west from the last glue's column while the records
point east, keeps the first column of each span type and orientation,
and runs the tall-span, cone and span-pair tests on the records.  It
builds a :class:`~pumpkit.visibility.Span` only for the tall column and
the span pair it hands on.

The tree's functions are generators that yield proposals in order,
``(view, frame, shield, tag)``: a shield in ``view``'s instance, which
``frame``, composed on the way down, moves the caller's instance to.
``analyze`` is the engine's one caller.  A decided shield writes
``engine:<branch>``; one the shield check rejects writes
``<case>-invalid:<reason>`` and resumes the tree.  ``FLIP_V`` maps each
glue column onto itself and swaps its lowest and highest glue, keeping
labels, pointing, seed glues and blocking pairs, so a down span reads
upright there as the same span with ``s`` and ``n`` swapped
(:func:`_flipped`).

Every coordinate change is a :class:`Frame`, read off one bounding box
of path plus seed; ``Frame.move`` moves a system and its path together,
building each moved tile type once.  Every instance's path is a moved
prefix of the caller's, so a pumping pair is read on the caller's path,
and a blocking certificate moves back once, by ``frame.inverse()``.
Each frame builds one :class:`~pumpkit.visibility.GlueView`, shared by
its cases and the engine's shield check; the prefix below a tall span
gets its own.

The true distance bound is within desk reach for one tile type: 10,240
with one seed tile, and ``analyze`` runs on a path that long in well under
a second.  But it is ``(4|T|)^(4|T|+1) * (4|seed|+6)``, already
1,342,177,280 for two tile types, so ``analyze`` accepts an explicit
override; without one it computes the true bound with exact integers, for
a path long enough that :func:`bound_log2_lower` cannot rule it out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from itertools import chain
from typing import TYPE_CHECKING, Iterator, Optional

from . import shield as engine
from . import tam
from .budgets import EnumBudget
from .errors import (
    BadCounts,
    BadSystem,
    ClaimViolation,
    NotAShield,
    NotCanonical,
    TooShort,
)
from .shield import Shield
from .tam import Assembly, FragilityCert, Path, PumpingSpec, TileSystem, TileType
from .visibility import GlueView, Span, SpanRecord

Pos = tuple[int, int]


# -- explicit bounds -----------------------------------------------------------


def _check_counts(tiles: int, seed: int):
    if tiles < 1 or seed < 1:
        raise BadCounts("need at least one tile type and one seed tile")


def bound_theorem_main_distance(tiles: int, seed: int) -> int:
    """Distance east of the seed past which a canonical path must repeat."""
    _check_counts(tiles, seed)
    return (4 * tiles) ** (4 * tiles + 1) * (4 * seed + 6)


def bound_theorem1_extent(tiles: int, seed: int) -> int:
    """Width/height of a path large enough to reach the canonical square."""
    _check_counts(tiles, seed)
    return (8 * tiles) ** (4 * tiles + 1) * (5 * seed + 6)


def bound_theorem1_square_half_side(tiles: int, seed: int) -> int:
    """Half side of the centered square used to truncate and orient the path."""
    return bound_theorem_main_distance(tiles, seed) + seed


def bound(tiles: int, seed: int) -> int:
    """The headline distance bound (exact big integer)."""
    return bound_theorem_main_distance(tiles, seed)


def bound_log2_lower(tiles: int) -> int:
    """A lower bound on ``log2`` of each bound above, read off without building it.

    Each bound is at least ``(4|T|)^(4|T|+1)``, and ``4|T|`` is at least
    ``2^(bit_length - 1)``.
    """
    return (4 * tiles + 1) * ((4 * tiles).bit_length() - 1)


# -- rigid motions ---------------------------------------------------------------

# Row-major matrices of the counterclockwise quarter turns.
_TURNS = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0))


@cache
def _source_sides(m: tuple[int, int, int, int]) -> tuple[str, ...]:
    """For north, east, south and west after the motion ``m``, the side before.

    The side facing ``u`` after the motion is the side facing ``M^T u`` before.
    """
    a, b, c, d = m
    return tuple(tam.SIDE_OF_STEP[(a * ux + c * uy, b * ux + d * uy)]
                 for ux, uy in (tam.STEP[s] for s in tam.SIDES))


@dataclass(frozen=True)
class Frame:
    """A rigid motion of the grid, ``p -> M p + shift``, with ``M`` in D4.

    ``M`` is one of the eight integer matrices that permute and negate the
    axes (four quarter turns, each optionally mirrored), stored row-major.
    Every coordinate change of the driver is a ``Frame``: a branch moves
    its instance by a frame, and :func:`analyze` maps a blocking
    certificate back through the :meth:`inverse` of the composed frame.
    """

    m: tuple[int, int, int, int] = _TURNS[0]
    shift: Pos = (0, 0)

    @classmethod
    def rotation(cls, k: int) -> "Frame":
        """``k`` counterclockwise quarter turns about the origin."""
        return cls(_TURNS[k % 4])

    @classmethod
    def translation(cls, d: Pos) -> "Frame":
        return cls(shift=d)

    @property
    def turns(self) -> int:
        """Counterclockwise quarter turns of an unmirrored frame."""
        return _TURNS.index(self.m)

    def compose(self, other: "Frame") -> "Frame":
        """The motion that applies ``other`` first, then this one."""
        a, b, c, d = self.m
        e, f, g, h = other.m
        return Frame((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h),
                     self._point(other.shift))

    def inverse(self) -> "Frame":
        a, b, c, d = self.m
        back = Frame((a, c, b, d))  # D4 matrices are orthogonal
        sx, sy = back._point(self.shift)
        return Frame(back.m, (-sx, -sy))

    def apply(self, obj):
        """Move a position, tile, system, path or certificate by this frame.

        Tiles keep their names, and the identity returns ``obj`` itself.
        Pumping certificates are index pairs, so only their path moves.
        """
        if self == IDENTITY:
            return obj
        if isinstance(obj, tuple):
            return self._point(obj)
        if isinstance(obj, TileType):
            return self._tile(obj)
        if isinstance(obj, TileSystem):
            return transform(obj, self)
        if isinstance(obj, Path):
            return self._path(obj)
        if isinstance(obj, PumpingSpec):
            return PumpingSpec(self.apply(obj.path), obj.i, obj.j)
        if isinstance(obj, FragilityCert):
            att = obj.attachments
            return FragilityCert(
                tuple(zip(self._points([pos for pos, _ in att]),
                          self._types([t for _, t in att]))),
                self._point(obj.conflict))
        raise TypeError(f"cannot move a {type(obj).__name__}")

    def move(self, sys: TileSystem, p: Path) -> tuple[TileSystem, Path]:
        """Move a system and a path on it; the path reuses the moved system's types.

        The same as ``(self.apply(sys), self.apply(p))``, without building
        each moved tile type twice.
        """
        if self == IDENTITY:
            return sys, p
        msys = transform(sys, self)
        known = {t: msys.by_name[t.name] for t in sys.tiles}
        return msys, self._path(p, known)

    def _point(self, p: Pos) -> Pos:
        a, b, c, d = self.m
        return (a * p[0] + b * p[1] + self.shift[0], c * p[0] + d * p[1] + self.shift[1])

    def _points(self, pts) -> list[Pos]:
        """Move many points, unpacking the matrix once."""
        a, b, c, d = self.m
        sx, sy = self.shift
        return [(a * x + b * y + sx, c * x + d * y + sy) for x, y in pts]

    def _tile(self, t: TileType) -> TileType:
        n, e, s, w = _source_sides(self.m)
        return TileType(t.name, getattr(t, n), getattr(t, e), getattr(t, s), getattr(t, w))

    def _path(self, p: Path, known: Optional[dict[TileType, TileType]] = None) -> Path:
        """Move a path: its moved points, and its types mapped by :meth:`_types`."""
        return Path._of(tuple(self._points(p.positions)), self._types(p.types, known))

    def _types(self, types, known: Optional[dict[TileType, TileType]] = None
               ) -> tuple[TileType, ...]:
        """Move a sequence of types; ``known`` maps source types to moved types already built.

        Each distinct type moves once.  Moved types are keyed by the source
        type's identity, not its name: two different types may share a
        name, and each moves on its own.  ``id`` is a cheap key, where a
        ``TileType`` key would call its generated ``__hash__`` on every
        tile; ``types`` holds every source type alive while the keys are in
        use.  Only the distinct types make a Python call.
        """
        known = known or {}
        ids = list(map(id, types))
        moved = dict(zip(ids, types))
        for key, t in moved.items():
            moved[key] = known.get(t) or self._tile(t)
        return tuple(map(moved.__getitem__, ids))


IDENTITY = Frame()
ROT90 = Frame.rotation(1)
FLIP_H = Frame((-1, 0, 0, 1))  # east and west swap
FLIP_V = Frame((1, 0, 0, -1))  # north and south swap
TRANSPOSE = Frame((0, 1, 1, 0))  # glue rows become glue columns, west becomes south


def transform(sys: TileSystem, frame: Frame) -> TileSystem:
    """Move a whole system by ``frame``; names and producibility carry over."""
    tiles = {t.name: frame._tile(t) for t in sys.tiles}
    seed = Assembly({frame._point(p): tiles[t.name] for p, t in sys.seed.tiles.items()})
    return TileSystem(list(tiles.values()), seed)


# -- canonical form --------------------------------------------------------------


@dataclass
class CanonicalForm:
    """A truncated instance moved into the canonical frame."""

    sys: TileSystem
    path: Path
    frame: Frame  # caller's coordinates -> canonical coordinates
    truncated_at: int  # kept prefix length minus one


def canonicalize(sys: TileSystem, p: Path,
                 bound_override: Optional[int] = None) -> CanonicalForm:
    """Truncate at the centered square, rotate east, translate to margins.

    The square's half side is the distance bound plus the seed size; the
    path is cut at its first tile on the square, tile ``b``, and moved by
    the frame :func:`_orient_east` gives the cut path.  Tiles ``0..b-1``
    lie strictly inside the square, and so does the seed: tile 0 binds
    the connected seed, so each seed tile is at most ``|seed|`` steps from
    it.  The step onto ``b`` keeps the other coordinate of tile ``b-1``,
    so ``b`` is on no corner, ties with ``b-1`` on the two sides beside
    its own, and tile 0 passes it on the opposite side.  So ``b`` is the
    unique extreme on exactly one side, and ``_orient_east`` takes the
    turn that faces that side east; its margin shift is read off the
    turned bounding box alone.

    Raises :class:`TooShort` when the path never reaches the square, at
    once when it has at most ``half`` tiles, or fewer than
    ``2^bound_log2_lower`` without an override.  The message leaves
    ``half`` out: the true bound can have more digits than the interpreter
    converts to decimal.
    """
    rep = tam.validate_producible_path(sys, p)
    if not rep:
        raise BadSystem(f"path is not producible: {rep.code}@{rep.index}")
    if bound_override is None:
        _check_counts(len(sys.tiles), len(sys.seed))
        if bound_log2_lower(len(sys.tiles)) >= len(p).bit_length():
            # Too short, without building a bound of up to millions of digits.
            raise TooShort("path never reaches the canonical square")
    dist = bound_override if bound_override is not None else \
        bound_theorem_main_distance(len(sys.tiles), len(sys.seed))
    if dist < 1:
        raise BadCounts("bound override must be >= 1")
    half = dist + len(sys.seed)
    if half >= len(p):
        # Tile s lies at most s steps from tile 0, and the last tile is
        # tile len(p) - 1, so no tile reaches the square.
        raise TooShort("path never reaches the canonical square")
    x0, y0 = p.pos(0)
    # The path takes unit steps from the square's center, so its first
    # tile on a side line of the square is its first tile on the square.
    east, west, north, south = x0 + half, x0 - half, y0 + half, y0 - half
    b = next((s for s, (x, y) in enumerate(p.positions)
              if x == east or y == north or x == west or y == south), None)
    if b is None:
        raise TooShort("path never reaches the canonical square")
    trunc = p.prefix(b)
    frame = _orient_east(sys, trunc)
    if frame is None:
        raise ClaimViolation("canonical-orients",
                             "the cut tile is not the unique extreme on one side")
    csys, cpath = frame.move(sys, trunc)
    rep = tam.validate_producible_path(csys, cpath)
    if not rep:
        raise ClaimViolation("canonical-revalidates",
                             f"canonical form broke producibility: {rep.code}")
    xs = [x for x, _ in chain(csys.seed.tiles, cpath.positions)]
    last_x = xs[-1]
    if xs.count(last_x) != 1 or last_x != max(xs):
        raise ClaimViolation("canonical-east", "last tile is not unique easternmost")
    return CanonicalForm(csys, cpath, frame, b)


def _orient_east(sys: TileSystem, p: Path,
                 frame: Frame = IDENTITY) -> Optional[Frame]:
    """The frame making the last tile of ``p`` the unique easternmost, or ``None``.

    After ``frame``, keep the first quarter turn that makes the last tile
    of ``p`` the unique easternmost of path plus seed.  Turns 0 to 3 move
    the greatest x, the least y, the least x and the greatest y east, so
    the last tile must hold the unique one of these extremes, tried in
    that order.  The result also moves the margins to zero, read off the
    one bounding box of path plus seed: a D4 motion maps each new axis to
    plus or minus an old one, so the turned box's least coordinates are
    read off two opposite corners of the box.
    """
    pts = chain(sys.seed.tiles, p.positions)
    xs, ys = zip(*(pts if frame == IDENTITY else frame._points(pts)))
    lo, hi = (min(xs), min(ys)), (max(xs), max(ys))
    lx, ly = xs[-1], ys[-1]
    for k, (vals, last, end) in enumerate(((xs, lx, hi[0]), (ys, ly, lo[1]),
                                           (xs, lx, lo[0]), (ys, ly, hi[1]))):
        if last == end and vals.count(end) == 1:
            turn = Frame.rotation(k)
            (ax, ay), (bx, by) = turn._points((lo, hi))
            return Frame.translation((-min(ax, bx), -min(ay, by))).compose(turn).compose(frame)
    return None


# -- analysis result ---------------------------------------------------------------


@dataclass
class AnalysisResult:
    kind: str  # "pumpable" | "fragile" | "no_shield"
    trail: list[str] = field(default_factory=list)
    pumpable: Optional[PumpingSpec] = None
    fragile: Optional[FragilityCert] = None

    @property
    def exit_code(self) -> int:
        return {"pumpable": 0, "fragile": 1, "no_shield": 2}[self.kind]


def _flipped(span: Span) -> Span:
    """A down span as the ``FLIP_V`` frame sees it: the same column, upright."""
    return replace(span, s=span.n, n=span.s, orientation="up")


# -- the decision tree ---------------------------------------------------------------

if TYPE_CHECKING:
    # A shield to decide in ``view``'s instance, the frame that moves the
    # caller's instance there, and the case tag a rejection writes.  Only
    # annotations read it: a subscripted alias built at import costs memory.
    Proposals = Iterator[tuple[GlueView, Frame, Shield, str]]


def _west_pigeonhole_shield(view: GlueView, frame: Frame, trail: list[str]) -> Proposals:
    """Two same-type west glues visible from the south give a mirrored shield."""
    by_label: dict[str, list[int]] = {}
    for g in map(view.glue, view.west_pointing(view.banks[0])):
        by_label.setdefault(g.label, []).append(g.index)
    pair = next((idxs for _, idxs in sorted(by_label.items()) if len(idxs) >= 2), None)
    if pair is None:
        return
    sh = Shield(pair[0], pair[1], len(view.path) - 2)
    trail.append(f"west-pigeonhole(i={sh.i},j={sh.j},k={sh.k})")
    yield (GlueView(*FLIP_H.move(view.sys, view.path)), FLIP_H.compose(frame), sh,
           "west-pigeonhole")


@dataclass
class _Ledger:
    spans: dict[int, SpanRecord]  # the frame's span records by column
    x0: int  # the stretch: columns x0..x_last, each with an east-pointing span
    columns: list[int]  # first-occurrence columns, ascending, then x_last once


def _build_ledger(view: GlueView, trail: list[str]) -> Optional[_Ledger]:
    try:
        view.check_spans_defined()
    except NotCanonical as e:
        # Short paths can end beside seed glues on the same column; the
        # span bookkeeping is then undefined and no case can fire.
        trail.append(f"ledger-unavailable: {e}")
        return None
    spans = view.column_spans()
    # The last tile is the unique easternmost: its glue's east span exists.
    x_last = next(reversed(spans), None)
    if x_last is None or spans[x_last][3] != "east":
        raise ClaimViolation("ledger-east-end", "the last glue has no east-pointing span")
    # Largest west-contiguous stretch of east-pointing spans ending at the
    # easternmost column; below the bound earlier columns may misbehave, in
    # which case the ledger simply starts further east.  Walking west, the
    # last column seen with a span type and orientation is its first one.
    first_seen = {}
    x0, rec = x_last, spans[x_last]
    while rec is not None and rec[3] == "east":
        s, n, label, _, _ = rec
        first_seen[(label, s <= n)] = x0
        x0 -= 1
        rec = spans.get(x0)
    tiles = len(view.sys.tiles)
    if len(first_seen) > 2 * tiles:
        raise ClaimViolation("ledger-size",
                             f"{len(first_seen)} span signatures for {tiles} tile types")
    return _Ledger(spans, x0 + 1, [*sorted(first_seen.values()), x_last])


def _find_couple_pair(ledger: _Ledger) -> Optional[tuple[Span, Span]]:
    """Westernmost pair of same-signature spans with non-decreasing height.

    Columns ascend and each ``a`` stops at its first partner ``b``, so
    the first pair found is the lexicographically least.
    """
    spans, x_last = ledger.spans, ledger.columns[-1]
    for a in range(ledger.x0, x_last):
        sa, na, label, _, height = spans[a]
        up = sa <= na
        for b in range(a + 1, x_last + 1):
            sb, nb, label_b, _, height_b = spans[b]
            if label_b == label and (sb <= nb) == up and height_b >= height:
                return Span.of(a, spans[a]), Span.of(b, spans[b])
    return None


def _couple_use(view: GlueView, frame: Frame, sa: Span, sb: Span,
                trail: list[str]) -> Proposals:
    """Propose the shield of a repeated-span pair (mirrored upright if needed)."""
    trail.append(f"equal-span-pair(cols {sa.coordinate},{sb.coordinate})")
    if sa.orientation == "up":
        yield view, frame, Shield(sa.s, sb.s, sb.n), "span-pair"
        return
    trail.append("flip-vertical(down spans)")
    fa, fb = _flipped(sa), _flipped(sb)
    yield (GlueView(*FLIP_V.move(view.sys, view.path)), FLIP_V.compose(frame),
           Shield(fa.s, fb.s, fb.n), "span-pair")


def _case_tall_span(view: GlueView, frame: Frame, span: Span, trail: list[str],
                    depth: int) -> Proposals:
    """A span taller than the cone allows: work inside the prefix below it, upright."""
    trail.append(f"tall-span(col={span.coordinate},h={span.height})")
    sys, p = view.sys, view.path
    if span.orientation == "down":
        sys, p = FLIP_V.move(sys, p)
        frame, span = FLIP_V.compose(frame), _flipped(span)
        trail.append("flip-vertical(down span)")
    tiles, seed = len(sys.tiles), len(sys.seed)
    q = p.prefix(span.n + 1)
    viewq = GlueView(sys, q)
    # The easternmost glue column; ``cols`` keys are doubled, odd columns.
    x_prime = max(viewq.cols) >> 1 if viewq.cols else 0
    if span.height < 4 * tiles * (x_prime + 2) + 3 * seed + 1:
        yield from _case_narrow_prefix(viewq, frame, span, trail)
        # No label's glues spread across the prefix; the tall-prefix case may still fire.
        trail.append("narrow-prefix-fallthrough")
    yield from _case_tall_prefix(sys, q, frame, span, x_prime, trail, depth)


def _case_narrow_prefix(viewq: GlueView, frame: Frame, span_c: Span,
                        trail: list[str]) -> Proposals:
    """Wide prefix: many same-type south glues exist; shift the exit ray clear."""
    west_limit = min(x for x, _ in chain(viewq.sys.seed.tiles, viewq.path.positions))
    by_label: dict[str, list] = {}
    for g in map(viewq.glue, viewq.east_pointing(viewq.banks[0])):
        by_label.setdefault(g.label, []).append(g)
    col_c = span_c.coordinate
    for label in sorted(by_label):
        glues = sorted(by_label[label], key=lambda g: g.column)
        i, j = glues[0].index, glues[-1].index
        spread = glues[-1].column - glues[0].column
        # The exit ray shifted west by the pair's vector must clear all
        # geometry, i.e. land strictly west of the westernmost tile.
        if spread >= col_c + 1 - west_limit and i < j <= span_c.n:
            trail.append(f"narrow-prefix(i={i},j={j},k={span_c.n})")
            yield viewq, frame, Shield(i, j, span_c.n), "narrow-prefix"


def _case_tall_prefix(sys: TileSystem, q: Path, frame: Frame, span_c: Span,
                      x_prime: int, trail: list[str], depth: int) -> Proposals:
    """Tall prefix: turn it sideways and recurse on the repeated-span machinery.

    ``turn`` faces the target row east.  That row lies ``needed`` rows past
    the seed's outermost row on the tall side, and ``needed >= 4``: every
    tile here has ``x >= 0``, so ``x_prime >= -1``.  Tile 0 binds the seed,
    so it lies at most one row past that outermost row, and a path moves
    one row per step: tile ``b``, the first on the target row, is the only
    tile of ``q.prefix(b)`` and the seed on that row or past it.  After
    ``turn`` it is the unique easternmost, and :func:`_orient_east` returns
    at its first quarter turn.
    """
    tiles, seed_n = len(sys.tiles), len(sys.seed)
    needed = 2 * tiles * (x_prime + 2) + seed_n + 1
    seed_ys = [y for _, y in sys.seed.tiles]
    top_rows = max(y for _, y in q.positions) - max(seed_ys)
    bot_rows = min(seed_ys) - min(y for _, y in q.positions)
    if top_rows >= needed:
        target, turn = max(seed_ys) + needed, Frame.rotation(3)  # north faces east
        trail.append(f"tall-prefix(north,rows={top_rows})")
    elif bot_rows >= needed:
        target, turn = min(seed_ys) - needed, Frame.rotation(3).compose(FLIP_V)
        trail.append(f"tall-prefix(south,rows={bot_rows})")
    else:
        # Only after narrow-prefix-fallthrough: a taller span leaves the rows needed.
        trail.append("tall-prefix-too-flat")
        return
    b = next((s for s, (_, y) in enumerate(q.positions) if y == target), None)
    if b is None:
        raise ClaimViolation("tall-prefix-row",
                             "no tile on the target row despite the extent")
    qq = q.prefix(b)
    orient = _orient_east(sys, qq, turn)
    if orient is None:
        raise ClaimViolation("tall-prefix-orients",
                             "tile b is not the unique easternmost after the turn")
    yield from _spans_pipeline(*orient.move(sys, qq), orient.compose(frame), trail,
                               depth + 1)


def _spans_pipeline(sys: TileSystem, p: Path, frame: Frame, trail: list[str],
                    depth: int) -> Proposals:
    """West pigeonhole, then the span ledger and its two cases.

    Precondition: the last tile of ``p`` is the unique easternmost tile
    of path plus seed.
    """
    if depth > 3:
        # Bounds the tall-prefix recursion; no known input nests this deep.
        trail.append("depth-limit")
        return
    view = GlueView(sys, p)
    south, north = view.banks
    if view.west_pointing(north):
        if view.west_pointing(south):
            raise ClaimViolation("visible-side",
                                 "west glues visible on both banks")
        trail.append("flip-vertical(orient visible bank)")
        yield from _spans_pipeline(*FLIP_V.move(sys, p), FLIP_V.compose(frame), trail,
                                   depth + 1)
        return
    yield from _west_pigeonhole_shield(view, frame, trail)
    ledger = _build_ledger(view, trail)
    if ledger is None:
        return
    tiles, seed_n = len(sys.tiles), len(sys.seed)
    spans = ledger.spans
    tall = next((col for col in ledger.columns
                 if spans[col][4] > 4 * tiles * tiles * (col + 4 * seed_n + 6)), None)
    if tall is not None:
        yield from _case_tall_span(view, frame, Span.of(tall, spans[tall]), trail, depth)
        # The prefix below found nothing; the span pair may still decide.
        trail.append("tall-span-fallthrough")
    else:
        # Cone containment: every first-occurrence column sits within the
        # running height sum, whose exact-integer bounding chain is
        # re-checked wherever its base case applies.
        x0 = total = ledger.columns[0]
        c0 = None
        chain_base = x0 <= 4 * tiles * (4 * seed_n + 6) - 2
        for c, col in enumerate(ledger.columns):
            if col > total:
                c0 = c
                break
            if chain_base and total > (4 * tiles) ** (2 * c + 1) * (4 * seed_n + 6) - 2:
                raise ClaimViolation(
                    "cone-chain",
                    f"height sum {total} breaks the chain bound at step {c}")
            total += spans[col][4]
        trail.append(f"cone-case(c0={c0})")
    pair = _find_couple_pair(ledger)
    if pair is None:
        trail.append("no-span-pair")
        return
    yield from _couple_use(view, frame, pair[0], pair[1], trail)


def analyze(sys: TileSystem, p: Path, bound_override: Optional[int] = None,
            budget: EnumBudget = EnumBudget()) -> AnalysisResult:
    """Full pipeline: canonicalize, decide the tree's proposals, verify, report.

    The first proposal the engine decides gives the certificate,
    re-verified in the caller's coordinates.  When no proposal decides,
    a path below the bound, or one cut under ``bound_override``, gives
    ``no_shield`` with the decision trail.  Past the true bound every path
    is pumpable or blockable, so a canonical path with no override raises
    ``ClaimViolation("bound-decides")`` instead.
    """
    trail: list[str] = []
    past_bound = False
    try:
        canon = canonicalize(sys, p, bound_override)
        past_bound = bound_override is None
        trail.append(f"canonical(rot={canon.frame.turns},cut={canon.truncated_at})")
        frame, csys, cpath = canon.frame, canon.sys, canon.path
    except TooShort:
        trail.append("below-bound(no truncation)")
        frame = _orient_east(sys, p)
        if frame is None:
            trail.append("not-orientable")
            return AnalysisResult("no_shield", trail)
        csys, cpath = frame.move(sys, p)
    for view, frame, sh, tag in _spans_pipeline(csys, cpath, frame, trail, 0):
        try:
            out = engine.pump_or_block(view.sys, view.path, sh, budget, view=view)
        except NotAShield as e:
            # Each case picks a shield the check accepts; the trail records a rejection.
            trail.append(f"{tag}-invalid:{e}")
            continue
        trail.append(f"engine:{out.branch}")
        if out.kind == "pumpable":
            # Every instance's path is a moved prefix of ``p``: the pair reads on ``p``.
            spec = PumpingSpec(p, out.pumpable.i, out.pumpable.j)
            check = tam.verify_pumpable_cert(sys, spec)
            if not check:
                raise ClaimViolation("certificate-verifies",
                                     f"restored pumping rejected: {check.reason}")
            return AnalysisResult("pumpable", trail, pumpable=spec)
        cert = frame.inverse().apply(out.fragile)
        check = tam.verify_fragile_cert(sys, p, cert)
        if not check:
            raise ClaimViolation("certificate-verifies",
                                 f"restored blocking cert rejected: {check.reason}")
        return AnalysisResult("fragile", trail, fragile=cert)
    if past_bound:
        raise ClaimViolation("bound-decides",
                             "no proposal decides a path past the true bound "
                             f"(trail ends {trail[-1]})")
    return AnalysisResult("no_shield", trail)


# -- reduction from the seedless two-handed model -----------------------------------


@dataclass
class Reduction:
    sys: TileSystem
    path: Path
    notes: list[str]


def reduce_2ham(tiles, p: Path, target_width: Optional[int] = None) -> Reduction:
    """Re-seed a free-floating glue-matched path at its westernmost tile.

    Two-handed growth of a path needs no seed; planting a single-tile
    seed at the westernmost tile makes every position reachable by
    ordinary seeded growth, so the analysis applies unchanged.  The path
    is rotated upright first when taller than wide, optionally truncated
    to a shortest segment of the requested width, and re-indexed from the
    seed along its longer arm.
    """
    notes = []
    entries = list(p.entries)
    xs = [pos[0] for pos, _ in entries]
    ys = [pos[1] for pos, _ in entries]
    tiles = list(tiles)
    if max(ys) - min(ys) > max(xs) - min(xs):
        tiles = [ROT90.apply(t) for t in tiles]
        entries = list(ROT90.apply(Path(entries)).entries)
        notes.append("rotated upright")
    if target_width is not None:
        best = None
        lo = 0
        for hi in range(len(entries)):
            while True:
                seg = entries[lo: hi + 1]
                seg_xs = [pos[0] for pos, _ in seg]
                if max(seg_xs) - min(seg_xs) >= target_width and lo < hi:
                    if best is None or hi - lo < best[1] - best[0]:
                        best = (lo, hi)
                    lo += 1
                else:
                    break
        if best is None:
            raise TooShort(f"no segment of width {target_width}")
        entries = entries[best[0]: best[1] + 1]
        notes.append(f"truncated to {len(entries)} tiles")
    min_x = min(pos[0] for pos, _ in entries)
    west = [s for s, (pos, _) in enumerate(entries) if pos[0] == min_x]
    if len(west) > 1:
        notes.append(f"{len(west)} westernmost tiles; picking the southernmost")
        west.sort(key=lambda s: entries[s][0][1])
    w = west[0]
    seed_pos, seed_tile = entries[w]
    suffix = entries[w + 1:]
    prefix = entries[:w][::-1]
    arm = suffix if len(suffix) >= len(prefix) else prefix
    if not arm:
        raise TooShort("path has a single tile; nothing to grow from the seed")
    declared = {t.name: t for t in tiles}
    declared.setdefault(seed_tile.name, seed_tile)
    out_sys = TileSystem(sorted(declared.values()),
                         Assembly({seed_pos: seed_tile}))
    out_path = Path(arm)
    rep = tam.validate_producible_path(out_sys, out_path)
    if not rep:
        raise BadSystem(f"reduced path fails validation: {rep.code}@{rep.index}")
    return Reduction(out_sys, out_path, notes)
