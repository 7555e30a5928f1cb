"""Noncooperative (temperature 1) tile assembly: systems, paths, verifiers.

Positions here are plain tile coordinates on Z^2.  A :class:`Path` is
two parallel tuples, the positions of its tiles and their types; its
``entries`` pairs are built on each read, for code off the hot path.
The module imports nothing of the package but its errors, so the
verifiers share no code with the engine.  A tile binds when at least
one abutting pair of sides carries the same non-null glue label, so glue
strengths never appear explicitly: a present label has strength 1, an
absent one strength 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import BadSystem, BadTarget, IllegalAttachment, Occupied

Position = tuple[int, int]

NORTH, EAST, SOUTH, WEST = "north", "east", "south", "west"
SIDES = (NORTH, EAST, SOUTH, WEST)
STEP = {NORTH: (0, 1), EAST: (1, 0), SOUTH: (0, -1), WEST: (-1, 0)}
OPPOSITE = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}
SIDE_OF_STEP = {v: k for k, v in STEP.items()}


@dataclass(frozen=True, order=True)
class TileType:
    """A unit square with an optional glue label on each side."""

    name: str
    north: Optional[str] = None
    east: Optional[str] = None
    south: Optional[str] = None
    west: Optional[str] = None

    def glue(self, side: str) -> Optional[str]:
        return getattr(self, side)

    def interacts(self, other: "TileType", step: Position) -> bool:
        """Whether ``other`` placed one ``step`` away binds to this tile."""
        side = SIDE_OF_STEP[step]
        mine = self.glue(side)
        return mine is not None and mine == other.glue(OPPOSITE[side])


class Assembly:
    """Finite placement of tile types on a connected set of positions."""

    __slots__ = ("tiles",)

    def __init__(self, tiles: dict[Position, TileType], require_connected=True):
        if require_connected and tiles and not _connected(tiles.keys()):
            raise BadSystem("assembly domain is not connected")
        self.tiles = dict(tiles)

    def __len__(self):
        return len(self.tiles)

    def __contains__(self, pos: Position):
        return pos in self.tiles

    def get(self, pos: Position) -> Optional[TileType]:
        return self.tiles.get(pos)


def _connected(positions: Iterable[Position]) -> bool:
    todo = set(positions)
    if not todo:
        return True
    frontier = deque([next(iter(todo))])
    todo.discard(frontier[0])
    while frontier:
        x, y = frontier.popleft()
        for dx, dy in STEP.values():
            q = (x + dx, y + dy)
            if q in todo:
                todo.discard(q)
                frontier.append(q)
    return not todo


class TileSystem:
    """A tile set plus a seed assembly; the temperature is always 1."""

    temperature = 1

    def __init__(self, tiles: Sequence[TileType], seed: Assembly):
        names = [t.name for t in tiles]
        if len(set(names)) != len(names):
            raise BadSystem("duplicate tile type names")
        if not tiles:
            raise BadSystem("tile set is empty")
        if not len(seed):
            raise BadSystem("seed is empty")
        self.tiles = tuple(sorted(tiles))  # canonical ordering: by name
        self.by_name = {t.name: t for t in self.tiles}
        for pos, t in seed.tiles.items():
            if self.by_name.get(t.name) != t:
                raise BadSystem(f"seed tile at {pos} uses undeclared type {t.name!r}")
        self.seed = seed

    def __repr__(self):
        return f"TileSystem({len(self.tiles)} tiles, seed of {len(self.seed)})"


class Path:
    """A sequence of placed tiles; validity is checked by the functions below.

    A path stores two tuples of equal length: ``positions``, the ``(x, y)``
    of each tile, and ``types``, its :class:`TileType`.  Tile ``i`` is
    ``(positions[i], types[i])``.  Two flat tuples hold no record per tile,
    and a moved or translated path can share ``types`` with its source.

    ``entries``, the ``((x, y), type)`` pairs, is built on each read and
    not kept: it is for printing and other code off the decision's path,
    and hot code reads ``positions`` and ``types``.

    Storing possibly-invalid sequences is deliberate: the validator has to
    be able to point at the first broken entry of a candidate path.
    """

    __slots__ = ("positions", "types")

    def __init__(self, entries: Iterable[tuple[Position, TileType]]):
        positions, types = [], []
        for p, t in entries:
            positions.append(tuple(p))
            types.append(t)
        self.positions = tuple(positions)
        self.types = tuple(types)

    @classmethod
    def _of(cls, positions: tuple[Position, ...], types: tuple[TileType, ...]) -> "Path":
        """A path on two tuples of equal length, taken as they are."""
        p = cls.__new__(cls)
        p.positions = positions
        p.types = types
        return p

    @property
    def entries(self) -> tuple[tuple[Position, TileType], ...]:
        """The ``((x, y), type)`` pairs, built on each read; not for hot code."""
        return tuple(zip(self.positions, self.types))

    def __len__(self):
        return len(self.positions)

    def __eq__(self, other):
        return (isinstance(other, Path) and self.positions == other.positions
                and self.types == other.types)

    def __hash__(self):
        return hash((self.positions, self.types))

    def __repr__(self):
        return f"Path({len(self.positions)} tiles)"

    def pos(self, i: int) -> Position:
        return self.positions[i]

    def type(self, i: int) -> TileType:
        return self.types[i]

    def index_of(self, pos: Position) -> Optional[int]:
        """Index of the tile at ``pos``, or ``None``.

        A scan: callers ask about one position of a path, so an index of
        every position would not pay for itself.
        """
        try:
            return self.positions.index(pos)
        except ValueError:
            return None

    def prefix(self, end: int) -> "Path":
        """Tiles 0..end inclusive, on this path's position tuples and types."""
        return Path._of(self.positions[: end + 1], self.types[: end + 1])

    def translate(self, v: Position) -> "Path":
        """The path moved by ``v``; it shares ``types`` with this one."""
        vx, vy = v
        return Path._of(tuple([(x + vx, y + vy) for x, y in self.positions]), self.types)


def seed_contacts(sys: TileSystem, tile: tuple[Position, TileType]) -> int:
    """Number of seed tiles the given tile binds to."""
    pos, t = tile
    n = 0
    for step in STEP.values():
        q = (pos[0] + step[0], pos[1] + step[1])
        s = sys.seed.get(q)
        if s is not None and t.interacts(s, step):
            n += 1
    return n


@dataclass
class ValidationReport:
    ok: bool
    code: Optional[str] = None
    index: Optional[int] = None
    notes: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.ok


def validate_producible_path(sys: TileSystem, p: Path) -> ValidationReport:
    """Check the four conditions that make a path producible.

    The path must be simple, disjoint from the seed, consecutive tiles
    must bind, and the first tile must bind to the seed.  The report names
    the first violated condition; extra seed contacts after the first tile
    are legal and only reported as notes.

    One pass checks every tile.  Only a tile on a position next to the
    seed can touch it, so only those tiles are tested for seed contact.
    """
    positions, types = p.positions, p.types
    if not positions:
        return ValidationReport(False, "EmptyPath", 0)
    seed = sys.seed.tiles
    near_seed = {(x + dx, y + dy) for x, y in seed for dx, dy in STEP.values()}
    seen: set[Position] = set()
    notes: list[str] = []
    prev_x = prev_y = prev_t = None
    for i, (pos, t) in enumerate(zip(positions, types)):
        if pos in seed:
            return ValidationReport(False, "OverlapsSeed", i)
        if pos in seen:
            return ValidationReport(False, "NotSimple", i)
        seen.add(pos)
        x, y = pos
        if i:
            side = SIDE_OF_STEP.get((x - prev_x, y - prev_y))
            if side is None:
                return ValidationReport(False, "GlueMismatch", i)
            glue = getattr(prev_t, side)
            if glue is None or glue != getattr(t, OPPOSITE[side]):
                return ValidationReport(False, "GlueMismatch", i)
            if pos in near_seed and seed_contacts(sys, (pos, t)):
                notes.append(f"tile {i} also touches the seed")
        prev_x, prev_y, prev_t = x, y, t
    if not seed_contacts(sys, (positions[0], types[0])):
        return ValidationReport(False, "SeedDetached", 0)
    return ValidationReport(True, notes=notes)


def replay_assembly_sequence(sys: TileSystem,
                             seq: Sequence[tuple[Position, TileType]]) -> Assembly:
    """Grow the seed by the given attachments, checking each one binds.

    Raises :class:`Occupied` or :class:`IllegalAttachment` with the index
    of the offending step.
    """
    tiles = dict(sys.seed.tiles)
    for step_no, (pos, t) in enumerate(seq):
        if pos in tiles:
            raise Occupied(step_no, f"position {pos} already filled")
        bound = False
        for step in STEP.values():
            q = (pos[0] + step[0], pos[1] + step[1])
            nb = tiles.get(q)
            if nb is not None and t.interacts(nb, step):
                bound = True
                break
        if not bound:
            raise IllegalAttachment(step_no, f"tile {t.name} at {pos} binds nothing")
        tiles[pos] = t
    return Assembly(tiles, require_connected=False)


# Kept: the executable form of the lemma oracle.brute_fragile's completeness rests on.
def extract_path(sys: TileSystem, alpha: Assembly, target: Position) -> Path:
    """A producible path through ``alpha`` ending at ``target``.

    Breadth-first search over the binding graph from all seed positions;
    the tree path to ``target`` visits the seed exactly once (at its
    root), so dropping that root leaves a valid producible path.
    """
    if target in sys.seed or target not in alpha:
        raise BadTarget(f"{target} is not a non-seed position of the assembly")
    combined = dict(sys.seed.tiles)
    combined.update(alpha.tiles)
    parent: dict[Position, Optional[Position]] = {}
    frontier = deque()
    for pos in sys.seed.tiles:
        parent[pos] = None
        frontier.append(pos)
    while frontier:
        pos = frontier.popleft()
        if pos == target:
            break
        t = combined[pos]
        for step in STEP.values():
            q = (pos[0] + step[0], pos[1] + step[1])
            if q in parent or q not in combined:
                continue
            if t.interacts(combined[q], step):
                parent[q] = pos
                frontier.append(q)
    if target not in parent:
        raise BadTarget(f"{target} is not reachable through the binding graph")
    chain = []
    cur: Optional[Position] = target
    while cur is not None and cur not in sys.seed:
        chain.append(cur)
        cur = parent[cur]
    chain.reverse()
    return Path([(pos, combined[pos]) for pos in chain])


# -- pumping -----------------------------------------------------------------


@dataclass(frozen=True)
class PumpingSpec:
    """Certificate data for an ultimately periodic infinite path."""

    path: Path
    i: int
    j: int

    def __post_init__(self):
        if not (0 <= self.i < self.j < len(self.path)):
            raise ValueError("need 0 <= i < j < |path|")
        if self.vector == (0, 0):
            raise ValueError("pumping vector must be nonzero")

    @property
    def vector(self) -> Position:
        """Tile-coordinate vector from tile i to tile j."""
        (xi, yi), (xj, yj) = self.path.pos(self.i), self.path.pos(self.j)
        return (xj - xi, yj - yi)


def pumping_term(spec: PumpingSpec, k: int) -> tuple[Position, TileType]:
    """Tile ``k`` of the infinite ultimately periodic sequence.

    Terms up to ``i`` copy the path; afterwards the segment ``i+1..j``
    repeats, shifted by one more copy of the vector each period, so the
    sequence satisfies ``term(k + (j - i)) == term(k) + vector``.
    """
    if k < 0:
        raise ValueError("term index must be >= 0")
    p, i, j = spec.path, spec.i, spec.j
    if k <= i:
        return (p.positions[k], p.types[k])
    period = j - i
    r = (k - i - 1) % period + 1
    m = (k - i - r) // period
    x, y = p.positions[i + r]
    t = p.types[i + r]
    vx, vy = spec.vector
    return ((x + m * vx, y + m * vy), t)


@dataclass
class VerifyResult:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self):
        return self.ok


def _bbox(positions: Iterable[Position]):
    xs, ys = zip(*positions)
    return min(xs), min(ys), max(xs), max(ys)


def verify_pumpable_cert(sys: TileSystem, spec: PumpingSpec) -> VerifyResult:
    """Decide whether the pumping between ``i`` and ``j`` is producible.

    The path itself is trusted no further than the certificate needs: its
    prefix ``0..j`` must be producible, which is checked first.  Then
    three finite checks suffice:

    (a) the first repeated tile binds across the seam to tile ``j``;
    (b) no two period copies overlap: copies ``d`` periods apart lie
        ``d * |v_a|`` apart along ``v``'s dominant axis ``a``, so only
        ``d`` up to the period's extent along ``a`` over ``|v_a|`` is tested;
    (c) enough initial periods avoid the seed and the retained prefix
        that the remaining ones are past every finite obstacle, the count
        coming from the bounding boxes and the vector's dominant axis.
    """
    p, i, j = spec.path, spec.i, spec.j
    rep = validate_producible_path(sys, p.prefix(j))
    if not rep:
        return VerifyResult(False, f"path prefix 0..{j} is not producible: "
                                   f"{rep.code} at index {rep.index}")
    positions, types = p.positions, p.types
    v = spec.vector
    # (a) seam interaction
    seam_from, seam_type = positions[j], types[j]
    (rx, ry), repeat_type = positions[i + 1], types[i + 1]
    seam_to = (rx + v[0], ry + v[1])
    step = (seam_to[0] - seam_from[0], seam_to[1] - seam_from[1])
    # Cannot fail: pos(i+1) + v - pos(j) = pos(i+1) - pos(i), a step of the checked prefix.
    if step not in SIDE_OF_STEP:
        return VerifyResult(False, "(a) seam tiles are not adjacent")
    if not seam_type.interacts(repeat_type, step):
        return VerifyResult(False, "(a) seam glue does not bind")
    # (b) no two period copies overlap
    period_pos = positions[i + 1:j + 1]
    px0, py0, px1, py1 = _bbox(period_pos)
    a = 0 if abs(v[0]) >= abs(v[1]) else 1
    period = set(period_pos)
    for d in range(1, (px1 - px0, py1 - py0)[a] // abs(v[a]) + 1):
        if any((x + d * v[0], y + d * v[1]) in period for x, y in period_pos):
            return VerifyResult(False, "(b) period overlaps its translate")
    # (c) enough periods clear all finite geometry
    obstacles = set(sys.seed.tiles)
    obstacles.update(positions[:i + 1])
    ox0, oy0, ox1, oy1 = _bbox(obstacles)
    step_len = max(abs(v[0]), abs(v[1]))
    span = max(ox1, px1) - min(ox0, px0) + max(oy1, py1) - min(oy0, py0)
    reps = span // step_len + 2
    for m in range(1, reps + 1):
        shift = (m * v[0], m * v[1])
        for x, y in period_pos:
            q = (x + shift[0], y + shift[1])
            if q in obstacles:
                return VerifyResult(
                    False, f"(c) period copy {m} hits the seed or prefix at {q}")
    return VerifyResult(True)


@dataclass(frozen=True)
class FragilityCert:
    """A replayable assembly sequence that blocks a path.

    ``attachments`` grow from the seed; after the replay the assembly
    holds a different tile type than the path wants at ``conflict``.
    """

    attachments: tuple[tuple[Position, TileType], ...]
    conflict: Position

    def __post_init__(self):
        object.__setattr__(self, "attachments", tuple(self.attachments))


def verify_fragile_cert(sys: TileSystem, p: Path,
                        cert: FragilityCert) -> VerifyResult:
    """Replay the certificate and check it conflicts with the path's producible prefix."""
    try:
        final = replay_assembly_sequence(sys, cert.attachments)
    except IllegalAttachment as e:
        return VerifyResult(False, f"replay failed at {e}")
    placed = final.get(cert.conflict)
    if placed is None:
        return VerifyResult(False, "conflict position was never filled")
    want_idx = p.index_of(cert.conflict)
    if want_idx is None:
        return VerifyResult(False, "conflict position is not on the path")
    rep = validate_producible_path(sys, p.prefix(want_idx))
    if not rep:
        return VerifyResult(False, f"path prefix 0..{want_idx} is not producible: "
                                   f"{rep.code} at index {rep.index}")
    if p.type(want_idx) == placed:
        return VerifyResult(False, "NoConflict: same tile type at conflict position")
    return VerifyResult(True)

