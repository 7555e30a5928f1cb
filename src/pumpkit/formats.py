"""Plain-text formats for systems, paths, and certificates.

System files hold one ``tile`` line per type, ``seed`` lines, and an
optional ``path`` line; certificate files carry either an index pair or
an attachment sequence with a conflict position.  Coordinates are tile
units; the doubled lattice never leaks into files.  Printing is
canonical, so ``parse(print(x)) == x``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from .driver import AnalysisResult
from .errors import BadSystem, DisconnectedSeed, DuplicateTile, ParseError
from .shield import ShieldOutcome
from .tam import Assembly, FragilityCert, Path, PumpingSpec, TileSystem, TileType

NULL_GLUE = "-"
_SIDES = ("north", "east", "south", "west")


def _glue_out(label: Optional[str]) -> str:
    return NULL_GLUE if label is None else label


def _glue_in(token: str, lineno: int) -> Optional[str]:
    if token == NULL_GLUE:
        return None
    if not token or not token.isascii() or not token.isprintable() or "=" in token:
        raise ParseError(lineno, f"bad glue label {token!r}")
    return token


# Below about this many entries the entry-by-entry loop is the faster
# reader: the one-pass reader's dozen C calls cost about 2.5 us a line.
_ONE_PASS_ENTRIES = 16


def _read_path(rest: str, tiles: dict[str, TileType], lineno: int) -> Path:
    """The path a path line's entries ``rest`` name.

    A long line is read in one tokenizing pass, with no Python statement
    per tile: the ``;`` slots are checked in C, and a ``;`` in any other
    slot fails ``int`` or the tile lookup, since no tile name holds one.
    A short line, and a bad one for its first bad entry's error, is read
    entry by entry.  Either way each coordinate token gets one int:
    CPython caches only -5..256, and a long path names each coordinate
    many times.
    """
    if rest.count(";") >= _ONE_PASS_ENTRIES - 1:
        words = rest.replace(";", " ; ").split()
        seps = words[3::4]
        if len(words) == 4 * len(seps) + 3 and seps.count(";") == len(seps):
            xs, ys = words[0::4], words[1::4]
            tokens = {*xs, *ys}
            try:
                coord = dict(zip(tokens, map(int, tokens))).__getitem__
                types = list(map(tiles.__getitem__, words[2::4]))
            except (KeyError, ValueError):
                pass
            else:
                # tuple() of an iterator reallocates the tuple as it grows;
                # a list copied once left walk-analyze's set-up about 0.5
                # MiB lower in peak RSS, at the same speed.
                positions = list(zip(map(coord, xs), map(coord, ys)))
                return Path._of(tuple(positions), tuple(types))
    coords: dict[str, int] = {}
    positions, types = [], []
    for part in rest.split(";"):
        fields = part.split()
        if len(fields) != 3:
            raise ParseError(lineno, "path entries are: <x> <y> <name>")
        xw, yw, name = fields
        x, y = coords.get(xw), coords.get(yw)
        if x is None or y is None:
            try:
                x, y = coords.setdefault(xw, int(xw)), coords.setdefault(yw, int(yw))
            except ValueError:
                raise ParseError(lineno, "path coordinates must be integers")
        t = tiles.get(name)
        if t is None:
            raise ParseError(lineno, f"unknown tile {name!r}")
        positions.append((x, y))
        types.append(t)
    return Path._of(tuple(positions), tuple(types))


def parse_system(text: str):
    """Parse a system file; returns ``(system, path_or_None)``."""
    tiles: dict[str, TileType] = {}
    tile_order: list[TileType] = []
    seed_entries: dict[tuple[int, int], TileType] = {}
    path = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # Most lines hold no comment: testing first skips a split per line.
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        # No directive reads more than six words, and a seventh is an error
        # for each of them: a long path line is not split here.
        words = line.split(None, 6)
        if words[0] == "tile":
            if len(words) != 6:
                raise ParseError(lineno, "tile line needs a name and four sides")
            name = words[1]
            if ";" in name:
                # A path line splits its tiles at ';', so no path could name it.
                raise ParseError(lineno, f"tile name {name!r} contains ';'")
            if name in tiles:
                raise DuplicateTile(lineno, f"tile {name!r} declared twice")
            glues = {}
            # Four tokens, each a side not named before: all four sides.
            for token in words[2:]:
                if "=" not in token:
                    raise ParseError(lineno, f"expected side=glue, got {token!r}")
                side, _, label = token.partition("=")
                if side not in _SIDES or side in glues:
                    raise ParseError(lineno, f"bad or repeated side {side!r}")
                glues[side] = _glue_in(label, lineno)
            t = TileType(name, **glues)
            tiles[name] = t
            tile_order.append(t)
        elif words[0] == "seed":
            if len(words) != 4:
                raise ParseError(lineno, "seed line is: seed <x> <y> <name>")
            try:
                x, y = int(words[1]), int(words[2])
            except ValueError:
                raise ParseError(lineno, "seed coordinates must be integers")
            t = tiles.get(words[3])
            if t is None:
                raise ParseError(lineno, f"unknown tile {words[3]!r}")
            if (x, y) in seed_entries:
                raise ParseError(lineno, f"seed position {(x, y)} repeated")
            seed_entries[(x, y)] = t
        elif words[0] == "path":
            if path is not None:
                raise ParseError(lineno, "more than one path line")
            path = _read_path(line[len("path"):], tiles, lineno)
        else:
            raise ParseError(lineno, f"unknown directive {words[0]!r}")
    if not seed_entries:
        raise ParseError(0, "no seed lines")
    try:
        seed = Assembly(seed_entries)
    except BadSystem as e:
        raise DisconnectedSeed(str(e))
    return TileSystem(tile_order, seed), path


def print_system(sys: TileSystem, path: Optional[Path] = None) -> str:
    lines = []
    for t in sys.tiles:
        sides = " ".join(f"{s}={_glue_out(t.glue(s))}" for s in _SIDES)
        lines.append(f"tile {t.name} {sides}")
    for (x, y), t in sorted(sys.seed.tiles.items()):
        lines.append(f"seed {x} {y} {t.name}")
    if path is not None:
        entries = " ; ".join(f"{x} {y} {t.name}" for (x, y), t in path.entries)
        lines.append(f"path {entries}")
    return "\n".join(lines) + "\n"


if TYPE_CHECKING:
    # Only annotations read it: a subscripted alias built at import stays in
    # typing's cache, and with it the classes of that import of the package.
    Certificate = Union[PumpingSpec, FragilityCert]


def emit_certificate(outcome: Union[ShieldOutcome, AnalysisResult,
                                    PumpingSpec, FragilityCert]) -> str:
    """Render a verified outcome as a certificate file."""
    if isinstance(outcome, (ShieldOutcome, AnalysisResult)):
        payload = outcome.pumpable if outcome.kind == "pumpable" else outcome.fragile
        if payload is None:
            raise ValueError(f"no certificate in a {outcome.kind} outcome")
        return emit_certificate(payload)
    if isinstance(outcome, PumpingSpec):
        vx, vy = outcome.vector
        return f"kind pumpable i={outcome.i} j={outcome.j}\nvector {vx} {vy}\n"
    lines = ["kind fragile"]
    for (x, y), t in outcome.attachments:
        lines.append(f"attach {x} {y} {t.name}")
    lines.append(f"conflict {outcome.conflict[0]} {outcome.conflict[1]}")
    return "\n".join(lines) + "\n"


def _ints(lineno: int, words: Sequence[str], what: str) -> tuple[int, ...]:
    try:
        return tuple(int(w) for w in words)
    except ValueError:
        raise ParseError(lineno, f"{what} must be integers")


def parse_certificate(text: str, sys: TileSystem,
                      path: Optional[Path] = None) -> Certificate:
    """Parse a certificate file back into a verifiable object.

    Pumping certificates reference path indices, so ``path`` is required
    for them; blocking certificates only need the system's tile names.
    The kind line is exactly ``kind pumpable i=<int> j=<int>`` or
    ``kind fragile``, and a pumping certificate has at most one ``vector``
    line.
    """
    lines = [l.split("#", 1)[0].strip() for l in text.splitlines()]
    lines = [(no, l) for no, l in enumerate(lines, start=1) if l]
    if not lines:
        raise ParseError(0, "empty certificate")
    no, head = lines[0]
    words = head.split()
    if words[0] != "kind" or len(words) < 2:
        raise ParseError(no, "certificate must start with a kind line")
    if words[1] == "pumpable":
        if len(words) > 4:
            raise ParseError(no, f"unexpected {words[4]!r} after the index pair")
        try:
            (ki, i), (kj, j) = (w.split("=", 1) for w in words[2:])
            if (ki, kj) != ("i", "j"):
                raise ValueError
            i, j = int(i), int(j)
        except ValueError:
            raise ParseError(no, "pumpable line needs i=<int> j=<int>")
        if path is None:
            raise ParseError(no, "pumping certificate needs the path")
        try:
            spec = PumpingSpec(path, i, j)
        except ValueError as e:
            raise ParseError(no, str(e))
        for n, (no2, l) in enumerate(lines[1:]):
            words = l.split()
            if words[0] != "vector" or len(words) != 3:
                raise ParseError(no2, f"unexpected line {l!r}")
            if n:
                raise ParseError(no2, "two vector lines")
            if _ints(no2, words[1:], "vector components") != spec.vector:
                raise ParseError(no2, "vector does not match the index pair")
        return spec
    if words[1] == "fragile":
        if len(words) > 2:
            raise ParseError(no, f"unexpected {words[2]!r} after kind fragile")
        attachments = []
        conflict = None
        for no2, l in lines[1:]:
            words = l.split()
            if words[0] == "attach" and len(words) == 4:
                t = sys.by_name.get(words[3])
                if t is None:
                    raise ParseError(no2, f"unknown tile {words[3]!r}")
                attachments.append((_ints(no2, words[1:3], "attach coordinates"), t))
            elif words[0] == "conflict" and len(words) == 3:
                if conflict is not None:
                    raise ParseError(no2, "two conflict lines")
                conflict = _ints(no2, words[1:], "conflict coordinates")
            else:
                raise ParseError(no2, f"unexpected line {l!r}")
        if conflict is None:
            raise ParseError(no, "fragile certificate has no conflict line")
        return FragilityCert(tuple(attachments), conflict)
    raise ParseError(no, f"unknown certificate kind {words[1]!r}")
