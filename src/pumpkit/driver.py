"""End-to-end analysis pipeline: canonical form, span bookkeeping, case split.

Given a producible path, the driver rotates and truncates it into a
canonical frame (last tile the unique easternmost), then hunts for a
shield: first through the west-pointing glue pigeonhole, then through
repeated spans (same glue type and orientation, non-decreasing height),
splitting on whether some span height outruns the cone bound.  Every
shield found is handed to the engine; results are mapped back into the
caller's frame and re-verified there.

The theorem-scale distance bounds are astronomically beyond desk scale
even for one tile type, so ``analyze`` accepts an explicit override; run
without one it computes the true bound with exact integers and reports
honestly that the path is too short.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

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
from .shield import Shield, ShieldOutcome
from .tam import Assembly, FragilityCert, Path, PumpingSpec, TileSystem, TileType
from .visibility import GlueView, Span, spans

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


# -- rigid transforms ----------------------------------------------------------

_SIDE_MAPS = {
    # new side -> old side it takes its glue from
    "rot90": {"north": "east", "east": "south", "south": "west", "west": "north"},
    "flipH": {"north": "north", "east": "west", "south": "south", "west": "east"},
    "flipV": {"north": "south", "east": "east", "south": "north", "west": "west"},
}

_POS_MAPS: dict[str, Callable[[Pos], Pos]] = {
    "rot90": lambda p: (-p[1], p[0]),  # quarter turn counterclockwise
    "flipH": lambda p: (-p[0], p[1]),
    "flipV": lambda p: (p[0], -p[1]),
}

_INVERSE = {"flipH": ("flipH",), "flipV": ("flipV",),
            "rot90": ("rot90", "rot90", "rot90")}


def transform_tile(t: TileType, op: str) -> TileType:
    m = _SIDE_MAPS[op]
    return TileType(t.name, *(t.glue(m[s]) for s in ("north", "east", "south", "west")))


def transform_position(pos: Pos, op: str) -> Pos:
    return _POS_MAPS[op](pos)


def transform(sys: TileSystem, op: str) -> TileSystem:
    """Rotate or mirror a whole system; names and producibility carry over."""
    tiles = [transform_tile(t, op) for t in sys.tiles]
    seed = Assembly({transform_position(p, op): transform_tile(t, op)
                     for p, t in sys.seed.tiles.items()})
    extra = [transform_tile(t, op) for t in sys.seed_only_types]
    return TileSystem(tiles, seed, extra)


def transform_path(p: Path, sys_after: TileSystem, op: str) -> Path:
    return Path([(transform_position(pos, op), sys_after.by_name[t.name])
                 for pos, t in p.entries])


def transform_fragility(cert: FragilityCert, sys_after: TileSystem,
                        op: str) -> FragilityCert:
    return FragilityCert(
        tuple((transform_position(pos, op), sys_after.by_name[t.name])
              for pos, t in cert.attachments),
        transform_position(cert.conflict, op))


# -- canonical form --------------------------------------------------------------


@dataclass
class CanonicalForm:
    """A rotated/translated/truncated instance plus the log to undo it."""

    sys: TileSystem
    path: Path
    rotations: int  # counterclockwise quarter turns applied
    pre_translation: Pos  # applied first (start tile to the origin)
    post_translation: Pos  # applied after rotating (west/south margins to zero)
    truncated_at: int  # kept prefix length minus one
    easternmost_column: int

    def restore_position(self, pos: Pos) -> Pos:
        x, y = pos[0] - self.post_translation[0], pos[1] - self.post_translation[1]
        for _ in range(self.rotations % 4):
            x, y = y, -x
        return (x - self.pre_translation[0], y - self.pre_translation[1])

    def restore_fragility(self, cert: FragilityCert,
                          original: TileSystem) -> FragilityCert:
        return FragilityCert(
            tuple((self.restore_position(pos), original.by_name[t.name])
                  for pos, t in cert.attachments),
            self.restore_position(cert.conflict))


def _translate_system(sys: TileSystem, d: Pos) -> TileSystem:
    seed = Assembly({(x + d[0], y + d[1]): t for (x, y), t in sys.seed.tiles.items()})
    return TileSystem(sys.tiles, seed, sys.seed_only_types)


def _margins(sys: TileSystem, p: Path) -> Pos:
    xs = [x for x, _ in list(sys.seed.tiles) + list(p.positions)]
    ys = [y for _, y in list(sys.seed.tiles) + list(p.positions)]
    return (-min(xs), -min(ys))


def _easternmost_column(view_path: Path) -> int:
    # The canonical last glue points east; its column is one west of the tile.
    return max(x for x, _ in view_path.positions) - 1


def canonicalize(sys: TileSystem, p: Path,
                 bound_override: Optional[int] = None) -> CanonicalForm:
    """Truncate at the centered square, rotate east, translate to margins.

    The square's half side is the distance bound plus the seed size; the
    path is cut at its first tile on the square, rotated so that tile is
    the unique easternmost of path plus seed, and translated so the
    westernmost/southernmost coordinates are zero.  Raises
    :class:`TooShort` when the path never reaches the square.
    """
    rep = tam.validate_producible_path(sys, p)
    if not rep:
        raise BadSystem(f"path is not producible: {rep.code}@{rep.index}")
    dist = bound_override if bound_override is not None else \
        bound_theorem_main_distance(len(sys.tiles), len(sys.seed))
    if dist < 1:
        raise BadCounts("bound override must be >= 1")
    half = dist + len(sys.seed)
    pre = (-p.pos(0)[0], -p.pos(0)[1])
    moved_path = p.translate(pre)
    b = next((s for s, (pos, _) in enumerate(moved_path.entries)
              if max(abs(pos[0]), abs(pos[1])) == half), None)
    if b is None:
        raise TooShort(f"path never reaches the square of half side {half}")
    moved_sys = _translate_system(sys, pre)
    trunc = Path(moved_path.entries[: b + 1])
    bx, by = trunc.pos(b)
    if bx == half:
        rotations = 0
    elif by == half:
        rotations = 3
    elif bx == -half:
        rotations = 2
    else:
        rotations = 1
    cur_sys, cur_path = moved_sys, trunc
    for _ in range(rotations):
        cur_sys = transform(cur_sys, "rot90")
        cur_path = transform_path(cur_path, cur_sys, "rot90")
    post = _margins(cur_sys, cur_path)
    cur_sys = _translate_system(cur_sys, post)
    cur_path = cur_path.translate(post)
    rep = tam.validate_producible_path(cur_sys, cur_path)
    if not rep:
        raise ClaimViolation("canonical-revalidates",
                             f"canonical form broke producibility: {rep.code}")
    xs = [x for x, _ in list(cur_sys.seed.tiles) + list(cur_path.positions)]
    last_x = cur_path.pos(len(cur_path) - 1)[0]
    if xs.count(last_x) != 1 or last_x != max(xs):
        raise ClaimViolation("canonical-east", "last tile is not unique easternmost")
    return CanonicalForm(cur_sys, cur_path, rotations, pre, post, b,
                         _easternmost_column(cur_path))


def _rotate_to_east(sys: TileSystem, p: Path):
    """Best-effort orientation for paths below the bound: try all four."""
    cur_sys, cur_path = sys, p
    for rotations in range(4):
        xs = [x for x, _ in list(cur_sys.seed.tiles) + list(cur_path.positions)]
        last_x = cur_path.pos(len(cur_path) - 1)[0]
        if xs.count(last_x) == 1 and last_x == max(xs):
            post = _margins(cur_sys, cur_path)
            return (_translate_system(cur_sys, post), cur_path.translate(post),
                    rotations, post)
        cur_sys = transform(cur_sys, "rot90")
        cur_path = transform_path(cur_path, cur_sys, "rot90")
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


def _outcome_to_result(out: ShieldOutcome, trail: list[str]) -> AnalysisResult:
    trail = trail + [f"engine:{out.branch}"]
    if out.kind == "pumpable":
        return AnalysisResult("pumpable", trail, pumpable=out.pumpable)
    return AnalysisResult("fragile", trail, fragile=out.fragile)


class _Flipped:
    """Run a sub-analysis in a mirrored or rotated frame and map results back.

    Only fragility certificates need mapping (their coordinates live in
    the transformed frame); pumpable results are index pairs into the
    same path and transfer unchanged.
    """

    def __init__(self, sys: TileSystem, p: Path, ops: list[str]):
        self.ops = ops
        for op in ops:
            sys = transform(sys, op)
            p = transform_path(p, sys, op)
        self.sys, self.path = sys, p

    def restore(self, res: AnalysisResult, original_sys: TileSystem,
                original_path: Path) -> AnalysisResult:
        if res.kind == "fragile":
            cert = res.fragile
            for op in reversed(self.ops):
                for inv in _INVERSE[op]:
                    cert = FragilityCert(
                        tuple((transform_position(pos, inv), t)
                              for pos, t in cert.attachments),
                        transform_position(cert.conflict, inv))
            cert = FragilityCert(
                tuple((pos, original_sys.by_name[t.name])
                      for pos, t in cert.attachments),
                cert.conflict)
            res = AnalysisResult("fragile", res.trail, fragile=cert)
        elif res.kind == "pumpable":
            spec = PumpingSpec(original_path, res.pumpable.i, res.pumpable.j)
            res = AnalysisResult("pumpable", res.trail, pumpable=spec)
        return res


def _run_shield(sys: TileSystem, p: Path, sh: Shield, trail: list[str],
                budget: EnumBudget) -> AnalysisResult:
    out = engine.pump_or_block(sys, p, sh, budget)
    return _outcome_to_result(out, trail)


def _sub_analysis(sys: TileSystem, p: Path, ops: list[str],
                  runner) -> Optional[AnalysisResult]:
    flipped = _Flipped(sys, p, ops)
    res = runner(flipped.sys, flipped.path)
    if res is None or res.kind == "no_shield":
        return res
    return flipped.restore(res, sys, p)


# -- the decision tree ---------------------------------------------------------------


def _west_pigeonhole_shield(sys: TileSystem, p: Path, view: GlueView,
                            trail: list[str],
                            budget: EnumBudget) -> Optional[AnalysisResult]:
    """Two same-type west glues visible from the south give a mirrored shield."""
    west = [g for g in view.south_visible() if g.pointing == "west"]
    by_label: dict[str, list[int]] = {}
    for g in west:
        by_label.setdefault(g.label, []).append(g.index)
    pair = None
    for label in sorted(by_label):
        idxs = by_label[label]
        if len(idxs) >= 2:
            pair = (idxs[0], idxs[1])
            break
    if pair is None:
        return None
    i, j = pair
    k = len(p) - 2
    trail.append(f"west-pigeonhole(i={i},j={j},k={k})")

    def runner(fsys, fpath):
        try:
            return _run_shield(fsys, fpath, Shield(i, j, k), trail, budget)
        except NotAShield as e:
            trail.append(f"west-pigeonhole-invalid:{e}")
            return None

    return _sub_analysis(sys, p, ["flipH"], runner)


@dataclass
class _Ledger:
    columns: list[int]  # first-occurrence columns, ascending
    heights: list[int]
    by_column: dict[int, Span]
    x0: int
    x_last: int  # the easternmost glue column, appended as the final entry


def _build_ledger(sys: TileSystem, p: Path, trail: list[str]) -> Optional[_Ledger]:
    try:
        all_spans = {s.coordinate: s for s in spans(sys, p, "vertical")}
    except NotCanonical as e:
        # Short paths can end beside seed glues on the same column; the
        # span bookkeeping is then undefined and no case can fire.
        trail.append(f"ledger-unavailable: {e}")
        return None
    if not all_spans:
        return None
    x_last = max(all_spans)
    # Largest west-contiguous stretch of east-pointing spans ending at the
    # easternmost column; below the bound earlier columns may misbehave, in
    # which case the ledger simply starts further east.
    x0 = x_last
    while (x0 - 1) in all_spans and all_spans[x0 - 1].pointing == "east":
        x0 -= 1
    if all_spans[x_last].pointing != "east":
        trail.append("ledger-empty: easternmost span does not point east")
        return None
    first_seen: dict[tuple[str, str], int] = {}
    columns, heights = [], []
    for col in range(x0, x_last + 1):
        s = all_spans[col]
        sig = (s.glue_type, s.orientation)
        if sig not in first_seen:
            first_seen[sig] = col
            columns.append(col)
            heights.append(s.height)
    tiles = len(sys.tiles)
    if len(columns) > 2 * tiles:
        raise ClaimViolation("ledger-size",
                             f"{len(columns)} span signatures for {tiles} tile types")
    return _Ledger(columns, heights, all_spans, x0, x_last)


def _find_couple_pair(ledger: _Ledger) -> Optional[tuple[Span, Span]]:
    """Westernmost pair of same-signature spans with non-decreasing height."""
    cols = sorted(ledger.by_column)
    cols = [c for c in cols if ledger.x0 <= c <= ledger.x_last]
    best = None
    for ai, a in enumerate(cols):
        sa = ledger.by_column[a]
        if sa.pointing != "east":
            continue
        for b in cols[ai + 1:]:
            sb = ledger.by_column[b]
            if (sb.pointing == "east" and sb.glue_type == sa.glue_type
                    and sb.orientation == sa.orientation
                    and sb.height >= sa.height):
                cand = (a, b)
                if best is None or cand < best:
                    best = cand
                break  # later b only increases the pair lexicographically
    if best is None:
        return None
    return ledger.by_column[best[0]], ledger.by_column[best[1]]


def _couple_use(sys: TileSystem, p: Path, sa: Span, sb: Span, trail: list[str],
                budget: EnumBudget) -> Optional[AnalysisResult]:
    """Hand a repeated-span pair to the engine (mirrored upright if needed)."""
    trail.append(f"equal-span-pair(cols {sa.coordinate},{sb.coordinate})")
    ops = []
    if sa.orientation == "down":
        ops = ["flipV"]
        trail.append("flip-vertical(down spans)")

    def runner(fsys, fpath):
        fspans = {s.coordinate: s for s in spans(fsys, fpath, "vertical")}
        fa, fb = fspans[sa.coordinate], fspans[sb.coordinate]
        sh = Shield(fa.s, fb.s, fb.n)
        try:
            return _run_shield(fsys, fpath, sh, trail, budget)
        except NotAShield as e:
            trail.append(f"span-pair-invalid:{e}")
            return None

    return _sub_analysis(sys, p, ops, runner)


def _case_tall_span(sys: TileSystem, p: Path, ledger: _Ledger, c: int,
                    trail: list[str], budget: EnumBudget,
                    depth: int) -> Optional[AnalysisResult]:
    """A span taller than the cone allows: work inside the prefix below it."""
    col = ledger.columns[c] if c < len(ledger.columns) else ledger.x_last
    span_c = ledger.by_column[col]
    trail.append(f"tall-span(col={col},h={span_c.height})")
    ops = []
    if span_c.orientation == "down":
        ops = ["flipV"]
        trail.append("flip-vertical(down span)")

    def runner(fsys, fpath):
        fspan = {s.coordinate: s for s in spans(fsys, fpath, "vertical")}[col]
        return _case_tall_span_upright(fsys, fpath, fspan, trail, budget, depth)

    return _sub_analysis(sys, p, ops, runner)


def _case_tall_span_upright(sys: TileSystem, p: Path, span_c: Span,
                            trail: list[str], budget: EnumBudget,
                            depth: int) -> Optional[AnalysisResult]:
    tiles, seed = len(sys.tiles), len(sys.seed)
    n_c = span_c.n
    q = p.prefix(n_c + 1)
    viewq = GlueView(sys, q)
    x_prime = max((g.column for g in viewq.glues if g.horizontal), default=0)
    narrow = span_c.height < 4 * tiles * (x_prime + 2) + 3 * seed + 1
    if narrow:
        res = _case_narrow_prefix(sys, q, viewq, span_c, x_prime, trail, budget)
        if res is not None:
            return res
        trail.append("narrow-prefix-fallthrough")
    return _case_tall_prefix(sys, q, span_c, x_prime, trail, budget, depth)


def _case_narrow_prefix(sys: TileSystem, q: Path, viewq: GlueView, span_c: Span,
                        x_prime: int, trail: list[str],
                        budget: EnumBudget) -> Optional[AnalysisResult]:
    """Wide prefix: many same-type south glues exist; shift the exit ray clear."""
    west_limit = min(x for x, _ in
                     list(sys.seed.tiles) + list(q.positions))
    candidates = [g for g in viewq.south_visible() if g.pointing == "east"]
    by_label: dict[str, list] = {}
    for g in candidates:
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
            try:
                return _run_shield(sys, q, Shield(i, j, span_c.n), trail, budget)
            except NotAShield as e:
                trail.append(f"narrow-prefix-invalid:{e}")
    return None


def _case_tall_prefix(sys: TileSystem, q: Path, span_c: Span, x_prime: int,
                      trail: list[str], budget: EnumBudget,
                      depth: int) -> Optional[AnalysisResult]:
    """Tall prefix: turn it sideways and recurse on the repeated-span machinery."""
    tiles, seed_n = len(sys.tiles), len(sys.seed)
    needed = 2 * tiles * (x_prime + 2) + seed_n + 1
    seed_ys = [y for _, y in sys.seed.tiles]
    top_rows = max(y for _, y in q.positions) - max(seed_ys)
    bot_rows = min(seed_ys) - min(y for _, y in q.positions)
    if top_rows >= needed:
        target = max(seed_ys) + needed
        b = next((s for s, (pos, _) in enumerate(q.entries)
                  if pos[1] == target), None)
        ops = ["rot90", "rot90", "rot90"]  # clockwise: north faces east
        trail.append(f"tall-prefix(north,rows={top_rows})")
    elif bot_rows >= needed:
        target = min(seed_ys) - needed
        b = next((s for s, (pos, _) in enumerate(q.entries)
                  if pos[1] == target), None)
        ops = ["flipV", "rot90", "rot90", "rot90"]
        trail.append(f"tall-prefix(south,rows={bot_rows})")
    else:
        trail.append("tall-prefix-too-flat")
        return None
    if b is None:
        raise ClaimViolation("tall-prefix-row",
                             "no tile on the target row despite the extent")
    qq = q.prefix(b)

    def runner(fsys, fpath):
        oriented = _rotate_to_east(fsys, fpath)
        if oriented is None:
            trail.append("tall-prefix-not-orientable")
            return None
        osys, opath, _, _ = oriented
        return _spans_pipeline(osys, opath, trail, budget, depth + 1)

    return _sub_analysis(sys, qq, ops, runner)


def _spans_pipeline(sys: TileSystem, p: Path, trail: list[str],
                    budget: EnumBudget, depth: int) -> Optional[AnalysisResult]:
    """West pigeonhole, then the span ledger and its two cases.

    Precondition: the last tile of ``p`` is the unique easternmost tile
    of path plus seed.
    """
    if depth > 3:
        trail.append("depth-limit")
        return None
    view = GlueView(sys, p)
    north_west = [g for g in view.north_visible() if g.pointing == "west"]
    if north_west:
        south_east = all(g.pointing == "east" for g in view.south_visible())
        if not south_east:
            raise ClaimViolation("visible-side",
                                 "west glues visible on both banks")
        trail.append("flip-vertical(orient visible bank)")
        return _sub_analysis(
            sys, p, ["flipV"],
            lambda fsys, fpath: _spans_pipeline(fsys, fpath, trail, budget,
                                                depth + 1))
    res = _west_pigeonhole_shield(sys, p, view, trail, budget)
    if res is not None:
        return res
    ledger = _build_ledger(sys, p, trail)
    if ledger is None:
        return None
    tiles, seed_n = len(sys.tiles), len(sys.seed)
    heights_all = ledger.heights + [ledger.by_column[ledger.x_last].height]
    cols_all = ledger.columns + [ledger.x_last]
    tall_c = next((c for c in range(len(cols_all))
                   if heights_all[c] > 4 * tiles * tiles * (cols_all[c] + 4 * seed_n + 6)),
                  None)
    if tall_c is not None:
        res = _case_tall_span(sys, p, ledger, tall_c, trail, budget, depth)
        if res is not None:
            return res
        trail.append("tall-span-fallthrough")
    else:
        # Cone containment: every first-occurrence column sits within the
        # running height sum, whose exact-integer bounding chain is
        # re-checked wherever its base case applies.
        total = ledger.x0
        c0 = None
        chain_base = ledger.x0 <= 4 * tiles * (4 * seed_n + 6) - 2
        for c in range(len(cols_all)):
            if cols_all[c] > total:
                c0 = c
                break
            if chain_base and total > (4 * tiles) ** (2 * c + 1) * (4 * seed_n + 6) - 2:
                raise ClaimViolation(
                    "cone-chain",
                    f"height sum {total} breaks the chain bound at step {c}")
            if c < len(ledger.heights):
                total += ledger.heights[c]
        trail.append(f"cone-case(c0={c0})")
    pair = _find_couple_pair(ledger)
    if pair is None:
        trail.append("no-span-pair")
        return None
    return _couple_use(sys, p, pair[0], pair[1], trail, budget)


def analyze(sys: TileSystem, p: Path, bound_override: Optional[int] = None,
            budget: Optional[EnumBudget] = None) -> AnalysisResult:
    """Full pipeline: canonicalize, find a shield, decide it, verify, report.

    Returns a verified pumping or blocking certificate in the caller's
    coordinates, or ``no_shield`` with the decision trail when the path
    is below the effective bound and no case fires.
    """
    budget = budget or EnumBudget.from_env()
    rep = tam.validate_producible_path(sys, p)
    if not rep:
        raise BadSystem(f"path is not producible: {rep.code}@{rep.index}")
    trail: list[str] = []
    try:
        canon = canonicalize(sys, p, bound_override)
        trail.append(f"canonical(rot={canon.rotations},cut={canon.truncated_at})")
        csys, cpath = canon.sys, canon.path
        restore = canon
    except TooShort:
        trail.append("below-bound(no truncation)")
        oriented = _rotate_to_east(sys, p)
        if oriented is None:
            trail.append("not-orientable")
            return AnalysisResult("no_shield", trail)
        csys, cpath, rotations, post = oriented
        restore = CanonicalForm(csys, cpath, rotations, (0, 0), post,
                                len(p) - 1, _easternmost_column(cpath))
    res = _spans_pipeline(csys, cpath, trail, budget, 0)
    if res is None:
        return AnalysisResult("no_shield", trail)
    if res.kind == "pumpable":
        spec = PumpingSpec(p, res.pumpable.i, res.pumpable.j)
        check = tam.verify_pumpable_cert(sys, spec)
        if not check:
            raise ClaimViolation("certificate-verifies",
                                 f"restored pumping rejected: {check.reason}")
        return AnalysisResult("pumpable", res.trail, pumpable=spec)
    cert = restore.restore_fragility(res.fragile, sys)
    check = tam.verify_fragile_cert(sys, p, cert)
    if not check:
        raise ClaimViolation("certificate-verifies",
                             f"restored blocking cert rejected: {check.reason}")
    return AnalysisResult("fragile", res.trail, fragile=cert)


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
        tiles = [transform_tile(t, "rot90") for t in tiles]
        by = {t.name: t for t in tiles}
        entries = [(transform_position(pos, "rot90"), by[t.name])
                   for pos, t in entries]
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
