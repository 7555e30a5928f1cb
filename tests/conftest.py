"""Shared test inputs: test modules import them from here, never from each other.

Small engineered systems exercising each engine branch; criterion 9's
corpus, its shield lists and one recorded engine pass, each built once per
session; seeded generators, tower paths and golden figures.
"""

import functools
import os
import random
from types import SimpleNamespace

import pytest

from pumpkit import Assembly, Path, TileSystem, TileType, oracle, shield, tam
from pumpkit.budgets import EnumBudget
from pumpkit.driver import ROT90
from pumpkit.errors import NotEasternmost
from pumpkit.formats import parse_system
from pumpkit.geometry import PolyCurve
from pumpkit.shield import Shield
from pumpkit.svgout import render_svg
from pumpkit.visibility import GlueView, check_glue_east, check_glue_side


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def src_env():
    """Environment for a child Python that imports pumpkit from this checkout.

    ``PYTHONPATH`` gets the absolute ``src`` directory first, so the child
    finds the package from any working directory without an install.
    """
    src = os.path.join(REPO, "src")
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([src, inherited]) if inherited else src)


def system_of(tile_specs, seed_cells):
    tiles = [TileType(name, n, e, s, w) for name, n, e, s, w in tile_specs]
    by = {t.name: t for t in tiles}
    seed = Assembly({pos: by[name] for pos, name in seed_cells.items()})
    return TileSystem(tiles, seed)


def path_of(sys_, *steps):
    return Path([((x, y), sys_.by_name[name]) for x, y, name in steps])


def check_orderings(sys_, p):
    """Run both glue-order checkers on ``p`` in each of its four quarter turns.

    ``check_glue_east`` runs where the last glue is horizontal and visible
    from the north, ``check_glue_side`` where the last tile is easternmost;
    each must find nothing.  Returns how many times each ran.
    """
    east = side = 0
    for _ in range(4):
        view = GlueView(sys_, p)
        last = view.glues[-1]
        if last.horizontal and view.visible(last.index, "north"):
            assert check_glue_east(sys_, p) is None
            east += 1
        try:
            assert check_glue_side(sys_, p) is None
            side += 1
        except NotEasternmost:
            pass
        sys_, p = ROT90.apply(sys_), ROT90.apply(p)
    return east, side


def count_entries_reads(monkeypatch):
    """Count reads of ``Path.entries``, which the decision never makes.

    Returns the list of the lengths of the paths read, one per read.
    """
    reads = []
    entries = Path.entries

    def counting(self):
        reads.append(len(self))
        return entries.fget(self)

    monkeypatch.setattr(Path, "entries", property(counting))
    return reads


@pytest.fixture
def unit():
    """One tile, matching east/west glue, single seed tile."""
    return system_of([("A", None, "g", None, "g")], {(0, 0): "A"})


@pytest.fixture
def unit_path(unit):
    return path_of(unit, (1, 0, "A"), (2, 0, "A"), (3, 0, "A"))


@pytest.fixture
def blocker():
    """Two interchangeable tile types on one glue; paths conflict on type."""
    sys_ = system_of([("A", None, "a", None, "a"), ("B", "b", "a", None, "a")],
                     {(0, 0): "A"})
    path = path_of(sys_, (1, 0, "A"), (2, 0, "A"), (3, 0, "B"), (4, 0, "A"))
    return sys_, path


@pytest.fixture
def staircase():
    """Self-stacking corner tile; the engine exits through the seam case."""
    sys_ = system_of([("S", "b", "a", "b", "a")], {(0, 0): "S"})
    path = path_of(sys_, (1, 0, "S"), (2, 0, "S"), (2, 1, "S"), (3, 1, "S"),
                   (3, 2, "S"), (4, 2, "S"))
    return sys_, path


@pytest.fixture
def multi_step():
    """Instance whose progress loop advances its anchor twice before stalling."""
    sys_ = system_of([("A", "b", "a", "a", None),
                      ("B", "c", "d", "a", "b"),
                      ("C", "a", "d", "c", "a")],
                     {(0, 0): "A", (0, -1): "C"})
    path = path_of(sys_, (1, 0, "C"), (1, 1, "A"), (2, 1, "C"), (2, 2, "B"),
                   (2, 3, "C"), (2, 4, "A"), (3, 4, "C"), (3, 5, "B"),
                   (3, 6, "C"), (2, 6, "A"))
    return sys_, path


@pytest.fixture
def analyze_fragile():
    """Instance the full pipeline blocks via the west-glue pigeonhole."""
    sys_ = system_of([("A", "d", "a", "b", None),
                      ("B", None, "d", "a", "d"),
                      ("C", "b", None, "d", "d")],
                     {(0, 0): "B"})
    path = path_of(sys_, (1, 0, "B"), (2, 0, "B"), (3, 0, "C"), (3, -1, "A"),
                   (3, -2, "C"), (2, -2, "B"), (1, -2, "B"), (0, -2, "B"),
                   (-1, -2, "B"))
    return sys_, path


@pytest.fixture
def battlements():
    """A path whose columns carry spans of heights 0, 6 and 8."""
    sys_ = system_of([("Z", "z", "z", "z", "z")], {(0, 0): "Z"})
    cells = [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0),
             (6, 1), (6, 2), (6, 3), (5, 3), (4, 3), (3, 3), (2, 3),
             (2, 4), (2, 5), (2, 6), (3, 6), (3, 7), (3, 8),
             (4, 8), (5, 8), (6, 8), (7, 8), (8, 8)]
    path = Path([(pos, sys_.by_name["Z"]) for pos in cells])
    return sys_, path


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


# -- criterion 9's corpus ----------------------------------------------------------

CORPUS_SEED = 20260810
CORPUS_MAX_TILES = 3
CORPUS_MAX_SEED = 2
CORPUS_PATH_CAP = 3000  # systems enumerating past this are not kept


def _corpus(n_systems, rng, budget, cap=CORPUS_PATH_CAP):
    kept = 0
    while kept < n_systems:
        sys_ = oracle.random_system(rng, max_tiles=CORPUS_MAX_TILES,
                                    max_seed=CORPUS_MAX_SEED)
        enum = oracle.PathEnumeration(sys_, budget, max_paths=cap)
        paths = list(enum)
        if enum.truncated:
            continue  # complete enumeration only
        kept += 1
        yield sys_, paths


CORPUS_SYSTEMS = 200
CORPUS_BUDGET = EnumBudget(max_path_len=14, max_nodes=10 ** 6)


@functools.cache
def _corpus_build():
    """Criterion 9's corpus paths, and the generator's state after its last kept system."""
    rng = random.Random(CORPUS_SEED)
    paths = [(sys_, p) for sys_, paths in _corpus(CORPUS_SYSTEMS, rng, CORPUS_BUDGET)
             for p in paths]
    return paths, rng.getstate()


def corpus_paths():
    """Criterion 9's corpus: each ``(system, path)``, the paths of up to 14 tiles
    of ``CORPUS_SYSTEMS`` systems of seed ``CORPUS_SEED``, in corpus order."""
    return _corpus_build()[0]


def corpus_rng():
    """A fresh generator in the state right after criterion 9's last kept system.

    ``_corpus(n, corpus_rng(), CORPUS_BUDGET)`` yields the next ``n``
    systems of the seed-``CORPUS_SEED`` corpus, so a larger corpus reuses
    the first ``CORPUS_SYSTEMS`` without enumerating them again.
    """
    rng = random.Random()
    rng.setstate(_corpus_build()[1])
    return rng


@functools.cache
def corpus_shields():
    """``(system, path, shields)`` for each corpus path: its ``enumerate_shields`` list."""
    return [(sys_, p, shield.enumerate_shields(sys_, p)) for sys_, p in corpus_paths()]


ENGINE_PARTS = 4


@functools.cache
def _engine_groups():
    """The j < k shields of criterion 9's corpus, grouped by what their curves depend on.

    That is the positions of tiles 0..k+1 and the triple, except that a
    conflict ends the construction before the progress loop.
    """
    groups = {}
    for sys_, p, shields in corpus_shields():
        for sh in shields:
            if sh.j < sh.k:
                groups.setdefault((p.positions[:sh.k + 2], sh), []).append((sys_, p, sh))
    return list(groups.values())


RECORDED = ("PolyCurve", "SideCache", "curve_in_closed_right", "curve_intersection",
            "build_workspace")


def _recorded(fn, calls):
    """``fn``, appending the arguments and result of each call to ``calls``."""
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((args, out))
        return out
    return wrapper


@pytest.fixture(scope="session", params=range(ENGINE_PARTS))
def engine_record(request):
    """One ``pump_or_block`` pass over one part of ``_engine_groups()``, recorded.

    Each group's shields are decided until one pumps, which makes every
    curve of the group.  In call order: the ``curves`` ``shield`` builds, the
    curves of its side caches (``boundaries``), the ``checked`` (sub-curve,
    boundary) containment pairs, the intersected curve ``pairs`` and the
    ``workspaces``.  Session-scoped and parametrized, so
    pytest runs each part's tests together: one pass, one live record.
    """
    calls = {name: [] for name in RECORDED}
    budget = CORPUS_BUDGET
    groups = _engine_groups()[request.param::ENGINE_PARTS]
    pumped = 0
    with pytest.MonkeyPatch.context() as mp:
        for name in RECORDED:
            mp.setattr(shield, name, _recorded(getattr(shield, name), calls[name]))
        for group in groups:
            for sys_, p, sh in group:
                if shield.pump_or_block(sys_, p, sh, budget).kind == "pumpable":
                    pumped += 1
                    break
    return SimpleNamespace(
        groups=len(groups), pumped=pumped,
        curves=[curve for _, curve in calls["PolyCurve"]],
        boundaries=[cache.curve for _, cache in calls["SideCache"]],
        checked=[(sub, cache.curve) for (sub, cache), _ in calls["curve_in_closed_right"]],
        pairs=[args for args, _ in calls["curve_intersection"]],
        workspaces=[ws for _, ws in calls["build_workspace"]])


# -- seeded generators -------------------------------------------------------------


def random_curve(rng, corners=10):
    """A simple almost-vertical curve built as a monotone-north staircase."""
    pts = [(rng.randrange(-6, 7) * 2 + 1, -10)]
    y = -10
    for _ in range(corners):
        x = pts[-1][0]
        nx = x + rng.choice([-2, -1, 1, 2]) * rng.randrange(1, 4)
        pts.append((nx, y))
        y += rng.randrange(1, 4)
        pts.append((nx, y))
    return PolyCurve(pts, south_ray=True, north_ray=True)


# Simple curves that turn back south and west, with half steps; every
# vertex sits on some window diagonal, so the windows exercise lines that
# pass through a vertex and lines that only graze one.
HAND_MADE = [
    [(1, -4), (1, 0), (5, 0), (5, -6), (9, -6), (9, 4), (-3, 4), (-3, 8)],
    [(0, 0), (2, 0), (2, 2)],            # graze at a minimum of y - x
    [(0, 0), (0, 2), (2, 2)],            # graze at a maximum of y - x
    [(0, 0), (2, 0), (2, -2), (4, -2)],  # pass-through vertices
    [(3, 0), (3, 1), (2, 1), (2, 3), (-2, 3), (-2, 5), (4, 5), (4, 2), (6, 2),
     (6, 9)],
    [(0, 0)],
]


def _short_walks(rng, count, length=9):
    """Seeded random producible walks of 1 to ``length`` tiles, one per random system.

    The length is drawn first; walks that stall at once are dropped.
    """
    made = 0
    while made < count:
        sys_ = oracle.random_system(rng)
        p = oracle.random_walk(rng, sys_, rng.randint(1, length))
        if len(p):
            made += 1
            yield sys_, p


def _producible_walks(rng, count):
    """Seeded random producible walks of 40-150 tiles; walks that stall early are dropped."""
    made = 0
    while made < count:
        sys_ = oracle.random_system(rng, max_tiles=4, max_seed=3, alphabet="ab",
                                    null_bias=0.2)
        p = oracle.random_walk(rng, sys_, rng.randint(40, 150))
        if len(p) < 40:
            continue
        assert tam.validate_producible_path(sys_, p)
        made += 1
        yield sys_, p


ANY_SIDE = TileType("W", "w", "w", "w", "w")


def _long_walks(rng, count):
    """Random self-avoiding walks of 40-150 tiles beside a small random seed.

    The walk is drawn on one type that binds on every side, then each tile
    gets a type of the drawn system, so glue labels vary and the path need
    not bind; visibility and spans do not depend on the path binding.
    """
    made = 0
    while made < count:
        sys_ = oracle.random_system(rng, max_tiles=4, max_seed=3)
        free = TileSystem([ANY_SIDE], Assembly(dict.fromkeys(sys_.seed.tiles, ANY_SIDE)))
        walk = oracle.random_walk(rng, free, rng.randint(40, 150))
        if len(walk) < 40:
            continue
        made += 1
        yield sys_, Path([(pos, rng.choice(sys_.tiles)) for pos in walk.positions])


# -- tower fixtures ----------------------------------------------------------------

TOWER_TEXT = """\
tile A north=a east=a south=a west=a
seed 0 0 A
"""


def _climb(runs):
    """Cells from (1, 0) along runs such as ``"E1 N50"``: a heading, a length."""
    cells = [(1, 0)]
    for run in runs.split():
        dx, dy = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}[run[0]]
        for _ in range(int(run[1:])):
            cells.append((cells[-1][0] + dx, cells[-1][1] + dy))
    return cells


def tower_path(runs):
    """The tower system and its path along ``_climb(runs)``."""
    sys_, _ = parse_system(TOWER_TEXT)
    return sys_, Path([(c, sys_.by_name["A"]) for c in _climb(runs)])


def _tower_walks(rng, count):
    """Seeded tower walks from the seed, cut at their first easternmost tile.

    The tower has one tile type with the same glue on every side, so every
    self-avoiding walk that misses the seed is producible; the cut makes
    its last tile the unique easternmost.
    """
    sys_, _ = parse_system(TOWER_TEXT)
    made = 0
    while made < count:
        p = oracle.random_walk(rng, sys_, 150)
        east = max(x for x, _ in p.positions)
        cut = next(s for s, (x, _) in enumerate(p.positions) if x == east)
        if cut < 2:
            continue
        made += 1
        yield sys_, p.prefix(cut)


# Tower paths (one tile type, from (1, 0)) through the tall-span case, with
# the override they run under and the trail tags they must write, in order.
TALL_BRANCH_CASES = [
    # The 51-row column beside the seed is taller than the cone allows.
    # The prefix up to that span is far taller than wide, so it is turned
    # on its side and the span pipeline runs again there and pumps.
    ("E1 N50 W1 N1 E60", 55, ["tall-span(col=1,h=51)", "tall-prefix(north,rows=51)"]),
    # A 9-column comb under the tall column: the prefix is wide enough for
    # a same-label pair of south glues to clear the exit ray.
    ("E9 N2 W9 N44 E12", None, ["tall-span(col=1,h=46)", "narrow-prefix(i=0,j=8,k=64)"]),
    # Its mirror: the tall span points down and is read upright after a flip.
    ("E9 S2 W9 S44 E12", None, ["tall-span(col=1,h=46)", "flip-vertical(down span)",
                                "narrow-prefix(i=0,j=8,k=64)"]),
    # A down span whose upright prefix reaches below the seed.
    ("N46 E1 S48 W1 S1 E5", None, ["flip-vertical(down span)",
                                   "tall-prefix(south,rows=46)"]),
    # An up span whose prefix reaches below the seed, with no flip.
    ("S50 E1 N53 W1 N1 E20", None, ["tall-span(col=1,h=54)",
                                    "tall-prefix(south,rows=50)"]),
]


# -- golden figures ----------------------------------------------------------------


def _golden_cases():
    unit = system_of([("A", None, "g", None, "g")], {(0, 0): "A"})
    unit_path = path_of(unit, (1, 0, "A"), (2, 0, "A"), (3, 0, "A"))
    stair = system_of([("S", "b", "a", "b", "a")], {(0, 0): "S"})
    stair_path = path_of(stair, (1, 0, "S"), (2, 0, "S"), (2, 1, "S"),
                         (3, 1, "S"), (3, 2, "S"), (4, 2, "S"))
    return [
        ("unit_plain.svg", render_svg(unit, unit_path)),
        ("unit_workspace.svg",
         render_svg(unit, unit_path, overlays={"cut", "regions"},
                    shield=Shield(0, 1, 1))),
        ("staircase_rays.svg",
         render_svg(stair, stair_path, overlays={"rays"}, shield=Shield(0, 2, 4))),
    ]
