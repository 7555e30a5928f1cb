"""Shared fixtures: small engineered systems exercising each engine branch."""

import os
import random

import pytest

from pumpkit import Assembly, Path, TileSystem, TileType
from pumpkit.geometry import PolyCurve


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def doubled(curve):
    """The curve with every coordinate doubled, for half-resolution references."""
    return PolyCurve([(2 * x, 2 * y) for x, y in curve.points],
                     curve.south_ray, curve.north_ray)


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
