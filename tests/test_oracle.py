"""The brute-force layer itself: enumeration counts, searches, flood fill."""

import random
import subprocess
import sys

import pytest

from pumpkit import Path, PolyCurve, Side, classify_side, oracle, validate_producible_path
from pumpkit.budgets import EnumBudget
from pumpkit.errors import BadSystem, WindowTooSmall
from pumpkit.oracle import FloodFill
from pumpkit.shield import Shield, enumerate_shields

from conftest import _climb, path_of, random_curve, src_env, system_of


def test_enumerate_unit(unit):
    # The matching east/west glue grows in both directions off the seed;
    # the enumeration is exhaustive, in breadth-first length order.
    enum = oracle.PathEnumeration(unit, EnumBudget(max_path_len=3))
    got = [p.positions for p in enum]
    east = [((1, 0),), ((1, 0), (2, 0)), ((1, 0), (2, 0), (3, 0))]
    west = [((-1, 0),), ((-1, 0), (-2, 0)), ((-1, 0), (-2, 0), (-3, 0))]
    assert sorted(got) == sorted(east + west)
    assert [len(p) for p in got] == sorted(len(p) for p in got)
    assert not enum.truncated


def test_enumerate_counts_doubling():
    # Two interchangeable types on one chain glue: 2^L paths at length L.
    sys_ = system_of([("S", None, "g", None, None),
                      ("A", None, "g", None, "g"),
                      ("B", None, "g", None, "g")],
                     {(0, 0): "S"})
    enum = oracle.PathEnumeration(sys_, EnumBudget(max_path_len=5,
                                                   max_nodes=10 ** 6))
    counts = {}
    for p in enum:
        counts[len(p)] = counts.get(len(p), 0) + 1
    assert counts == {1: 2, 2: 4, 3: 8, 4: 16, 5: 32}


def test_enumerate_no_interaction():
    sys_ = system_of([("A", None, "a", None, None)], {(0, 0): "A"})
    sys2 = system_of([("A", None, "a", None, "b")], {(0, 0): "A"})
    # Seed's east glue is 'a' but the only west glue is 'b': nothing grows.
    assert list(oracle.PathEnumeration(sys2, EnumBudget())) == []


def test_enumerate_truncation_flag(unit):
    enum = oracle.PathEnumeration(unit, EnumBudget(max_path_len=10),
                                  max_paths=2)
    assert len(list(enum)) == 2 and enum.truncated


def test_enumeration_no_duplicates(rng):
    budget = EnumBudget(max_path_len=8, max_nodes=2000)
    for _ in range(40):
        sys_ = oracle.random_system(rng)
        seen = set()
        for p in oracle.PathEnumeration(sys_, budget, max_paths=500):
            key = tuple((pos, t.name) for pos, t in p.entries)
            assert key not in seen
            seen.add(key)


def test_brute_fragile_directed_none(unit, unit_path):
    assert oracle.brute_fragile(unit, unit_path) is None


def test_brute_fragile_blocker(blocker):
    sys_, p = blocker
    cert = oracle.brute_fragile(sys_, p)
    assert cert is not None
    assert len(cert.attachments) + len(sys_.seed) <= 12


def test_brute_fragile_rejects_floating_path(unit):
    # A path that never touches the seed grows from nothing, so no
    # conflict with it can certify fragility.
    p = path_of(unit, (5, 5, "A"), (6, 5, "A"), (7, 5, "A"), (8, 5, "A"))
    with pytest.raises(BadSystem, match="SeedDetached@0"):
        oracle.brute_fragile(unit, p)


def test_brute_pumpable_unit(unit, unit_path):
    spec = oracle.brute_pumpable(unit, unit_path)
    assert (spec.i, spec.j) == (0, 1)


def test_brute_pumpable_rejects_floating_path(unit):
    # The unit pump moved off the seed: every pair pumps except that
    # tile 0 binds nothing, so no pair may be confirmed.
    p = path_of(unit, (5, 5, "A"), (6, 5, "A"), (7, 5, "A"), (8, 5, "A"))
    assert not oracle.confirm_pumpable(unit, p, 0, 1)
    assert oracle.brute_pumpable(unit, p) is None
    # The same path on the seed's row pumps at once.
    on_seed = path_of(unit, (1, 0, "A"), (2, 0, "A"), (3, 0, "A"), (4, 0, "A"))
    assert oracle.confirm_pumpable(unit, on_seed, 0, 1)


def test_brute_pumpable_spiral_none():
    # A one-turn spiral of single-use glues: every index pair fails the
    # seam interaction or collides, so the exhaustive scan returns none.
    sys_ = system_of([("S", "0", None, None, None),
                      ("A", None, "1", "0", None),
                      ("B", None, None, "2", "1"),
                      ("C", "2", None, "3", None),
                      ("D", "3", None, None, "4"),
                      ("E", None, "4", None, None)],
                     {(0, 0): "S"})
    p = path_of(sys_, (0, 1, "A"), (1, 1, "B"), (1, 0, "C"), (1, -1, "D"),
                (0, -1, "E"))
    assert validate_producible_path(sys_, p).ok
    assert oracle.brute_pumpable(sys_, p, EnumBudget(max_pump_depth=12)) is None


def test_floodfill_vertical_line():
    curve = PolyCurve([(1, 0)], south_ray=True, north_ray=True)
    window = (-5, -5, 5, 5)
    fill = FloodFill(curve, window)
    assert fill.side((4, 0)) is Side.RIGHT
    assert fill.side((-4, 0)) is Side.LEFT
    assert fill.side((1, 3)) is Side.ON


def test_floodfill_window_too_small():
    curve = PolyCurve([(0, 0), (8, 0)], south_ray=True, north_ray=True)
    with pytest.raises(WindowTooSmall):
        FloodFill(curve, (-2, -2, 2, 2))


def test_floodfill_agrees_with_classifier(rng):
    for _ in range(60):
        curve = random_curve(rng, corners=6)
        x0, y0, x1, y1 = curve.bbox()
        window = (x0 - 2, y0 - 2, x1 + 2, y1 + 2)
        fill = FloodFill(curve, window)
        for x in range(window[0], window[2] + 1, 2):
            for y in range(window[1], window[3] + 1, 2):
                assert fill.side((x, y)) is classify_side(curve, (x, y))


def test_brute_right_priority_single_route(staircase):
    sys_, p = staircase
    sh = Shield(0, 2, 4)
    cut = oracle.route_problem(sys_, p, sh)[0]
    route = oracle.brute_right_priority(sys_, p, sh)
    assert route[0] == (4, 0) and abs(route[-1][0] - cut.points[-1][0]) == 1


def test_brute_right_priority_budget():
    sys_ = system_of([("S", "b", "a", "b", "a")], {(0, 0): "S"})
    p = Path([(pos, sys_.by_name["S"]) for pos in _climb("E1" + " N1 E1" * 30)])
    shields = [sh for sh in enumerate_shields(sys_, p) if sh.j < sh.k]
    sh = max(shields, key=lambda s: 2 * s.k - s.i - s.j)
    with pytest.raises(WindowTooSmall):
        oracle.brute_right_priority(sys_, p, sh, EnumBudget(max_graph_vertices=10))


# The first 200 walks of seed 2026 on the producible-walk systems, hashed
# by position and type name.  Every sampled test input rests on these.
WALK_DIGEST_CODE = """\
import hashlib, random
from pumpkit import oracle
rng, digest = random.Random(2026), hashlib.sha256()
for _ in range(200):
    sys_ = oracle.random_system(rng, max_tiles=4, max_seed=3, alphabet="ab", null_bias=0.2)
    p = oracle.random_walk(rng, sys_, rng.randint(40, 150))
    digest.update(repr((p.positions, [t.name for t in p.types])).encode())
print(digest.hexdigest())
"""
WALK_DIGEST = "5e392289e33bd390fa572c2603bd4bac910f218f1488d7a42a4df99a1c18b422"


def test_random_walk_is_pinned(capsys):
    # In this process and in two fresh ones with other string hash seeds.
    exec(WALK_DIGEST_CODE, {})
    outs = [capsys.readouterr().out]
    for hash_seed in ("0", "12345"):
        env = dict(src_env(), PYTHONHASHSEED=hash_seed)
        outs.append(subprocess.run([sys.executable, "-c", WALK_DIGEST_CODE], env=env,
                                   capture_output=True, text=True, timeout=60).stdout)
    assert outs == [WALK_DIGEST + "\n"] * 3


def test_random_walk_stops_at_its_length_or_a_dead_end(unit):
    # The unit tile binds east and west only: a walk runs straight.
    p = oracle.random_walk(random.Random(5), unit, 7)
    assert len(p) == 7 and {y for _, y in p.positions} == {0}
    assert validate_producible_path(unit, p).ok
    sealed = system_of([("A", None, None, None, None)], {(0, 0): "A"})
    assert oracle.random_walk(random.Random(5), sealed, 7) == Path([])
