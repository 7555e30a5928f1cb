"""Pipeline: bounds, canonical form, decision tree, two-handed reduction."""

import random
import sys
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpkit import (
    Path,
    PumpingSpec,
    analyze,
    bound,
    bound_theorem1_extent,
    bound_theorem1_square_half_side,
    bound_theorem_main_distance,
    canonicalize,
    oracle,
    reduce_2ham,
    verify_fragile_cert,
    verify_pumpable_cert,
)
from pumpkit import cli, driver
from pumpkit import shield as engine
from pumpkit.budgets import EnumBudget
from pumpkit.driver import FLIP_H, FLIP_V, IDENTITY, ROT90, Frame
from pumpkit.errors import BadCounts, BadSystem, ClaimViolation, NotCanonical, TooShort
from pumpkit.formats import emit_certificate, parse_system, print_system
from pumpkit.tam import SIDE_OF_STEP, STEP, FragilityCert, TileType, validate_producible_path
from pumpkit.visibility import GlueView, Span, spans

from conftest import (TALL_BRANCH_CASES, TOWER_TEXT, _climb, _producible_walks, _short_walks,
                      and_east_facing, count_entries_reads, path_of, system_of, time_budget,
                      tower_path)


def test_bound_values():
    assert bound(1, 1) == 10240
    assert bound(2, 1) == 1342177280
    assert bound_theorem_main_distance(1, 1) == 10240
    assert bound_theorem1_square_half_side(1, 1) == 10241
    assert bound_theorem1_extent(1, 1) == 8 ** 5 * 11


def test_bound_monotone():
    vals = [[bound(t, s) for s in range(1, 6)] for t in range(1, 6)]
    for row in vals:
        assert row == sorted(row) and len(set(row)) == len(row)
    for col in zip(*vals):
        assert list(col) == sorted(col) and len(set(col)) == len(col)


def test_bound_rejects_zero():
    with pytest.raises(BadCounts):
        bound(0, 1)
    with pytest.raises(BadCounts):
        bound(1, 0)


def test_canonicalize_east_line_is_identity(unit):
    p = path_of(unit, *[(x, 0, "A") for x in range(1, 6)])
    canon = canonicalize(unit, p, bound_override=3)
    assert canon.frame.turns == 0
    assert canon.truncated_at == 4  # first tile on the half-side-4 square
    last = canon.path.pos(len(canon.path) - 1)
    xs = [x for x, _ in canon.path.positions] + \
         [x for x, _ in canon.sys.seed.tiles]
    ys = [y for _, y in canon.path.positions] + \
         [y for _, y in canon.sys.seed.tiles]
    assert min(xs) == 0 and min(ys) == 0
    assert last[0] == max(xs)


def test_canonicalize_north_line_rotates():
    sys_ = system_of([("N", "g", None, "g", None)], {(0, 0): "N"})
    p = path_of(sys_, *[(0, y, "N") for y in range(1, 6)])
    canon = canonicalize(sys_, p, bound_override=3)
    assert canon.frame.turns == 3
    last = canon.path.pos(len(canon.path) - 1)
    xs = [x for x, _ in canon.path.positions]
    assert last[0] == max(xs)


def test_canonicalize_too_short(unit):
    p = path_of(unit, (1, 0, "A"), (2, 0, "A"))
    with pytest.raises(TooShort):
        canonicalize(unit, p, bound_override=50)


def test_canonicalize_too_short_without_building_the_bound(unit, unit_path, monkeypatch):
    # 2^bound_log2_lower(|T|) is at most the true bound; a path shorter than
    # it is too short before the bound (millions of digits for 10^6 types)
    # is built.  A longer path still meets the exact bound.
    assert all(2 ** driver.bound_log2_lower(t) <= bound(t, 1) for t in range(1, 65))

    def refuse(*_):
        raise AssertionError("the true bound was built")

    monkeypatch.setattr(driver, "bound_theorem_main_distance", refuse)
    with pytest.raises(TooShort):
        canonicalize(unit, unit_path)
    assert analyze(unit, unit_path).trail[0] == "below-bound(no truncation)"
    long_path = path_of(unit, *[(x, 0, "A") for x in range(1, 1101)])
    with pytest.raises(AssertionError, match="the true bound was built"):
        canonicalize(unit, long_path)
    monkeypatch.undo()
    with pytest.raises(TooShort):
        canonicalize(unit, long_path)


def test_canonicalize_restores_positions(unit):
    p = path_of(unit, *[(x, 0, "A") for x in range(1, 6)])
    canon = canonicalize(unit, p, bound_override=3)
    back = canon.frame.inverse()
    for idx in range(canon.truncated_at + 1):
        assert back.apply(canon.path.pos(idx)) == p.pos(idx)


@pytest.mark.parametrize("rotations, cells", [
    (1, [(1, 0), (2, 0), (2, -1), (2, -2), (2, -3), (2, -4)]),  # leaves south
    (2, [(0, 1), (-1, 1), (-2, 1), (-2, 2), (-3, 2), (-4, 2)]),  # leaves west
    (3, [(1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (2, 4)]),  # leaves north
])
def test_canonicalize_restores_rotated_positions(rotations, cells):
    sys_ = system_of([("Z", "z", "z", "z", "z")], {(0, 0): "Z"})
    p = path_of(sys_, *[(x, y, "Z") for x, y in cells])
    canon = canonicalize(sys_, p, bound_override=3)
    assert canon.frame.turns == rotations
    assert canon.truncated_at == len(p) - 1
    back = canon.frame.inverse()
    for idx in range(len(p)):
        assert back.apply(canon.path.pos(idx)) == p.pos(idx)


def test_analyze_fragile_after_odd_rotation():
    # The path first meets the bound square on its north side, so the
    # canonical form turns it three quarter turns; the blocking
    # certificate is found in that frame and must come back unrotated.
    sys_ = system_of([("A", "c", "c", "c", "b"), ("B", None, "c", None, "b"),
                      ("C", "c", "a", None, "a"), ("D", "a", None, "c", "a"),
                      ("E", "a", "a", "a", None)],
                     {(0, 0): "B", (1, 0): "C"})
    p = path_of(sys_, (1, 1, "A"), (1, 2, "A"), (1, 3, "A"), (1, 4, "D"),
                (0, 4, "C"), (-1, 4, "E"), (-1, 3, "D"), (-1, 2, "C"),
                (-2, 2, "E"), (-2, 3, "E"), (-2, 4, "E"), (-2, 5, "E"))
    res = analyze(sys_, p, bound_override=2)
    assert res.trail[0].startswith("canonical(rot=3,")
    assert res.kind == "fragile"
    assert verify_fragile_cert(sys_, p, res.fragile).ok


# -- frames ------------------------------------------------------------------------

D4 = [Frame.rotation(k).compose(mirror) for k in range(4) for mirror in (IDENTITY, FLIP_H)]


def test_d4_elements():
    assert len({f.m for f in D4}) == 8
    assert {FLIP_V.m, ROT90.m} <= {f.m for f in D4}
    assert ROT90.apply((1, 0)) == (0, 1)  # counterclockwise
    assert ROT90.compose(ROT90).compose(ROT90).compose(ROT90) == IDENTITY


@given(st.sampled_from(D4), st.sampled_from(D4),
       st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
       st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
       st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
@settings(max_examples=200)
def test_frame_inverse_and_compose(m1, m2, d1, d2, q):
    f = Frame.translation(d1).compose(m1)
    g = Frame.translation(d2).compose(m2)
    assert f.inverse().compose(f) == IDENTITY
    assert f.compose(f.inverse()) == IDENTITY
    assert f.inverse().apply(f.apply(q)) == q
    assert f.compose(g).apply(q) == f.apply(g.apply(q))
    # A tile with four distinct glues shows where each side ends up.
    t = TileType("T", "n", "e", "s", "w")
    assert f.compose(g).apply(t) == f.apply(g.apply(t))
    assert f.inverse().apply(f.apply(t)) == t
    for side, step in STEP.items():
        assert f.apply(t).glue(SIDE_OF_STEP[Frame(f.m).apply(step)]) == t.glue(side)


def test_frame_moves_paths_and_certificates_entrywise(rng):
    paths = [p for _, p in _short_walks(rng, 40)]
    for m in D4:
        for _ in range(3):
            f = Frame.translation((rng.randint(-40, 40), rng.randint(-40, 40))).compose(m)
            for p in paths:
                want = [(f.apply(pos), f.apply(t)) for pos, t in p.entries]
                moved = f.apply(p)
                assert moved == Path(want) and hash(moved) == hash(Path(want))
                cert = f.apply(FragilityCert(p.entries, p.pos(len(p) - 1)))
                assert cert.attachments == tuple(want)
                assert cert.conflict == f.apply(p.pos(len(p) - 1))


def test_frame_move_reuses_the_moved_system_types(rng):
    instances = list(_short_walks(rng, 40))
    # A path type that only shares its name with a system type moves on its own.
    sys_, p = instances[0]
    odd = TileType(p.type(0).name, "x", "x", "x", "x")
    instances.append((sys_, Path([(pos, odd if t.name == odd.name else t)
                                  for pos, t in p.entries])))
    for m in D4:
        f = Frame.translation((rng.randint(-40, 40), rng.randint(-40, 40))).compose(m)
        for sys_, p in instances:
            msys, mp = f.move(sys_, p)
            want = f.apply(sys_)
            assert msys.tiles == want.tiles and msys.seed.tiles == want.seed.tiles
            assert mp == f.apply(p)
            for (_, t), (_, mt) in zip(p.entries, mp.entries):
                assert (mt is msys.by_name[t.name]) == (t == sys_.by_name.get(t.name))


def test_frame_moves_same_named_types_apart():
    # Two different types that share a name, in one path and in one
    # certificate: each tile moves with its own glues.
    a = TileType("A", "n", "e", "s", "w")
    a2 = TileType("A", "x", "y", "z", "u")
    sys_ = system_of([("A", "n", "e", "s", "w")], {(0, 0): "A"})
    placed = [((1, 0), a), ((2, 0), a2), ((3, 0), a), ((3, 1), a2)]
    p = Path(placed)
    cert = FragilityCert(placed, (4, 1))
    for f in D4[1:]:
        want = [f.apply(t) for _, t in placed]
        assert [t for _, t in f.apply(p).entries] == want
        assert [t for _, t in f.apply(cert).attachments] == want
        assert [t for _, t in f.move(sys_, p)[1].entries] == want
        assert want[0] != want[1]


def test_canonicalize_random_corpus(rng):
    checked = 0
    for sys_, p in _short_walks(rng, 600):
        try:
            canon = canonicalize(sys_, p, bound_override=3)
        except TooShort:
            continue
        assert validate_producible_path(canon.sys, canon.path).ok
        xs = [x for x, _ in canon.path.positions] + [x for x, _ in canon.sys.seed.tiles]
        last_x = canon.path.pos(len(canon.path) - 1)[0]
        assert xs.count(last_x) == 1 and last_x == max(xs)
        checked += 1
    assert checked >= 120


def test_analyze_unit(unit, unit_path):
    res = analyze(unit, unit_path, bound_override=2)
    assert res.kind == "pumpable"
    assert res.pumpable.vector == (1, 0)
    assert any("equal-span-pair" in t for t in res.trail)
    assert verify_pumpable_cert(unit, res.pumpable).ok


def test_analyze_no_shield_short():
    # Four tiles, no repeated span signature below the bound.
    sys_ = system_of([("A", None, "a", None, None), ("B", None, "b", None, "a"),
                      ("C", None, "c", None, "b"), ("D", None, None, None, "c")],
                     {(0, 0): "A"})
    p = path_of(sys_, (1, 0, "B"), (2, 0, "C"), (3, 0, "D"))
    res = analyze(sys_, p, bound_override=2)
    assert res.kind == "no_shield"


def test_analyze_fragile_instance(analyze_fragile):
    sys_, p = analyze_fragile
    res = analyze(sys_, p, bound_override=2)
    assert res.kind == "fragile"
    assert verify_fragile_cert(sys_, p, res.fragile).ok
    assert any("west-pigeonhole" in t for t in res.trail)


def test_analyze_reads_no_budget_env(unit, unit_path, analyze_fragile, monkeypatch):
    # Only the CLI reads PUMPKIT_BUDGET_*; the library runs under the
    # budget it is given, or the defaults, whatever the environment says.
    monkeypatch.setenv("PUMPKIT_BUDGET_MAX_NODES", "x")
    res = analyze(unit, unit_path, bound_override=2)
    assert res.kind == "pumpable" and "engine:repeat-at-exit" in res.trail
    assert verify_pumpable_cert(unit, res.pumpable).ok
    sys_, p = analyze_fragile
    res = analyze(sys_, p, bound_override=2)
    assert res.kind == "fragile" and verify_fragile_cert(sys_, p, res.fragile).ok


def test_analyze_battlements_couple_use(battlements):
    sys_, p = battlements
    res = analyze(sys_, p, bound_override=4)
    assert res.kind == "pumpable"
    assert verify_pumpable_cert(sys_, res.pumpable).ok
    assert any("equal-span-pair" in t for t in res.trail)


def test_analyze_transform_outcome_kind(staircase):
    sys_, p = staircase
    base = analyze(sys_, p, bound_override=2).kind
    for frame in (FLIP_H, FLIP_V):
        assert analyze(frame.apply(sys_), frame.apply(p), bound_override=2).kind == base


def test_analyze_resumes_after_a_rejected_proposal(staircase, monkeypatch):
    # A rejected proposal writes "<tag>-invalid:<reason>" and the tree goes
    # on.  Here the west pigeonhole, which proposes nothing, proposes a non-shield.
    sys_, p = staircase
    want = analyze(sys_, p, bound_override=2)
    assert not any(t.startswith("west-pigeonhole") for t in want.trail)
    monkeypatch.setattr(driver, "_west_pigeonhole_shield", lambda view, frame, trail: iter(
        [(view, frame, engine.Shield(0, 0, 0), "west-pigeonhole")]))
    got = analyze(sys_, p, bound_override=2)
    invalid = "west-pigeonhole-invalid:need 0 <= i < j <= k < |p|-1, got (0, 0, 0)"
    assert got.trail == [want.trail[0], invalid, *want.trail[1:]]
    assert (got.kind, got.pumpable, got.fragile) == (want.kind, want.pumpable, want.fragile)
    assert emit_certificate(got) == emit_certificate(want)


def test_analyze_corpus_certificates(rng):
    # The default systems rarely have two types that compete for a
    # position, so none of their walks is fragile; walks of up to 20 tiles
    # over two labels and few null glues are, now and then.
    budget = EnumBudget(max_path_len=10, max_nodes=4000)
    kinds = {"pumpable": 0, "fragile": 0, "no_shield": 0}
    competing = _short_walks(random.Random(0xC0FFEE), 1000, 20, max_tiles=4, max_seed=3,
                             alphabet="ab", null_bias=0.2)
    for sys_, p in chain(_short_walks(rng, 300, 10), competing):
        res = analyze(sys_, p, bound_override=2, budget=budget)
        kinds[res.kind] += 1
        if res.kind == "pumpable":
            assert verify_pumpable_cert(sys_, res.pumpable).ok
        elif res.kind == "fragile":
            assert verify_fragile_cert(sys_, p, res.fragile).ok
    assert kinds["pumpable"] > 90 and kinds["fragile"] > 0


SAMPLED_WALKS_SECONDS = 15.0  # about 4 s on a 2-core machine


def test_analyze_decides_or_gives_up_on_sampled_walks():
    # On seeded producible walks of 40-150 tiles over 1-4 tile types, with
    # no override and with one in 2..30, analyze returns no_shield or a
    # certificate on the given path that the verifiers accept, and raises
    # nothing.
    with time_budget(SAMPLED_WALKS_SECONDS):
        rng = random.Random(53)
        kinds = Counter()
        for sys_, p in _producible_walks(rng, 3000):
            for override in (None, rng.randint(2, 30)):
                res = analyze(sys_, p, bound_override=override)
                kinds[res.kind] += 1
                if res.kind == "pumpable":
                    assert res.pumpable.path == p and verify_pumpable_cert(sys_, res.pumpable).ok
                elif res.kind == "fragile":
                    assert verify_fragile_cert(sys_, p, res.fragile).ok
                else:
                    assert res.kind == "no_shield"
        assert kinds["pumpable"] > 3000 and kinds["fragile"] > 200 and kinds["no_shield"] > 1000


TWIN_TOWER_TEXT = TOWER_TEXT + "tile B north=a east=a south=a west=a\n"


def test_analyze_reaches_tall_branches():
    for runs, override, tags in TALL_BRANCH_CASES:
        sys_, p = tower_path(runs)
        res = analyze(sys_, p, bound_override=override)
        assert [t for t in res.trail if t in tags] == tags, (runs, res.trail)
        assert ("flip-vertical(down span)" in res.trail) == ("flip-vertical(down span)" in tags)
        assert res.kind == "pumpable", runs
        assert verify_pumpable_cert(sys_, res.pumpable).ok


def test_analyze_fragile_through_tall_prefix():
    # Two interchangeable tile types and a 185-row climb, below the true
    # bound.  The tall prefix is turned on its side, oriented east,
    # mirrored and blocked there; the blocking certificate must come back
    # through all three motions, the orienting one included.
    sys_, _ = parse_system(TWIN_TOWER_TEXT)
    cells = _climb("S2 E1 N175 W1 N10 E5")
    p = Path([(c, sys_.by_name["B" if n == 2 else "A"]) for n, c in enumerate(cells)])
    res = analyze(sys_, p)
    assert "tall-prefix(north,rows=183)" in res.trail
    assert "tall-span-fallthrough" not in res.trail  # decided inside the prefix
    assert res.kind == "fragile"
    assert verify_fragile_cert(sys_, p, res.fragile).ok


def test_analyze_past_the_true_bound_fails_loudly(tmp_path, capsys):
    # One tile type, east past bound(1, 1) = 10,240 with a hook at the end:
    # (0, 1) pumps, yet the tree ends at no-span-pair.  Past the true bound
    # analyze raises where an override gives no_shield, and the CLI exits 4.
    # Once the tree decides this path, assert a verified certificate instead.
    sys_, p = tower_path("E10239 N1 E1 S1 E1")
    assert len(p) == 10244 and verify_pumpable_cert(sys_, PumpingSpec(p, 0, 1)).ok
    with pytest.raises(ClaimViolation, match="^bound-decides: "):
        analyze(sys_, p)
    res = analyze(sys_, p, bound_override=bound(1, 1))
    assert res.kind == "no_shield" and res.trail[-1] == "no-span-pair"
    f = tmp_path / "hook.tiles"
    f.write_text(print_system(sys_, p))
    capsys.readouterr()
    assert cli.main(["analyze", str(f)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ClaimViolation: bound-decides") and err.count("\n") == 1


# Pool walks of the benchmark's walk generator (``walk_instance(n)`` of
# ``perfbench/gen.py``, n = 4, 36 and 955), inline.  Each pairs two down
# spans and is decided upright in the mirrored frame, which criterion 9's
# corpus never reaches.  Text, override, kind, trail and certificate.
DOWN_SPAN_WALKS = [
    # walk 4: 42 tiles
    ("tile A north=c east=a south=a west=b\n"
     "tile B north=- east=c south=- west=c\n"
     "tile C north=- east=c south=c west=a\n"
     "tile D north=c east=a south=a west=c\n"
     "tile E north=a east=b south=- west=b\n"
     "tile F north=a east=c south=c west=b\n"
     "seed 0 0 C\n"
     "seed 1 0 F\n"
     "path -1 0 D ; -2 0 F ; -2 1 D ; -3 1 B ; -4 1 F ; -4 2 D ; -4 3 C"
     " ; -3 3 B ; -2 3 D ; -2 4 F ; -3 4 E ; -4 4 E ; -5 4 E ; -6 4 E"
     " ; -7 4 E ; -8 4 E ; -9 4 E ; -10 4 E ; -10 5 A ; -10 6 C ; -11 6 A"
     " ; -11 7 F ; -10 7 D ; -10 8 F ; -10 9 A ; -10 10 F ; -10 11 A ; -10 12 C"
     " ; -11 12 A ; -11 11 E ; -12 11 E ; -12 12 A ; -12 13 F ; -12 14 A ; -11 14 C"
     " ; -10 14 D ; -9 14 C ; -9 13 D ; -8 13 C ; -7 13 B ; -6 13 D ; -5 13 C\n",
     6, "fragile",
     ["canonical(rot=2,cut=16)",
      "cone-case(c0=1)",
      "equal-span-pair(cols 3,4)",
      "flip-vertical(down spans)",
      "engine:route-conflict-east-copy"],
     ("kind fragile\n" "attach -1 0 D\n" "attach -2 0 F\n" "attach -2 1 D\n"
      "attach -3 1 B\n" "attach -4 1 B\n" "conflict -4 1\n")),
    # walk 36: 58 tiles
    ("tile A north=a east=c south=a west=c\n"
     "tile B north=- east=- south=- west=c\n"
     "tile C north=b east=b south=- west=c\n"
     "tile D north=a east=- south=a west=c\n"
     "tile E north=c east=a south=a west=c\n"
     "seed 0 0 B\n"
     "path -1 0 A ; -1 -1 D ; -1 -2 A ; -1 -3 D ; -2 -3 A ; -2 -4 A ; -1 -4 A"
     " ; -1 -5 D ; -1 -6 D ; -1 -7 D ; -1 -8 D ; -1 -9 D ; -2 -9 A ; -2 -8 A"
     " ; -2 -7 A ; -2 -6 A ; -2 -5 D ; -3 -5 A ; -3 -6 A ; -3 -7 A ; -3 -8 D"
     " ; -3 -9 A ; -3 -10 A ; -4 -10 A ; -5 -10 A ; -5 -9 A ; -5 -8 D ; -5 -7 E"
     " ; -6 -7 A ; -7 -7 A ; -7 -6 A ; -6 -6 D ; -6 -5 E ; -7 -5 A ; -8 -5 A"
     " ; -8 -6 D ; -8 -7 A ; -8 -8 A ; -8 -9 A ; -8 -10 D ; -8 -11 A ; -7 -11 E"
     " ; -7 -12 D ; -7 -13 D ; -7 -14 A ; -7 -15 D ; -7 -16 D ; -8 -16 A ; -9 -16 A"
     " ; -9 -17 A ; -8 -17 D ; -8 -18 A ; -9 -18 A ; -10 -18 A ; -10 -17 E ; -11 -17 A"
     " ; -11 -18 A ; -11 -19 D\n",
     10, "fragile",
     ["canonical(rot=1,cut=40)",
      "cone-case(c0=None)",
      "equal-span-pair(cols 5,6)",
      "flip-vertical(down spans)",
      "engine:route-conflict-west-copy"],
     ("kind fragile\n" "attach -1 0 A\n" "attach -1 -1 D\n" "attach -1 -2 A\n"
      "attach -1 -3 D\n" "attach -2 -3 A\n" "attach -2 -4 A\n" "attach -1 -4 A\n"
      "attach -1 -5 D\n" "attach -1 -6 D\n" "attach -1 -7 D\n" "attach -1 -8 D\n"
      "attach -1 -9 D\n" "attach -2 -9 A\n" "attach -2 -8 A\n" "attach -2 -7 A\n"
      "attach -2 -6 A\n" "attach -2 -5 A\n" "conflict -2 -5\n")),
    # walk 955: 73 tiles
    ("tile A north=a east=- south=c west=b\n"
     "tile B north=a east=b south=a west=a\n"
     "tile C north=b east=b south=a west=-\n"
     "tile D north=c east=a south=- west=a\n"
     "tile E north=a east=- south=b west=c\n"
     "tile F north=- east=b south=- west=c\n"
     "seed 0 0 D\n"
     "seed 0 1 E\n"
     "path 0 2 C ; 0 3 E ; 0 4 C ; 0 5 E ; 0 6 B ; 1 6 A ; 1 5 D"
     " ; 2 5 B ; 2 6 B ; 2 7 B ; 2 8 B ; 1 8 D ; 1 9 A ; 0 9 C"
     " ; 0 10 E ; 0 11 C ; 0 12 E ; 0 13 B ; -1 13 D ; -2 13 D ; -3 13 D"
     " ; -3 14 A ; -4 14 B ; -4 13 A ; -4 12 D ; -5 12 D ; -6 12 D ; -6 13 A"
     " ; -6 14 C ; -6 15 E ; -6 16 B ; -5 16 A ; -5 15 D ; -4 15 B ; -3 15 A"
     " ; -3 16 C ; -3 17 E ; -3 18 C ; -3 19 E ; -3 20 B ; -3 21 B ; -2 21 A"
     " ; -2 22 B ; -2 23 B ; -2 24 B ; -2 25 C ; -1 25 A ; -1 24 D ; 0 24 B"
     " ; 0 23 B ; 0 22 E ; 0 21 C ; 0 20 E ; 0 19 C ; 1 19 A ; 1 20 B"
     " ; 1 21 C ; 2 21 A ; 2 20 D ; 3 20 B ; 4 20 A ; 4 21 C ; 4 22 E"
     " ; 4 23 C ; 4 24 E ; 4 25 C ; 4 26 E ; 4 27 B ; 4 28 B ; 5 28 A"
     " ; 5 29 C ; 5 30 E ; 5 31 C\n",
     None, "pumpable",
     ["below-bound(no truncation)",
      "cone-case(c0=3)",
      "equal-span-pair(cols 15,19)",
      "flip-vertical(down spans)",
      "engine:anchor-stall"],
     ("kind pumpable i=39 j=48\n" "vector 3 4\n")),
]


@pytest.mark.parametrize("text, override, kind, trail, cert", DOWN_SPAN_WALKS,
                         ids=["walk-4", "walk-36", "walk-955"])
def test_analyze_down_span_pair_walks(text, override, kind, trail, cert):
    sys_, p = parse_system(text)
    res = analyze(sys_, p, bound_override=override)
    assert (res.kind, res.trail) == (kind, trail)
    assert emit_certificate(res) == cert


@pytest.mark.parametrize("override", [None, 2])
def test_analyze_rejects_unproducible_path(unit, override):
    # Validated once, in canonicalize, before the bound can cut anything.
    floating = path_of(unit, (5, 5, "A"), (6, 5, "A"))
    with pytest.raises(BadSystem, match="SeedDetached"):
        analyze(unit, floating, bound_override=override)

def test_analyze_without_override_reports_below_bound(unit, unit_path):
    # Without an override the true bound applies; a three-tile path falls
    # back to the untruncated frame and the trail says so.  It still gets
    # decided: the spans machinery needs no bound.
    res = analyze(unit, unit_path)
    assert any("below-bound" in t for t in res.trail)
    assert res.kind == "pumpable"


# -- one engine call site, one certificate move -----------------------------------------


def test_analyze_moves_only_a_blocking_certificate_back(request, monkeypatch):
    # Walks through the mirrored and turned sub-instances.  The engine is
    # called from ``analyze`` alone; a pumping pair is read on the caller's
    # path, so nothing is moved for it, and a blocking certificate is moved
    # back once, whatever the depth of the frame it was found in.
    moved = Counter()
    apply = Frame.apply

    def counting_apply(self, obj):
        moved[type(obj).__name__] += 1
        return apply(self, obj)

    callers = Counter()
    decide = engine.pump_or_block

    def counting_decide(*args, **kwargs):
        callers[sys._getframe(1).f_code.co_name] += 1
        return decide(*args, **kwargs)

    monkeypatch.setattr(Frame, "apply", counting_apply)
    monkeypatch.setattr(engine, "pump_or_block", counting_decide)
    twins = parse_system(TWIN_TOWER_TEXT)[0]
    instances = [(*request.getfixturevalue(name), override) for name, override in
                 [("analyze_fragile", 2), ("bank_flip", None), ("down_spans", None)]]
    instances += [(*parse_system(text), override) for text, override, *_ in DOWN_SPAN_WALKS]
    instances += [(*tower_path(runs), override) for runs, override, _ in TALL_BRANCH_CASES]
    cells = _climb("S2 E1 N175 W1 N10 E5")
    instances.append((twins, Path([(c, twins.by_name["B" if n == 2 else "A"])
                                   for n, c in enumerate(cells)]), None))
    trails = []
    for sys_, p, override in instances:
        moved.clear()
        res = analyze(sys_, p, bound_override=override)
        assert res.kind != "no_shield", res.trail
        assert moved == Counter({"FragilityCert": 1} if res.kind == "fragile" else {})
        trails += res.trail
    assert set(callers) == {"analyze"}
    for tag in ["west-pigeonhole(", "flip-vertical(orient visible bank)",
                "flip-vertical(down spans)", "flip-vertical(down span)",
                "tall-prefix(north", "tall-prefix(south", "narrow-prefix("]:
        assert any(t.startswith(tag) for t in trails), tag


# -- one glue view per frame ---------------------------------------------------------


@pytest.fixture
def unit_instance(unit, unit_path):
    return unit, unit_path


@pytest.fixture
def bank_flip():
    # West glues visible from the north: the pipeline mirrors vertically
    # first, then the west pigeonhole mirrors horizontally.
    sys_ = system_of([("A", "d", "b", None, None), ("B", "c", None, "c", "c"),
                      ("C", "c", "d", "b", "d")],
                     {(0, 0): "B", (0, -1): "B"})
    p = path_of(sys_, (0, -2, "B"), (0, -3, "B"), (0, -4, "C"), (1, -4, "C"),
                (1, -3, "B"), (1, -2, "B"), (1, -1, "B"), (1, 0, "B"), (1, 1, "B"))
    return sys_, p


@pytest.fixture
def down_spans():
    # East along the top, back west through the middle, east along the
    # bottom: columns 2-4 carry spans whose south glue comes last (down).
    sys_ = system_of([("Z", "z", "z", "z", "z")], {(0, 0): "Z"})
    cells = [(1, y) for y in range(5)] + [(x, 4) for x in range(2, 6)]
    cells += [(5, 3), (5, 2), (4, 2), (3, 2), (2, 2), (2, 1), (2, 0)]
    cells += [(x, 0) for x in range(3, 9)]
    return sys_, path_of(sys_, *[(x, y, "Z") for x, y in cells])


FRAME_CASES = [
    ("unit_instance", 2, ["equal-span-pair(cols 1,2)"], 1),
    ("analyze_fragile", 2, ["west-pigeonhole(i=0,j=1,k=7)"], 2),
    ("bank_flip", None,
     ["flip-vertical(orient visible bank)", "west-pigeonhole(i=0,j=1,k=7)"], 3),
    # The mirrored frame's shield ends before the last glue: the engine
    # works on a shorter prefix but reuses the frame's view.
    ("down_spans", None, ["equal-span-pair(cols 2,3)", "flip-vertical(down spans)"], 2),
]


@pytest.mark.parametrize("instance, override, tags, views", FRAME_CASES)
def test_analyze_builds_one_view_per_frame(request, monkeypatch, instance, override,
                                           tags, views):
    sys_, p = request.getfixturevalue(instance)
    built = []
    init = GlueView.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(GlueView, "__init__", counting)
    res = analyze(sys_, p, bound_override=override)
    assert all(t in res.trail for t in tags), res.trail
    assert res.kind != "no_shield"
    assert len(built) == views


# Glue records one ``pump_or_block`` call builds: glues i, j and k in the
# shield check.  The workspace and the later stages read glue midpoints off
# the doubled tile positions and build none.
ENGINE_GLUE_RECORDS = 3


def _count_glue_records(monkeypatch):
    """Count the glue records ``analyze`` builds, and any full glue list.

    Records built inside the engine count per ``pump_or_block`` call (the
    most of any call is kept); every other record must be of a glue the
    driver filtered out of its view's south-visible bank.
    """
    counts = {"lists": 0, "checks": 0, "engine": 0, "driver": 0, "stray": 0}
    open_calls = []
    glue = GlueView.glue

    def counting_glue(self, i):
        if open_calls:
            open_calls[-1] += 1
        elif i in self.banks[0]:
            counts["driver"] += 1
        else:
            counts["stray"] += 1
        return glue(self, i)

    def full_list(self):
        counts["lists"] += 1
        return [glue(self, i) for i in range(len(self.path) - 1)]

    check = engine.check_shield

    def counting_check(*args, **kwargs):
        counts["checks"] += 1
        return check(*args, **kwargs)

    decide = engine.pump_or_block

    def counting_decide(*args, **kwargs):
        open_calls.append(0)
        try:
            return decide(*args, **kwargs)
        finally:
            counts["engine"] = max(counts["engine"], open_calls.pop())

    monkeypatch.setattr(GlueView, "glue", counting_glue)
    monkeypatch.setattr(GlueView, "glues", property(full_list))
    monkeypatch.setattr(engine, "check_shield", counting_check)
    monkeypatch.setattr(engine, "pump_or_block", counting_decide)
    return counts


@pytest.mark.parametrize("instance, override", [c[:2] for c in FRAME_CASES])
def test_analyze_builds_glue_records_on_request(request, monkeypatch, instance, override):
    # No view of the decision builds its full glue list, and a shield check
    # builds a bounded number of glue records, whatever the path's length.
    sys_, p = request.getfixturevalue(instance)
    counts = _count_glue_records(monkeypatch)
    assert analyze(sys_, p, bound_override=override).kind != "no_shield"
    assert counts["lists"] == counts["stray"] == 0
    assert 1 <= counts["checks"] and counts["engine"] <= ENGINE_GLUE_RECORDS


@pytest.mark.parametrize("instance, override", [c[:2] for c in FRAME_CASES])
def test_analyze_reads_no_path_entries(request, monkeypatch, instance, override):
    # Every reader on the decision's path reads positions and types;
    # ``entries`` builds a pair per tile on each read.
    sys_, p = request.getfixturevalue(instance)
    reads = count_entries_reads(monkeypatch)
    assert analyze(sys_, p, bound_override=override).kind != "no_shield"
    assert reads == []


def test_analyze_builds_glue_records_on_request_on_walks(monkeypatch):
    # Seeded producible walks of 40-150 tiles, and the tall-span towers,
    # whose narrow-prefix case reads records off its south-visible bank.
    # The tall-span cases read no ``Path.entries`` either.
    counts = _count_glue_records(monkeypatch)
    reads = count_entries_reads(monkeypatch)
    kinds = Counter()
    for sys_, p in _producible_walks(random.Random(31), 200):
        kinds[analyze(sys_, p, bound_override=2).kind] += 1
    for runs, override, _ in TALL_BRANCH_CASES:
        kinds[analyze(*tower_path(runs), bound_override=override).kind] += 1
    assert counts["lists"] == counts["stray"] == 0 and reads == []
    assert counts["engine"] <= ENGINE_GLUE_RECORDS
    assert counts["checks"] > 100 and counts["driver"] > 10
    assert kinds["pumpable"] > 100 and kinds["fragile"] > 3


def test_view_spans_match_fresh_spans(rng):
    # Spans read off a shared view's column records equal fresh spans, and
    # the view's precondition fails exactly where fresh spans fail.
    checked = 0
    for sys_, p in and_east_facing(_short_walks(rng, 1500)):
        view = GlueView(sys_, p)
        try:
            want = spans(sys_, p)
        except NotCanonical:
            with pytest.raises(NotCanonical):
                view.check_spans_defined()
            continue
        view.check_spans_defined()
        records = view.column_spans()
        assert list(records) == sorted(records)
        assert [Span.of(col, rec) for col, rec in records.items()] == want
        assert view.column_spans() == records
        checked += 1
    assert checked >= 200


def test_view_spans_not_canonical():
    # The last glue shares its column with an earlier glue: not extremal.
    sys_ = system_of([("T", "t", "t", "t", "t")], {(0, 0): "T"})
    p = path_of(sys_, (0, 1, "T"), (1, 1, "T"), (1, 2, "T"), (0, 2, "T"))
    view = GlueView(sys_, p)
    for _ in range(2):  # a failure leaves the view as it was
        with pytest.raises(NotCanonical, match="not the unique extremal glue"):
            view.check_spans_defined()
        with pytest.raises(NotCanonical, match="not the unique extremal glue"):
            spans(sys_, p)


# -- two-handed reduction -------------------------------------------------------


def test_reduce_east_line(unit):
    A = unit.by_name["A"]
    p = Path([((x, 0), A) for x in (5, 6, 7)])
    red = reduce_2ham([A], p)
    assert sorted(red.sys.seed.tiles) == [(5, 0)]
    assert len(red.path) == 2
    assert validate_producible_path(red.sys, red.path).ok


def test_reduce_vertical_rotates():
    sys_ = system_of([("N", "g", None, "g", None)], {(0, 0): "N"})
    N = sys_.by_name["N"]
    p = Path([((0, y), N) for y in range(4)])
    red = reduce_2ham([N], p)
    assert "rotated upright" in red.notes
    xs = [x for x, _ in red.path.positions]
    assert max(xs) - min(xs) == len(red.path) - 1  # now horizontal


def test_reduce_tiebreak_reports():
    sys_ = system_of([("T", "t", "t", "t", "t")], {(9, 9): "T"})
    T = sys_.by_name["T"]
    p = Path([((0, 1), T), ((1, 1), T), ((1, 0), T), ((0, 0), T)])
    red = reduce_2ham([T], p)
    assert any("westernmost" in n for n in red.notes)


def test_reduce_random_snakes(rng):
    # Random glue-matched snakes re-seed and validate.
    sys_ = system_of([("T", "t", "t", "t", "t")], {(0, 0): "T"})
    T = sys_.by_name["T"]
    for _ in range(100):
        red = reduce_2ham([T], oracle.random_walk(rng, sys_, rng.randrange(3, 13)))
        assert validate_producible_path(red.sys, red.path).ok


def test_driver_rejects_out_of_range_input(unit, unit_path):
    with pytest.raises(BadCounts):
        canonicalize(unit, unit_path, bound_override=0)
    with pytest.raises(TypeError):
        ROT90.apply("not a grid object")
    A = unit.by_name["A"]
    with pytest.raises(TooShort):
        reduce_2ham([A], Path([((x, 0), A) for x in range(3)]), target_width=5)
    with pytest.raises(TooShort):
        reduce_2ham([A], Path([((0, 0), A)]))
    # Adjacent but glue-mismatched: the re-seeded path does not bind.
    sys_ = system_of([("X", None, "a", None, None), ("Y", None, None, None, "b")],
                     {(9, 9): "X"})
    X, Y = sys_.by_name["X"], sys_.by_name["Y"]
    with pytest.raises(BadSystem, match="reduced path fails validation"):
        reduce_2ham([X, Y], Path([((0, 0), X), ((1, 0), Y)]))


def test_reduce_with_width_truncation(unit):
    A = unit.by_name["A"]
    p = Path([((x, 0), A) for x in range(10)])
    red = reduce_2ham([A], p, target_width=3)
    xs = [x for x, _ in red.path.positions] + [x for x, _ in red.sys.seed.tiles]
    assert max(xs) - min(xs) == 3
