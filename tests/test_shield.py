"""The engine: shield recognition, workspace claims, routes, certificates."""

import math
from collections import Counter
from itertools import chain

import pytest

from pumpkit import (
    build_workspace,
    enumerate_shields,
    pump_or_block,
    verify_fragile_cert,
    verify_pumpable_cert,
)
from pumpkit import driver, formats, oracle, shield
from pumpkit.budgets import EnumBudget
from pumpkit.driver import FLIP_H, FLIP_V, ROT90, Frame
from pumpkit.errors import ClaimViolation, NotAShield, WindowTooSmall
from pumpkit.geometry import Side
from pumpkit.shield import (
    Shield,
    build_r,
    check_shield,
)
from pumpkit.visibility import GlueView

from conftest import (_short_walks, corpus_paths, corpus_shields, count_entries_reads, path_of,
                      system_of, time_budget)


def test_unit_shield_list(unit, unit_path):
    assert enumerate_shields(unit, unit_path) == [Shield(0, 1, 1)]


def test_no_repeat_no_shield():
    sys_ = system_of([("A", None, "a", None, None), ("B", None, "b", None, "a"),
                      ("C", None, None, None, "b")], {(0, 0): "A"})
    p = path_of(sys_, (1, 0, "B"), (2, 0, "C"))
    assert enumerate_shields(sys_, p) == []


# Tile B repeats label "a" north/south and "b" east/west.  From the seed,
# the first path goes north, east, north and west: its vertical glues and
# its horizontal glues repeat a label, its east-pointing ones do not.  The
# second goes east, north, west, north and east: two east-pointing "b"
# glues, but the second is hidden from the south by the first.
REPEAT_LABELS = system_of([("A", "a", None, None, None), ("B", "a", "b", "a", "b")],
                          {(0, 0): "A"})
EAST_DISTINCT_WALK = [(0, 1), (0, 2), (1, 2), (1, 3), (0, 3)]
EAST_REPEAT_WALK = [(0, 1), (1, 1), (1, 2), (0, 2), (0, 3), (1, 3)]


@pytest.mark.parametrize("walk, labels, east_labels, views", [
    (EAST_DISTINCT_WALK, ["a", "b", "a", "b"], ["b"], 0),
    (EAST_REPEAT_WALK, ["b", "a", "b", "a", "b"], ["b", "b"], 1),
], ids=["east-distinct", "east-repeat"])
def test_east_label_precheck(monkeypatch, walk, labels, east_labels, views):
    # The search builds a glue view only when two east-pointing glues
    # share a label; labels repeated on other glues do not count.
    p = path_of(REPEAT_LABELS, *[(x, y, "B") for x, y in walk])
    glues = GlueView(REPEAT_LABELS, p).glues
    assert [g.label for g in glues] == labels
    assert [g.label for g in glues if g.pointing == "east"] == east_labels
    built = []
    monkeypatch.setattr(shield, "GlueView", lambda *args: built.append(args) or GlueView(*args))
    assert enumerate_shields(REPEAT_LABELS, p) == []
    assert len(built) == views
    monkeypatch.undo()
    assert _revalidate(REPEAT_LABELS, p) == (0, 0)


def reference_check_shield(sys_, p, i, j, k, view):
    """``check_shield`` as it read with a segment curve: the NotAShield message, or None.

    The ray test walks every lattice point of the curve through tiles
    ``i..k`` (tiles and the glue midpoints between them) and keeps those on
    the translated exit ray; it does not use the glue column lemma that
    :func:`check_shield` and :func:`enumerate_shields` rest on.
    """
    gi, gj, gk = view.glues[i], view.glues[j], view.glues[k]
    if gi.label != gj.label:
        return "glues i and j differ in type"
    if gi.pointing != "east" or gj.pointing != "east":
        return "glues i and j must point east"
    if not (view.visible(i, "south") and view.visible(j, "south")):
        return "glues i and j must be visible from the south"
    if not gk.horizontal or not view.visible(k, "north"):
        return "glue k must be visible from the north"
    start = (gk.midpoint[0] + 2 * (p.pos(i)[0] - p.pos(j)[0]),
             gk.midpoint[1] + 2 * (p.pos(i)[1] - p.pos(j)[1]))
    tiles = [(2 * x, 2 * y) for x, y in p.positions[i:k + 1]]
    segment = tiles[:1] + [q for a, b in zip(tiles, tiles[1:])
                           for q in (((a[0] + b[0]) // 2, (a[1] + b[1]) // 2), b)]
    hits = {q for q in segment if q[0] == start[0] and q[1] >= start[1]}
    if not hits <= {start}:
        return f"translated exit ray meets segment at {sorted(hits)}"
    return None


def _revalidate(sys_, p):
    """Compare check_shield with the reference on every triple; return shields and ray rejects.

    The enumerated shields must be exactly the triples check_shield accepts.
    """
    view = GlueView(sys_, p)
    m = len(p) - 1
    expected, ray_rejects = [], 0
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j, m):
                want = reference_check_shield(sys_, p, i, j, k, view)
                try:
                    check_shield(sys_, p, i, j, k, view)
                except NotAShield as exc:
                    assert str(exc) == want, (p.entries, i, j, k)
                    ray_rejects += want.startswith("translated")
                    continue
                assert want is None, (p.entries, i, j, k)
                expected.append((i, j, k))
    assert shield_records(enumerate_shields(sys_, p)) == expected
    return len(expected), ray_rejects


def shield_records(found):
    """The ``(i, j, k)`` of each entry, after checking it is a ``Shield`` record.

    A Shield equals the bare tuple ``(i, j, k)``, so a list comparison
    alone would accept bare tuples; the type and the named fields are
    checked here, and the list must be in strict lexicographic order.
    """
    assert all(type(sh) is Shield for sh in found)
    triples = [(sh.i, sh.j, sh.k) for sh in found]
    assert triples == sorted(set(triples))
    return triples


def test_shield_records(unit):
    # On a 14-tile east run of one label every triple i < j <= k of its
    # 13 glues is a shield; the corpus lists hold every other shape.
    p = path_of(unit, *[(x, 0, "A") for x in range(1, 15)])
    brute = [(i, j, k) for i in range(13) for j in range(i + 1, 13) for k in range(j, 13)]
    assert len(brute) == 364
    assert shield_records(enumerate_shields(unit, p)) == brute
    assert sum(len(shield_records(found)) for _, _, found in corpus_shields()) > 0


# Self-avoiding walks of one all-"a" tile type from a seed at (0, 0) whose
# translated exit rays meet the segment: beside the ray start only, as
# for (1, 2, 4) on the first; at the start and above it, as for (0, 5, 5)
# on the second.
RAY_HIT_WALKS = [
    [(1, 0), (1, -1), (2, -1), (3, -1), (3, -2), (4, -2)],
    [(1, 0), (2, 0), (2, 1), (1, 1), (1, 2), (2, 2), (3, 2)],
]


def test_shields_revalidate(rng):
    # check_shield gives the segment-curve reference's verdict and message
    # on every triple of short sampled walks and of walks whose exit rays
    # meet the segment.
    n = sum(_revalidate(sys_, p)[0] for sys_, p in _short_walks(rng, 100))
    assert n > 50
    one_type = system_of([("A", "a", "a", "a", "a")], {(0, 0): "A"})
    for walk in RAY_HIT_WALKS:
        p = path_of(one_type, *[(x, y, "A") for x, y in walk])
        assert _revalidate(one_type, p)[1] > 0
    with pytest.raises(NotAShield, match=r"at \[\(3, 0\), \(3, 2\), \(3, 4\)\]"):
        p = path_of(one_type, *[(x, y, "A") for x, y in RAY_HIT_WALKS[1]])
        check_shield(one_type, p, 0, 5, 5)
    # An 81-tile path with 765 shields: 9 values of i, up to 9 partners each.
    sys_, p = formats.parse_system(TWO_PERIOD_SYSTEM)
    assert _revalidate(sys_, p)[0] == 765


STRAIGHT_LINE_SECONDS = 5.0


def test_straight_line_shield_count(unit):
    # On a straight east line every triple of glues i < j <= k is a shield.
    n = 100
    p = path_of(unit, *[(x, 0, "A") for x in range(1, n + 1)])
    with time_budget(STRAIGHT_LINE_SECONDS):
        shields = enumerate_shields(unit, p)
    assert len(shields) == math.comb(n - 1, 3) + math.comb(n - 1, 2) == 161_700
    assert shields[0] == Shield(0, 1, 1) and shields[-1] == Shield(n - 3, n - 2, n - 2)


def test_check_shield_rejects_bad_triples(unit, unit_path):
    with pytest.raises(NotAShield):
        check_shield(unit, unit_path, 0, 0, 1)
    with pytest.raises(NotAShield):
        check_shield(unit, unit_path, 1, 0, 1)


def test_workspace_unit(unit, unit_path):
    ws = build_workspace(unit, unit_path, Shield(0, 1, 1))
    # In: east of the exit ray, and the band between the rays below the
    # path.  Out: west of the entry ray, and the pocket above the path
    # west of the exit ray.
    assert ws.cache.side((6, 0)) is Side.RIGHT
    assert ws.cache.side((4, -8)) is Side.RIGHT
    assert ws.cache.side((0, 0)) is Side.LEFT
    assert ws.cache.side((4, 8)) is Side.LEFT
    assert ws.cache.side((4, 0)) is Side.ON


def test_workspace_rejects_corrupted_shield():
    # Seed due east of the first glue's ray: hypothesis checking is
    # bypassed, so the seed lands inside the candidate region and the
    # workspace claim fires.
    sys_ = system_of([("A", "g", "g", "g", "g")], {(0, 0): "A", (1, 0): "A"})
    p = path_of(sys_, (0, 1, "A"), (1, 1, "A"), (2, 1, "A"), (2, 0, "A"))
    with pytest.raises(ClaimViolation) as e:
        build_workspace(sys_, p, Shield(0, 1, 2))
    assert e.value.claim in ("prefix-outside-workspace", "cut-simple")


def test_unit_pumps_via_exit_repeat(unit, unit_path):
    out = pump_or_block(unit, unit_path, Shield(0, 1, 1))
    assert out.kind == "pumpable" and out.branch == "repeat-at-exit"
    assert (out.pumpable.i, out.pumpable.j) == (0, 1)
    assert out.pumpable.vector == (1, 0)


def test_staircase_pumps_via_exit_seam(staircase):
    sys_, p = staircase
    out = pump_or_block(sys_, p, Shield(0, 2, 4))
    assert out.kind == "pumpable" and out.branch == "exit-seam"
    assert out.pumpable.vector == (1, 1)
    assert out.trace.m0 == 3


def test_blocker_is_fragile(blocker):
    sys_, p = blocker
    out = pump_or_block(sys_, p, Shield(0, 1, 2))
    assert out.kind == "fragile"
    cert = out.fragile
    assert verify_fragile_cert(sys_, p, cert).ok
    assert out.blocked_segment == (1, 2)
    # The blocking growth beyond the retained prefix stays in the workspace.
    ws = build_workspace(sys_, p.prefix(3), Shield(0, 1, 2))
    prefix = set(p.positions[:1])
    for pos, _ in cert.attachments:
        if pos in prefix:
            continue
        assert ws.cache.side((2 * pos[0], 2 * pos[1])) is not Side.LEFT
    # The brute-force search finds a conflict independently.
    found = oracle.brute_fragile(sys_, p)
    assert found is not None and verify_fragile_cert(sys_, p, found).ok


def test_multi_step_progress(multi_step):
    sys_, p = multi_step
    out = pump_or_block(sys_, p, Shield(1, 5, 8))
    assert out.kind == "pumpable" and out.branch == "anchor-stall"
    ms = [st.m for st in out.trace.history]
    assert len(ms) >= 2 and all(a < b for a, b in zip(ms, ms[1:]))
    assert verify_pumpable_cert(sys_, out.pumpable).ok


# Shield (20, 23, 79) of a 111-tile random walk, in the frame the engine
# decides it in: the path ends at tile k+1.  Its progress loop advances
# the anchor by two periods at once.
TWO_PERIOD_SYSTEM = """\
tile A north=b east=c south=- west=-
tile B north=c east=b south=c west=b
seed -8 -4 B
path -7 -4 B ; -7 -3 B ; -7 -2 B ; -6 -2 B ; -5 -2 B ; -4 -2 B ; -4 -3 B ; \
-3 -3 B ; -3 -4 B ; -4 -4 B ; -5 -4 B ; -6 -4 B ; -6 -5 B ; -7 -5 B ; -8 -5 B ; \
-9 -5 B ; -9 -6 B ; -10 -6 B ; -10 -7 B ; -10 -8 B ; -10 -9 B ; -9 -9 B ; \
-9 -8 B ; -9 -7 B ; -8 -7 B ; -7 -7 B ; -6 -7 B ; -5 -7 B ; -4 -7 B ; -4 -6 B ; \
-4 -5 B ; -3 -5 B ; -2 -5 B ; -1 -5 B ; -1 -4 B ; -1 -3 B ; -1 -2 B ; 0 -2 B ; \
0 -1 B ; -1 -1 B ; -2 -1 B ; -3 -1 B ; -4 -1 B ; -5 -1 B ; -6 -1 B ; -7 -1 B ; \
-8 -1 B ; -9 -1 B ; -9 -2 B ; -9 -3 B ; -9 -4 B ; -10 -4 B ; -10 -5 B ; \
-11 -5 B ; -11 -4 B ; -11 -3 B ; -11 -2 B ; -11 -1 B ; -10 -1 B ; -10 0 B ; \
-11 0 B ; -12 0 B ; -12 -1 B ; -12 -2 B ; -12 -3 B ; -12 -4 B ; -12 -5 B ; \
-13 -5 B ; -14 -5 B ; -15 -5 B ; -15 -6 B ; -15 -7 B ; -16 -7 B ; -16 -6 B ; \
-16 -5 B ; -17 -5 B ; -17 -6 B ; -18 -6 B ; -18 -5 B ; -19 -5 B ; -20 -5 B
"""


def test_progress_loop_advances_two_periods():
    sys_, p = formats.parse_system(TWO_PERIOD_SYSTEM)
    out = pump_or_block(sys_, p, Shield(20, 23, 79))
    assert out.kind == "pumpable" and out.branch == "anchor-stall"
    assert [st.shift for st in out.trace.history] == [0, 2]
    assert (out.pumpable.i, out.pumpable.j) == (35, 38)
    assert verify_pumpable_cert(sys_, out.pumpable).ok


# Shield (7, 9, 20) of a 52-tile random walk, with the cut and in the frame
# that ``analyze`` decides it in.  The route graph reaches two goals, one
# on each side of the exit ray at the exit glue's height.  Each is an
# extension of a route to the other, at equal height; both link to the
# same exit-ray point, so neither extension rejects the other's route.
EQUAL_HEIGHT_GOALS_SYSTEM = """\
tile A north=b east=c south=b west=-
tile B north=b east=a south=a west=a
tile C north=a east=a south=b west=c
tile D north=c east=a south=- west=b
seed 0 3 B
path 0 4 A ; 0 5 C ; 1 5 B ; 1 4 C ; 1 3 A ; 1 2 A ; 1 1 A ; 2 1 C ; 3 1 B ; \
3 0 C ; 4 0 B ; 5 0 B ; 6 0 B ; 6 1 A ; 6 2 A ; 6 3 C ; 6 4 B ; 5 4 B ; 4 4 C ; \
3 4 A ; 3 5 C ; 4 5 B ; 5 5 B ; 5 6 C ; 6 6 B ; 6 5 C ; 7 5 B
"""


def test_equal_height_goals_decide():
    sys_, p = formats.parse_system(EQUAL_HEIGHT_GOALS_SYSTEM)
    assert len(p) == 27
    sh = Shield(7, 9, 20)
    out = pump_or_block(sys_, p, sh)
    assert out.kind == "fragile" and out.branch == "route-conflict-east-copy"
    assert verify_fragile_cert(sys_, p, out.fragile).ok
    # The engine and the exhaustive oracle apply the same tie rule; the
    # route ends at the goal east of the exit ray.
    ws = build_workspace(sys_, p.prefix(sh.k + 1), sh)
    route = build_r(ws)
    assert route == oracle.brute_right_priority(sys_, p, sh)
    assert route[-1] == (ws.exit2[0] + 1, ws.exit2[1])


def test_route_matches_exhaustive_choice(rng):
    budget = EnumBudget(max_path_len=10, max_nodes=6000)
    n = 0
    for sys_, p in _short_walks(rng, 60, 10):
        for sh in enumerate_shields(sys_, p):
            if sh.j == sh.k:
                continue
            try:
                ws = build_workspace(sys_, p, sh)
                fast = build_r(ws, budget)
                slow = oracle.brute_right_priority(sys_, p, sh, budget)
            except WindowTooSmall:
                continue
            assert fast == slow
            n += 1
    assert n >= 60


# Shields whose selected route passes through the west copy of the segment,
# which no route of the random systems above reaches.  Each is a prefix of a
# seed-1 walk-analyze walk (``perfbench/gen.py``), in the frame the driver
# decides it in, where the engine answers ``route-conflict-west-copy``:
# the system text and the shield.
WEST_COPY_ROUTES = [
    ("tile A north=c east=c south=- west=b\n"
     "tile B north=c east=c south=- west=b\n"
     "tile C north=- east=b south=c west=c\n"
     "seed -4 1 C\n"
     "seed -3 1 B\n"
     "path -4 0 A ; -3 0 C ; -2 0 B ; -1 0 C ; 0 0 B ; 0 1 C ; -1 1 B ; -1 2 C"
     " ; -2 2 A ; -3 2 C ; -4 2 A ; -5 2 C ; -6 2 B ; -7 2 C ; -7 1 B ; -8 1 C"
     " ; -9 1 A ; -10 1 C ; -11 1 A ; -11 2 C ; -12 2 B\n",
     Shield(1, 3, 19)),
    ("tile A north=b east=b south=a west=b\n"
     "tile B north=c east=- south=c west=c\n"
     "tile C north=a east=a south=- west=b\n"
     "seed -7 0 C\n"
     "seed -7 1 A\n"
     "path -6 1 A ; -5 1 C ; -5 2 A ; -4 2 C ; -4 3 A ; -3 3 A ; -2 3 A ; -1 3 C"
     " ; -1 4 A ; 0 4 C ; 0 5 A ; -1 5 A ; -2 5 A ; -2 4 C ; -3 4 A ; -4 4 A"
     " ; -5 4 A ; -6 4 A ; -7 4 A ; -8 4 A ; -9 4 A ; -9 3 C ; -10 3 A ; -11 3 A"
     " ; -11 2 C ; -12 2 A ; -13 2 A ; -14 2 A ; -14 1 C ; -15 1 A ; -16 1 A"
     " ; -17 1 A ; -17 0 C ; -18 0 A ; -19 0 A ; -20 0 A\n",
     Shield(0, 2, 34)),
    ("tile A north=c east=b south=b west=c\n"
     "tile B north=b east=c south=- west=c\n"
     "tile C north=c east=- south=a west=-\n"
     "seed -5 2 B\n"
     "path -4 2 B ; -3 2 A ; -3 1 B ; -2 1 A ; -2 0 B ; -1 0 B ; 0 0 B ; 0 1 A"
     " ; -1 1 B ; -1 2 A ; -2 2 B ; -2 3 A ; -3 3 B ; -4 3 B ; -5 3 B ; -6 3 B"
     " ; -7 3 B ; -7 4 A ; -8 4 B ; -8 5 A ; -9 5 B ; -9 6 A ; -10 6 B ; -11 6 B"
     " ; -12 6 B ; -13 6 B ; -14 6 B ; -14 7 A ; -15 7 B ; -15 8 A ; -16 8 B"
     " ; -17 8 B ; -18 8 B ; -19 8 B ; -20 8 B ; -21 8 B ; -22 8 B ; -23 8 B"
     " ; -23 9 A ; -24 9 B ; -25 9 B ; -26 9 B ; -27 9 B\n",
     Shield(0, 2, 41)),
    ("tile A north=a east=a south=- west=b\n"
     "tile B north=- east=a south=a west=b\n"
     "tile C north=b east=b south=c west=c\n"
     "tile D north=a east=c south=c west=c\n"
     "tile E north=c east=a south=b west=a\n"
     "seed -5 -3 D\n"
     "seed -5 -2 A\n"
     "path -4 -3 C ; -4 -4 E ; -4 -5 C ; -4 -6 E ; -4 -7 C ; -3 -7 A ; -3 -6 B"
     " ; -2 -6 E ; -2 -7 C ; -1 -7 A ; 0 -7 E ; 0 -6 C ; 0 -5 E ; -1 -5 E"
     " ; -2 -5 E ; -3 -5 A ; -3 -4 B ; -2 -4 E ; -2 -3 C ; -2 -2 E ; -3 -2 A"
     " ; -3 -1 B ; -4 -1 C ; -5 -1 D ; -5 0 B ; -6 0 C ; -6 -1 E ; -7 -1 A"
     " ; -8 -1 C ; -8 -2 E ; -8 -3 C ; -8 -4 E ; -8 -5 C ; -7 -5 B ; -7 -6 A"
     " ; -8 -6 C ; -8 -7 E ; -9 -7 B ; -9 -8 D ; -10 -8 D ; -10 -9 E ; -11 -9 E"
     " ; -12 -9 B ; -13 -9 C ; -13 -8 E ; -13 -7 C ; -12 -7 B ; -12 -8 A"
     " ; -11 -8 E ; -11 -7 D ; -11 -6 B ; -12 -6 C ; -12 -5 E ; -13 -5 B"
     " ; -13 -6 D ; -14 -6 D ; -15 -6 D ; -15 -5 B ; -14 -5 E ; -14 -4 D"
     " ; -14 -3 B ; -15 -3 C ; -16 -3 D ; -17 -3 D ; -17 -2 B ; -18 -2 C"
     " ; -18 -3 E ; -19 -3 B ; -20 -3 C\n",
     Shield(4, 8, 67)),
]


@pytest.mark.parametrize("text, sh", WEST_COPY_ROUTES,
                         ids=[f"{sh.i}-{sh.j}-{sh.k}" for _, sh in WEST_COPY_ROUTES])
def test_route_through_west_copy_matches_exhaustive_choice(text, sh):
    sys_, p = formats.parse_system(text)
    ws = build_workspace(sys_, p, sh)
    route = build_r(ws)
    # The route graphs have 25-97 vertices, past the default budget's 40.
    assert route == oracle.brute_right_priority(sys_, p, sh,
                                                EnumBudget(max_graph_vertices=100))
    assert any(u in ws.fam2 and u not in ws.fam1 for u in route)
    assert pump_or_block(sys_, p, sh).branch == "route-conflict-west-copy"


def test_engine_certificates_verify_on_corpus(rng):
    budget = EnumBudget(max_path_len=11, max_nodes=6000)
    kinds = set()
    n = 0
    # The second walks' tile types compete for sites, which the fragile
    # branch needs.
    walks = chain(_short_walks(rng, 900, 11),
                  _short_walks(rng, 900, 11, max_tiles=4, max_seed=3, alphabet="ab",
                               null_bias=0.2))
    for sys_, p in walks:
        shields = enumerate_shields(sys_, p)
        if not shields:
            continue
        out = pump_or_block(sys_, p, shields[0], budget)
        kinds.add(out.kind)
        if out.kind == "pumpable":
            assert verify_pumpable_cert(sys_, out.pumpable).ok
            assert oracle.confirm_pumpable(sys_, p, out.pumpable.i, out.pumpable.j, budget)
        else:
            assert verify_fragile_cert(sys_, p, out.fragile).ok
            assert oracle.brute_fragile(sys_, p, budget) is not None
        n += 1
    assert n > 80 and "pumpable" in kinds and "fragile" in kinds


def test_shield_search_and_engine_read_no_path_entries(monkeypatch):
    # A shield search and the engine on its first shield and its first
    # j < k shield, over a slice of criterion 9's corpus: every reader
    # reads positions and types; ``entries`` builds a pair per tile.
    reads = count_entries_reads(monkeypatch)
    budget = EnumBudget()
    branches = Counter()
    for sys_, p in corpus_paths()[::3]:
        found = enumerate_shields(sys_, p)
        chosen = found[:1]
        deeper = next((sh for sh in found if sh.j < sh.k), None)
        if deeper is not None and deeper not in chosen:
            chosen.append(deeper)
        for sh in chosen:
            branches[pump_or_block(sys_, p, sh, budget).branch] += 1
    assert reads == []
    assert len(branches) >= 3 and branches["anchor-stall"] > 0
    assert any(b.startswith("route-conflict") for b in branches)


def test_certificates_survive_transforms(blocker, unit, unit_path):
    # Shields are orientation-specific, but verifier verdicts travel with
    # any rigid motion of system, path, and certificate together, and the
    # inverse motion brings the certificate back unchanged.  The last
    # frame is the one the tall-prefix case builds: a mirror and a
    # clockwise turn, then the orienting turn and margin shift.
    sys_, p = blocker
    out = pump_or_block(sys_, p, Shield(0, 1, 2))
    assert out.kind == "fragile"
    pump = pump_or_block(unit, unit_path, Shield(0, 1, 1))
    assert pump.kind == "pumpable"
    turned = Frame.rotation(3).compose(FLIP_V)
    tall_prefix = driver._orient_east(sys_, p, turned)
    assert tall_prefix not in (None, turned)  # the orienting part is not trivial
    frames = [FLIP_H, FLIP_V, ROT90,
              Frame.translation((3, -7)).compose(ROT90).compose(FLIP_H),
              FLIP_V.compose(Frame.translation((-2, 5))).compose(Frame.rotation(2)),
              tall_prefix]
    for frame in frames:
        tsys, tpath, tcert = frame.apply(sys_), frame.apply(p), frame.apply(out.fragile)
        assert verify_fragile_cert(tsys, tpath, tcert).ok, frame
        assert frame.inverse().apply(tcert) == out.fragile
        tspec = frame.apply(pump.pumpable)
        assert verify_pumpable_cert(frame.apply(unit), tspec).ok, frame
        assert frame.inverse().apply(tspec) == pump.pumpable
