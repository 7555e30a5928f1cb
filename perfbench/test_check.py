"""Each independent checker accepts right answers and rejects corrupted ones.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

A = ("A", None, "g", None, "g")  # the unit tile: east and west glue g
UNIT_SEED = {(0, 0): A}
UNIT_PATH = [((1, 0), A), ((2, 0), A), ((3, 0), A)]

# Two interchangeable tile types on glue a (see the ``blocker`` test fixture).
BA = ("A", None, "a", None, "a")
BB = ("B", "b", "a", None, "a")
BLOCKER_TILES = [BA, BB]
BLOCKER_SEED = {(0, 0): BA}
BLOCKER_PATH = [((1, 0), BA), ((2, 0), BA), ((3, 0), BB), ((4, 0), BA)]
BLOCKER_CERT = ([((1, 0), BA), ((2, 0), BA), ((3, 0), BA)], (3, 0))


def test_producible_accepts_and_rejects():
    assert check.check_producible(UNIT_SEED, UNIT_PATH) is None
    inst = gen.walk_instance(0)
    assert check.check_producible(inst["seed"], inst["path"]) is None
    detached = [((1, 1), A), ((2, 1), A)]
    assert "seed" in check.check_producible(UNIT_SEED, detached)
    assert "overlaps" in check.check_producible(UNIT_SEED, [((0, 0), A)] + UNIT_PATH)
    assert "revisits" in check.check_producible(UNIT_SEED, UNIT_PATH + [((2, 0), A)])
    turned = UNIT_PATH + [((3, 1), A)]  # A has no north/south glue
    assert "does not bind" in check.check_producible(UNIT_SEED, turned)


def test_pumping_accepts_and_rejects():
    assert check.check_pumping(UNIT_SEED, UNIT_PATH, 0, 1) is None
    assert check.check_pumping(UNIT_SEED, UNIT_PATH, 0, 2) is None
    assert "out of order" in check.check_pumping(UNIT_SEED, UNIT_PATH, 1, 0)
    # A second seed tile east of the path: copy 4 of (0, 1) lands on it.
    far_seed = {(0, 0): A, (6, 0): A}
    assert "hits the seed" in check.check_pumping(far_seed, UNIT_PATH, 0, 1)
    # A U-turn: copy 1 of tiles 1..3 reuses (2, 1).
    z = ("Z", "z", "z", "z", "z")
    u_turn = [((1, 0), z), ((2, 0), z), ((2, 1), z), ((1, 1), z)]
    assert "overlaps" in check.check_pumping({(0, 0): z}, u_turn, 0, 3)
    # A corner whose seam does not bind: B has no east glue.
    a = ("A", "h", "g", None, "g")
    b = ("B", None, None, "h", None)
    corner = [((1, 0), a), ((2, 0), a), ((2, 1), b)]
    assert "does not bind" in check.check_pumping({(0, 0): a}, corner, 0, 2)


def test_fragile_accepts_and_rejects():
    attachments, conflict = BLOCKER_CERT
    ok = check.check_fragile(BLOCKER_TILES, BLOCKER_SEED, BLOCKER_PATH, attachments, conflict)
    assert ok is None
    fragile = lambda att, c: check.check_fragile(  # noqa: E731
        BLOCKER_TILES, BLOCKER_SEED, BLOCKER_PATH, att, c)
    assert "own tile" in fragile(attachments[:2], (2, 0))
    assert "not on the path" in fragile(attachments, (9, 9))
    assert "never filled" in fragile(attachments, (4, 0))
    assert "binds to nothing" in fragile([((5, 5), BA)], (5, 5))
    assert "filled position" in fragile([((0, 0), BA)], (1, 0))
    assert "undeclared" in fragile([((1, 0), ("A", "x", "a", None, "a"))], (1, 0))


def test_shields_match_the_definition_on_known_cases():
    assert check.shields(UNIT_SEED, UNIT_PATH) == [(0, 1, 1)]
    s = ("S", "b", "a", "b", "a")  # the self-stacking staircase fixture
    stairs = [((1, 0), s), ((2, 0), s), ((2, 1), s), ((3, 1), s), ((3, 2), s), ((4, 2), s)]
    assert (0, 2, 2) in check.shields({(0, 0): s}, stairs)


def test_shields_equal_pumpkit_on_a_corpus_sample():
    from pumpkit import formats, shield

    for inst in gen.corpus_inputs(1)[::16]:
        sys_, path = formats.parse_system(inst["text"])
        got = [(sh.i, sh.j, sh.k) for sh in shield.enumerate_shields(sys_, path)]
        assert got == check.shields(inst["seed"], inst["path"])


def _corpus_workload():
    inst = {"tiles": BLOCKER_TILES, "seed": BLOCKER_SEED, "path": BLOCKER_PATH,
            "shields": check.shields(BLOCKER_SEED, BLOCKER_PATH)}
    return run.CorpusDecide([inst])


def test_corpus_check_rejects_corrupted_answers():
    w = _corpus_workload()
    found = tuple(w.inputs[0]["shields"])
    assert found
    frag = ("fragile", "route-conflict", tuple(BLOCKER_CERT[0]), BLOCKER_CERT[1])
    assert w.check(0, (found, (frag,))) is None
    assert "shields" in w.check(0, (found[1:], (frag,)))
    assert "shields" in w.check(0, (found + ((0, 1, 3),), (frag,)))
    bad_frag = frag[:3] + ((2, 0),)
    assert w.check(0, (found, (bad_frag,)))
    assert w.check(0, (found, (("pumpable", "exit-seam", 1, 7),)))


def test_walk_check_rejects_corrupted_answers():
    w = run.WalkAnalyze([{"tiles": [A], "seed": UNIT_SEED, "path": UNIT_PATH}])
    assert w.check(0, ("pumpable", "repeat-at-exit", 0, 1)) is None
    assert w.check(0, ("pumpable", "repeat-at-exit", 1, 0))
    assert w.check(0, ("fragile", None, ((((1, 0), A),)), (1, 0)))
    assert w.check(0, ("no_shield", None)) is None


def test_sides_equal_pumpkit_and_reject_a_flipped_answer():
    from pumpkit import geometry

    w = run.PlaneSides(gen.plane_inputs(3)[:20])
    for n, inst in enumerate(w.inputs):
        curve = geometry.PolyCurve(inst["points"], south_ray=True, north_ray=True)
        x0, y0, x1, y1 = inst["window"]
        got = tuple(geometry.classify_side(curve, (x, y)).value
                    for x in range(x0, x1 + 1) for y in range(y0, y1 + 1))
        assert w.check(n, got) is None
        flip = {"left": "right", "right": "left", "on": "left"}
        assert w.check(n, (flip[got[0]],) + got[1:])


def test_benchmark_json_names_the_metrics_run_reports():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert list(run.Tracer(None).metrics(0.0)) == list(run.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
