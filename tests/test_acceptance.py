"""Acceptance suite: one test per criterion, each printing a pass line.

Corpus parameters (generator seed, tile/seed caps, enumeration caps) are
fixed in ``conftest.py`` so every run is reproducible.  The true distance
bound is at desk scale only for one tile type (10,240 with one seed tile,
a path ``analyze`` runs on in well under a second); from two tile types on
it is past a billion, so the suite exercises the full pipeline through
explicit bound overrides, as the engine- and lemma-level checks below.
"""

import hashlib
import os
import random
import time
from itertools import chain, islice

from pumpkit import (
    PumpingSpec,
    analyze,
    bound,
    classify_side,
    enumerate_shields,
    pump_or_block,
    pumping_term,
    verify_fragile_cert,
    verify_pumpable_cert,
)
from pumpkit import oracle, tam
from pumpkit.budgets import EnumBudget
from pumpkit.errors import ClaimViolation
from pumpkit.formats import emit_certificate, parse_certificate, parse_system, print_system
from pumpkit.geometry import Side
from pumpkit.oracle import FloodFill
from pumpkit.shield import Shield, build_workspace

from conftest import (CORPUS_BUDGET, CORPUS_MAX_SEED, CORPUS_MAX_TILES, CORPUS_SEED,
                      CORPUS_SYSTEMS, GOLDEN_DIR, _corpus, _golden_cases, check_orderings,
                      corpus_paths, corpus_rng, corpus_shields, path_of, random_curve,
                      system_of)

DIFFERENTIAL_SYSTEMS = 500  # criterion 4's corpus: criterion 9's, then 300 more

# SHA-256 over every trail and certificate criterion 9 produces.  Any
# change to a decision branch or to a certificate byte changes it, so it
# moves only with a deliberate change of output.
ANALYZE_CORPUS_DIGEST = "bf597d33a6226ba336927cf79e48e3b61177b6be2a3d0a6a7edd16e8a283af60"
ANALYZE_CORPUS_SECONDS = 30.0  # about 2.5 s on a 2-core machine

# SHA-256 over kind, branch, construction trace and certificate of
# ``pump_or_block`` on every 20th shield with j < k of criterion 9's corpus.
# The trace pins what the certificates cannot show: the anchor, the
# carrier, the route and every progress-loop step.
ENGINE_CORPUS_DIGEST = "720b42dc6c2f471e67c95fbe688cbddfbe33e0c4c674491c25784cb8efc42f76"
ENGINE_CORPUS_SECONDS = 30.0  # about 2 s on a 2-core machine


def _timed(limit):
    start = time.time()

    def done(label):
        elapsed = time.time() - start
        assert elapsed < limit, f"{label} took {elapsed:.1f}s (limit {limit}s)"
        return elapsed

    return done


def test_criterion_1_unit_pump(unit, unit_path):
    done = _timed(1.0)
    res = analyze(unit, unit_path, bound_override=2)
    assert res.kind == "pumpable"
    assert res.pumpable.vector == (1, 0)
    assert verify_pumpable_cert(unit, res.pumpable).ok
    assert oracle._simulate_pumping(unit, res.pumpable, depth=50)
    elapsed = done("criterion 1")
    print(f"\nPASS criterion 1: unit pump, vector (1,0), 50 periods clean "
          f"({elapsed:.2f}s)")


def test_criterion_2_exit_repeat_shortcut(unit):
    done = _timed(1.0)
    p = path_of(unit, (1, 0, "A"), (2, 0, "A"), (3, 0, "A"))
    shields = enumerate_shields(unit, p)
    assert shields == [Shield(0, 1, 1)]
    assert shields[0].j == shields[0].k
    out = pump_or_block(unit, p, shields[0])
    assert out.kind == "pumpable" and out.branch == "repeat-at-exit"
    res = analyze(unit, p, bound_override=2)
    assert any("repeat-at-exit" in t for t in res.trail)
    elapsed = done("criterion 2")
    print(f"\nPASS criterion 2: equal-index shortcut branch recorded "
          f"({elapsed:.2f}s)")


def test_criterion_3_fragility(blocker):
    done = _timed(30.0)
    sys_, p = blocker
    out = pump_or_block(sys_, p, Shield(0, 1, 2))
    assert out.kind == "fragile"
    cert = out.fragile
    assert verify_fragile_cert(sys_, p, cert).ok
    ws = build_workspace(sys_, p.prefix(3), Shield(0, 1, 2))
    prefix = set(p.positions[:1])
    for pos, _ in cert.attachments:
        if pos not in prefix:
            assert ws.cache.side((2 * pos[0], 2 * pos[1])) is not Side.LEFT
    found = oracle.brute_fragile(sys_, p, EnumBudget(max_assembly_size=30))
    assert found is not None and verify_fragile_cert(sys_, p, found).ok
    elapsed = done("criterion 3")
    print(f"\nPASS criterion 3: blocker is fragile, certificate replays, "
          f"blocking growth inside the workspace, brute search at size<=30 "
          f"agrees ({elapsed:.2f}s)")


def test_criterion_4_differential_corpus():
    done = _timed(600.0)
    budget = CORPUS_BUDGET
    # The first CORPUS_SYSTEMS systems are criterion 9's, shield lists
    # included; the rest continue its generator where it stopped.
    more = ((sys_, p, enumerate_shields(sys_, p))
            for sys_, paths in _corpus(DIFFERENTIAL_SYSTEMS - CORPUS_SYSTEMS, corpus_rng(),
                                       budget)
            for p in paths)
    n_paths = n_decided = violations = 0
    kinds = {"pumpable": 0, "fragile": 0}
    for sys_, p, shields in chain(corpus_shields(), more):
        n_paths += 1
        if not shields:
            continue
        chosen = [shields[0]]
        deeper = next((s for s in shields if s.j < s.k), None)
        if deeper is not None and deeper != shields[0]:
            chosen.append(deeper)
        for sh in chosen:
            try:
                out = pump_or_block(sys_, p, sh, budget)
            except ClaimViolation:
                violations += 1
                continue
            kinds[out.kind] += 1
            if out.kind == "pumpable":
                assert verify_pumpable_cert(sys_, out.pumpable).ok
            else:
                assert verify_fragile_cert(sys_, p, out.fragile).ok
            n_decided += 1
    assert violations == 0
    assert n_decided > 1000 and kinds["fragile"] > 0
    elapsed = done("criterion 4")
    print(f"\nPASS criterion 4: {DIFFERENTIAL_SYSTEMS} systems "
          f"(seed {CORPUS_SEED}, |T|<={CORPUS_MAX_TILES}, "
          f"seed<={CORPUS_MAX_SEED}), {n_paths} paths enumerated to length "
          f"14, {n_decided} certificates all verified "
          f"({kinds['pumpable']} pumpable / {kinds['fragile']} fragile), "
          f"0 claim violations ({elapsed:.1f}s)")


def test_criterion_5_lemma_property_suites():
    done = _timed(120.0)
    rng = random.Random(CORPUS_SEED + 1)
    budget = EnumBudget(max_path_len=10, max_nodes=10 ** 6)
    checked = [check_orderings(sys_, p) for sys_, paths in _corpus(150, rng, budget, cap=400)
               for p in paths if len(p) > 1]
    east_checked, side_checked = map(sum, zip(*checked))
    assert east_checked > 500 and side_checked > 500

    # Shift identity to depth 200 on corpus-drawn pumping specs.
    rng2 = random.Random(CORPUS_SEED + 2)
    specs = (PumpingSpec(p, i, j) for _, paths in _corpus(40, rng2, budget, cap=200)
             for p in paths[:20] for i in range(len(p) - 1) for j in range(i + 1, len(p)))
    specs_checked = 0
    for spec in islice(specs, 300):
        i, j, v = spec.i, spec.j, spec.vector
        for k in range(i, i + 201):
            (x, y), _ = pumping_term(spec, k)
            (x2, y2), _ = pumping_term(spec, k + (j - i))
            assert (x2, y2) == (x + v[0], y + v[1])
        specs_checked += 1
    assert specs_checked >= 300

    # Translate disjointness: 1000 random triples with the premise true.
    rng3 = random.Random(CORPUS_SEED + 3)
    tested = 0
    while tested < 1000:
        cells = {(0, 0)}
        for _ in range(rng3.randrange(1, 8)):
            x, y = rng3.choice(sorted(cells))
            dx, dy = rng3.choice([(2, 0), (-2, 0), (0, 2), (0, -2)])
            cells.add((x + dx, y + dy))
        v = (rng3.randrange(-8, 9) * 2, rng3.randrange(-8, 9) * 2)
        # The premise: the cells avoid their translate by v.
        if v == (0, 0) or cells & {(x + v[0], y + v[1]) for x, y in cells}:
            continue
        tested += 1
        for c in range(-8, 9):
            if c == 0:
                continue
            moved = {(x + c * v[0], y + c * v[1]) for x, y in cells}
            assert not (cells & moved)
    elapsed = done("criterion 5")
    print(f"\nPASS criterion 5: order/side disciplines on "
          f"{east_checked}/{side_checked} canonicalized paths, shift "
          f"identity to depth 200 on {specs_checked} specs, translate "
          f"disjointness on 1000 triples ({elapsed:.1f}s)")


def test_criterion_6_jordan_agreement():
    done = _timed(60.0)
    rng = random.Random(CORPUS_SEED + 4)
    points = 0
    for _ in range(1000):
        curve = random_curve(rng, corners=8)
        x0, y0, x1, y1 = curve.bbox()
        cx, cy = (x0 + x1) // 2, (y0 + y1) // 2
        window = (cx - 20, cy - 20, cx + 20, cy + 20)
        fill_window = (min(window[0], x0 - 2), min(window[1], y0 - 2),
                       max(window[2], x1 + 2), max(window[3], y1 + 2))
        fill = FloodFill(curve, fill_window)
        for x in range(window[0], window[2] + 1):
            for y in range(window[1], window[3] + 1):
                assert classify_side(curve, (x, y)) is fill.side((x, y))
                points += 1
    elapsed = done("criterion 6")
    print(f"\nPASS criterion 6: parity classifier equals flood fill on "
          f"1000 curves x {points // 1000} window points ({elapsed:.1f}s)")


def test_criterion_7_bound_arithmetic():
    assert bound(1, 1) == 10240
    assert bound(2, 1) == 1342177280
    assert isinstance(bound(5, 5), int)
    # Same formula, evaluated independently with pow/int arithmetic.
    for t in range(1, 6):
        for s in range(1, 6):
            assert bound(t, s) == pow(4 * t, 4 * t + 1) * (4 * s + 6)
    print("\nPASS criterion 7: bound(1,1)=10240, bound(2,1)=1342177280, "
          "exact big integers; one tile type's bound is within desk reach, "
          "larger systems are covered via bound overrides above")


def test_criterion_8_roundtrips_and_goldens(tmp_path):
    done = _timed(30.0)
    rng = random.Random(CORPUS_SEED + 5)
    budget = EnumBudget(max_path_len=9, max_nodes=10 ** 6)
    files = certs = 0
    for sys_, paths in _corpus(80, rng, budget, cap=300):
        path = paths[-1] if paths else None
        text = print_system(sys_, path)
        sys2, path2 = parse_system(text)
        assert sys2.tiles == sys_.tiles and sys2.seed.tiles == sys_.seed.tiles
        assert path2 == path and print_system(sys2, path2) == text
        files += 1
        for p in paths:
            shields = enumerate_shields(sys_, p)
            if not shields:
                continue
            out = pump_or_block(sys_, p, shields[0], budget)
            text = emit_certificate(out)
            back = parse_certificate(text, sys_, p)
            assert emit_certificate(back) == text
            if out.kind == "pumpable":
                assert verify_pumpable_cert(sys_, back).ok
            else:
                assert verify_fragile_cert(sys_, p, back).ok
            certs += 1
            break  # one certificate per system keeps this under budget

    for name, svg in _golden_cases():
        with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
            assert fh.read() == svg
    elapsed = done("criterion 8")
    print(f"\nPASS criterion 8: {files} system files and {certs} "
          f"certificates round-trip, 3 golden figures byte-identical "
          f"({elapsed:.1f}s)")


def test_criterion_9_analyze_corpus():
    done = _timed(ANALYZE_CORPUS_SECONDS)
    budget = EnumBudget(max_path_len=14, max_nodes=10 ** 6)
    digest = hashlib.sha256()
    kinds = {"pumpable": 0, "fragile": 0, "no_shield": 0}
    n_paths = violations = 0
    for sys_, p in corpus_paths():
        n_paths += 1
        try:
            res = analyze(sys_, p, bound_override=2, budget=budget)
        except ClaimViolation:
            violations += 1
            continue
        kinds[res.kind] += 1
        digest.update("\n".join(res.trail).encode() + b"\n")
        if res.kind != "no_shield":
            digest.update(emit_certificate(res).encode())
        digest.update(b"\0")
    assert violations == 0
    assert kinds["fragile"] > 0
    assert digest.hexdigest() == ANALYZE_CORPUS_DIGEST
    elapsed = done("criterion 9")
    print(f"\nPASS criterion 9: analyze on {n_paths} corpus paths "
          f"({CORPUS_SYSTEMS} systems, seed {CORPUS_SEED}, override 2): "
          f"{kinds['pumpable']} pumpable / {kinds['fragile']} fragile / "
          f"{kinds['no_shield']} no shield, 0 claim violations, trails and "
          f"certificates match the pinned digest ({elapsed:.1f}s)")


def test_engine_corpus_digest():
    done = _timed(ENGINE_CORPUS_SECONDS)
    budget = EnumBudget(max_path_len=14, max_nodes=10 ** 6)
    digest = hashlib.sha256()
    branches = {}
    n = 0
    for sys_, p, shields in corpus_shields():
        for sh in shields:
            if sh.j == sh.k:
                continue
            n += 1
            if n % 20:
                continue
            out = pump_or_block(sys_, p, sh, budget)
            branches[out.branch] = branches.get(out.branch, 0) + 1
            digest.update(f"{out.kind} {out.branch}\n".encode())
            digest.update(out.trace.dump().encode() + b"\n")
            digest.update(emit_certificate(out).encode() + b"\0")
    assert set(branches) == {"exit-seam", "anchor-stall", "route-conflict-east-copy",
                             "route-conflict-west-copy"}
    assert digest.hexdigest() == ENGINE_CORPUS_DIGEST
    elapsed = done("engine digest")
    print(f"\nPASS engine digest: pump_or_block on {sum(branches.values())} of "
          f"{n} shields with j < k, branches {branches}, traces and "
          f"certificates match the pinned digest ({elapsed:.1f}s)")


def _reference_verify_pumpable(sys_, spec):
    """``verify_pumpable_cert`` as it read with one ``Path.pos`` call per tile.

    Kept verbatim apart from the module prefixes, as the behaviour the
    sliced verifier must reproduce: same checks, same order, same reasons.
    Check (b) tests one translate and rests on the translate-disjointness
    lemma, where the verifier tests every translate that can meet the
    period; the two agreeing on every certificate and mutant compares them.
    """
    p, i, j = spec.path, spec.i, spec.j
    rep = tam.validate_producible_path(sys_, p.prefix(j))
    if not rep:
        return tam.VerifyResult(False, f"path prefix 0..{j} is not producible: "
                                       f"{rep.code} at index {rep.index}")
    v = spec.vector
    seam_from = p.pos(j)
    seam_to = (p.pos(i + 1)[0] + v[0], p.pos(i + 1)[1] + v[1])
    step = (seam_to[0] - seam_from[0], seam_to[1] - seam_from[1])
    if step not in tam.SIDE_OF_STEP:
        return tam.VerifyResult(False, "(a) seam tiles are not adjacent")
    if not p.type(j).interacts(p.type(i + 1), step):
        return tam.VerifyResult(False, "(a) seam glue does not bind")
    period_pos = [p.pos(s) for s in range(i + 1, j + 1)]
    # One translate only: the translate-disjointness lemma extends it to all.
    if set(period_pos) & {(x + v[0], y + v[1]) for x, y in period_pos}:
        return tam.VerifyResult(False, "(b) period overlaps its translate")
    obstacles = set(sys_.seed.tiles)
    obstacles.update(p.pos(s) for s in range(0, i + 1))
    ox0, oy0, ox1, oy1 = tam._bbox(obstacles)
    px0, py0, px1, py1 = tam._bbox(period_pos)
    step_len = max(abs(v[0]), abs(v[1]))
    span = max(ox1, px1) - min(ox0, px0) + max(oy1, py1) - min(oy0, py0)
    reps = span // step_len + 2
    for m in range(1, reps + 1):
        shift = (m * v[0], m * v[1])
        for x, y in period_pos:
            q = (x + shift[0], y + shift[1])
            if q in obstacles:
                return tam.VerifyResult(
                    False, f"(c) period copy {m} hits the seed or prefix at {q}")
    return tam.VerifyResult(True)


def _pumping_mutants(spec):
    """Neighbouring index pairs of a certificate, and the pair off the seed."""
    p, i, j = spec.path, spec.i, spec.j
    for a, b in ((i, j + 1), (i, j - 1), (i + 1, j), (i - 1, j), (0, len(p) - 1)):
        try:
            yield PumpingSpec(p, a, b)
        except ValueError:
            pass  # indices out of range, or a zero vector
    yield PumpingSpec(p.translate((40, 40)), i, j)


def test_pumping_verifier_matches_reference():
    # Every pumping certificate analyze gives on criterion 9's corpus, the
    # index pairs next to it, and the same pairs on the path moved off the
    # seed; then a staircase whose period copies run into the seed.
    budget = EnumBudget(max_path_len=14, max_nodes=10 ** 6)
    cases = []
    for sys_, p in corpus_paths():
        res = analyze(sys_, p, bound_override=2, budget=budget)
        if res.kind == "pumpable":
            cases.append((sys_, res.pumpable))
            cases += [(sys_, m) for m in _pumping_mutants(res.pumpable)]
    stair = system_of([("G", "g", "g", "g", "g")], {(0, 0): "G"})
    stair_path = path_of(stair, (1, 0, "G"), (2, 0, "G"), (3, 0, "G"), (3, 1, "G"),
                         (3, 2, "G"), (3, 3, "G"), (2, 3, "G"), (2, 2, "G"))
    cases.append((stair, PumpingSpec(stair_path, 5, 7)))
    # No "(a) seam tiles are not adjacent": the seam step equals the step
    # from tile i to tile i + 1, which the prefix check already made a unit step.
    kinds = ("path prefix", "(a) seam glue does not bind", "(b)", "(c)")
    seen = set()
    for sys_, spec in cases:
        got, want = verify_pumpable_cert(sys_, spec), _reference_verify_pumpable(sys_, spec)
        assert (got.ok, got.reason) == (want.ok, want.reason), (
            spec.path.entries, spec.i, spec.j)
        seen.add("valid" if got.ok else next(k for k in kinds if got.reason.startswith(k)))
    assert seen == {"valid", *kinds}
