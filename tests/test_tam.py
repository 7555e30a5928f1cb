"""Tile-assembly core: validation, replay, extraction, pumping, verifiers."""

import random

import pytest

from pumpkit import (
    Assembly,
    PumpingSpec,
    extract_path,
    pumping_term,
    replay_assembly_sequence,
    validate_producible_path,
    verify_fragile_cert,
    verify_pumpable_cert,
)
from pumpkit import driver, oracle
from pumpkit.budgets import EnumBudget
from pumpkit.driver import FLIP_H, FLIP_V, ROT90
from pumpkit.errors import BadSystem, BadTarget, IllegalAttachment, Occupied
from pumpkit.tam import (
    OPPOSITE,
    SIDE_OF_STEP,
    STEP,
    FragilityCert,
    Path,
    TileSystem,
    TileType,
    ValidationReport,
    seed_contacts,
)

from conftest import _short_walks, corpus_paths, path_of, system_of, time_budget


def test_validate_ok(unit, unit_path):
    rep = validate_producible_path(unit, unit_path)
    assert rep.ok and not rep.notes


def test_validate_overlaps_seed(unit):
    p = path_of(unit, (1, 0, "A"), (0, 0, "A"))
    rep = validate_producible_path(unit, p)
    assert (rep.code, rep.index) == ("OverlapsSeed", 1)


def test_validate_glue_mismatch():
    sys_ = system_of([("A", None, "g", None, "g"), ("X", None, "h", None, "h")],
                     {(0, 0): "A"})
    p = path_of(sys_, (1, 0, "A"), (2, 0, "X"))
    rep = validate_producible_path(sys_, p)
    assert (rep.code, rep.index) == ("GlueMismatch", 1)


def test_validate_not_simple(unit):
    p = path_of(unit, (1, 0, "A"), (2, 0, "A"), (1, 0, "A"))
    rep = validate_producible_path(unit, p)
    assert (rep.code, rep.index) == ("NotSimple", 2)


def test_validate_detached(unit):
    p = path_of(unit, (5, 5, "A"), (6, 5, "A"))
    rep = validate_producible_path(unit, p)
    assert rep.code == "SeedDetached"


def test_validate_extra_seed_contact_is_note_only():
    sys_ = system_of([("A", "g", "g", "g", "g")], {(0, 0): "A"})
    p = path_of(sys_, (0, 1, "A"), (1, 1, "A"), (1, 0, "A"))
    rep = validate_producible_path(sys_, p)
    assert rep.ok and rep.notes


# The straight-line validator that the one-pass validator replaced: every
# tile is tested for seed contact, and the glue check goes through
# ``TileType.interacts``.  Kept as the reference of the differential test.
def _reference_validate(sys_, p):
    if len(p) == 0:
        return ValidationReport(False, "EmptyPath", 0)
    seen = set()
    notes = []
    for i, (pos, t) in enumerate(p.entries):
        if pos in sys_.seed:
            return ValidationReport(False, "OverlapsSeed", i)
        if pos in seen:
            return ValidationReport(False, "NotSimple", i)
        seen.add(pos)
        if i > 0:
            prev_pos, prev_t = p.entries[i - 1]
            step = (pos[0] - prev_pos[0], pos[1] - prev_pos[1])
            if step not in SIDE_OF_STEP or not prev_t.interacts(t, step):
                return ValidationReport(False, "GlueMismatch", i)
            if seed_contacts(sys_, p.entries[i]):
                notes.append(f"tile {i} also touches the seed")
    if not seed_contacts(sys_, p.entries[0]):
        return ValidationReport(False, "SeedDetached", 0)
    return ValidationReport(True, notes=notes)


def _retouch_seed(sys_, p):
    """A system in which a later tile of ``p`` also binds to the seed, or None.

    The seed tile next to that tile gets the tile's glue on the side facing
    it, under a new name; a side faces one position, so the first tile keeps
    its contact.
    """
    for i, (pos, t) in enumerate(p.entries[1:], 1):
        for side, (dx, dy) in STEP.items():
            q = (pos[0] + dx, pos[1] + dy)
            s = sys_.seed.get(q)
            if s is None or t.glue(side) is None:
                continue
            glues = {k: s.glue(k) for k in STEP}
            glues[OPPOSITE[side]] = t.glue(side)
            z = TileType(s.name + "'", **glues)
            seed = dict(sys_.seed.tiles)
            seed[q] = z
            return TileSystem(list(sys_.tiles) + [z], Assembly(seed))
    return None


def _mutants(sys_, p, rng):
    """Broken copies of a producible path, each as ``(system, path)``."""
    e = list(p.entries)
    k = rng.randrange(len(e))
    seed_pos = rng.choice(sorted(sys_.seed.tiles))
    yield sys_, Path(e[:k] + [(seed_pos, e[k][1])] + e[k + 1:])  # onto the seed
    yield sys_, p.translate((40, -40))  # detached first tile
    yield sys_, Path(e[1:])  # the second tile first: detached or not
    yield sys_, Path(e[:k] + [(e[k][0], TileType("X"))] + e[k + 1:])  # no glue
    if len(e) > 1:
        k = rng.randrange(1, len(e))
        yield sys_, Path(e[:k] + [(e[rng.randrange(k)][0], e[k][1])] + e[k + 1:])
        d = rng.choice([(1, 1), (1, -1), (2, 0), (0, -2)])  # a non-unit step at k
        yield sys_, Path(e[:k] + [((x + d[0], y + d[1]), t) for (x, y), t in e[k:]])
    retouched = _retouch_seed(sys_, p)
    if retouched is not None:
        yield retouched, p


VALIDATOR_DIFF_SECONDS = 20.0  # about 2 s on a 2-core machine


def test_validator_matches_reference_on_corpus_and_mutants():
    with time_budget(VALIDATOR_DIFF_SECONDS):
        rng = random.Random(7)
        codes = {}
        with_notes = 0
        for sys_, p in corpus_paths():
            for s, q in [(sys_, p), *_mutants(sys_, p, rng)]:
                want = _reference_validate(s, q)
                got = validate_producible_path(s, q)
                assert (got.ok, got.code, got.index, got.notes) == \
                    (want.ok, want.code, want.index, want.notes), q.entries
                codes[want.code] = codes.get(want.code, 0) + 1
                with_notes += bool(want.notes)
        assert set(codes) == {None, "EmptyPath", "OverlapsSeed", "NotSimple",
                              "GlueMismatch", "SeedDetached"}
        assert with_notes > 0


def test_seed_must_be_connected():
    with pytest.raises(BadSystem):
        system_of([("A", None, "g", None, "g")], {(0, 0): "A", (2, 2): "A"})


def test_replay(unit):
    a = replay_assembly_sequence(unit, [((1, 0), unit.by_name["A"])])
    assert len(a) == 2


def test_replay_detached(unit):
    with pytest.raises(IllegalAttachment) as e:
        replay_assembly_sequence(unit, [((5, 5), unit.by_name["A"])])
    assert e.value.step == 0


def test_replay_occupied(unit):
    with pytest.raises(Occupied):
        replay_assembly_sequence(
            unit, [((1, 0), unit.by_name["A"]), ((1, 0), unit.by_name["A"])])


def test_extract_path(unit):
    A = unit.by_name["A"]
    alpha = Assembly({(0, 0): A, (1, 0): A, (2, 0): A})
    p = extract_path(unit, alpha, (2, 0))
    assert p.positions == ((1, 0), (2, 0))
    assert validate_producible_path(unit, p).ok


def test_extract_path_bad_target(unit):
    with pytest.raises(BadTarget):
        extract_path(unit, Assembly({(0, 0): unit.by_name["A"]}), (0, 0))


def test_replay_of_valid_path_reproduces_union(rng):
    # A validated path, replayed in its own order, grows exactly the
    # union of seed and path assembly.
    checked = 0
    for sys_, p in _short_walks(rng, 300, 8):
        assert validate_producible_path(sys_, p).ok
        final = replay_assembly_sequence(sys_, p.entries)
        want = dict(sys_.seed.tiles)
        want.update(dict(p.entries))
        assert final.tiles == want
        checked += 1
    assert checked > 100


def test_extract_path_branching_validates(rng):
    for sys_, p in _short_walks(rng, 300, 7):
        alpha = Assembly(dict(list(sys_.seed.tiles.items()) + list(p.entries)),
                         require_connected=False)
        q = extract_path(sys_, alpha, p.positions[-1])
        assert validate_producible_path(sys_, q).ok


def test_prefix_equals_sliced_path(rng):
    for _, p in _short_walks(rng, 60):
        assert p.index_of(p.pos(0)) == 0  # the whole path's index exists first
        for e in range(len(p)):
            q = p.prefix(e)
            assert q == Path(p.entries[:e + 1])
            assert hash(q) == hash(Path(p.entries[:e + 1]))
            for i, (pos, _) in enumerate(p.entries):
                assert q.index_of(pos) == (i if i <= e else None)


# -- pumping ------------------------------------------------------------------


def test_pumping_term_examples(unit, unit_path):
    spec = PumpingSpec(unit_path, 0, 1)
    assert pumping_term(spec, 4) == ((5, 0), unit.by_name["A"])
    for k in range(0, 30):
        (x0, y0), _ = pumping_term(spec, k)
        (x1, y1), _ = pumping_term(spec, k + 1)
        assert (x1 - x0, y1 - y0) == (1, 0)


def test_pumping_shift_identity(rng):
    # term(k + period) == term(k) + vector, for random paths and pairs.
    for _, p in _short_walks(rng, 100):
        if len(p) < 2:
            continue
        i = rng.randrange(len(p) - 1)
        j = rng.randrange(i + 1, len(p))
        spec = PumpingSpec(p, i, j)
        v = spec.vector
        # The shift identity starts at the pumping base index; right at
        # the base only the positions coincide (the base tile keeps the
        # path's type, the shifted one the period's).
        for k in range(i, i + 201):
            (x, y), t = pumping_term(spec, k)
            (x2, y2), t2 = pumping_term(spec, k + (j - i))
            assert (x2, y2) == (x + v[0], y + v[1])
            assert k == i or t2 == t


def test_verify_pumpable_unit(unit, unit_path):
    assert verify_pumpable_cert(unit, PumpingSpec(unit_path, 0, 1)).ok


def test_verify_pumpable_checks_the_prefix(unit):
    # The claim needs tiles 0..j producible, and nothing past j.
    floating = path_of(unit, (5, 5, "A"), (6, 5, "A"), (7, 5, "A"))
    res = verify_pumpable_cert(unit, PumpingSpec(floating, 0, 1))
    assert not res.ok and "SeedDetached" in res.reason
    broken_tail = path_of(unit, (1, 0, "A"), (2, 0, "A"), (9, 9, "A"))
    assert verify_pumpable_cert(unit, PumpingSpec(broken_tail, 0, 1)).ok


def test_verify_pumpable_rejects_overlapping_period():
    # A U-turn period overlaps its own translate.
    sys_ = system_of([("U", "u", "u", "u", "u")], {(0, 0): "U"})
    p = path_of(sys_, (1, 0, "U"), (2, 0, "U"), (2, 1, "U"), (1, 1, "U"),
                (1, 2, "U"), (2, 2, "U"), (3, 2, "U"), (3, 1, "U"), (4, 1, "U"))
    assert validate_producible_path(sys_, p).ok
    res = verify_pumpable_cert(sys_, PumpingSpec(p, 1, 7))
    assert not res.ok and res.reason.startswith("(b)")


def test_verify_pumpable_rejects_path_collision():
    # A down-marching period whose first copy lands on the retained prefix.
    sys_ = system_of([("A", "a", "b", "d", None),
                      ("B", "d", "a", "a", "d"),
                      ("C", "c", None, "d", "b")],
                     {(0, 0): "B"})
    p = path_of(sys_, (0, 1, "C"), (-1, 1, "A"), (-1, 2, "B"), (-1, 3, "A"),
                (-1, 4, "B"), (-1, 5, "A"), (0, 5, "C"), (0, 4, "B"),
                (0, 3, "A"))
    assert validate_producible_path(sys_, p).ok
    res = verify_pumpable_cert(sys_, PumpingSpec(p, 6, 8))
    assert not res.ok and res.reason.startswith("(c)")


def test_verify_pumpable_matches_simulation(rng):
    # Verifier verdict equals disjointness scan plus explicit simulation
    # deep enough to cover the verifier's own sweep.
    budget = EnumBudget(max_pump_depth=64)
    for sys_, p in _short_walks(rng, 400, 8):
        if len(p) < 2:
            continue
        i = rng.randrange(len(p) - 1)
        j = rng.randrange(i + 1, len(p))
        verdict = bool(verify_pumpable_cert(sys_, PumpingSpec(p, i, j)))
        sim = oracle.confirm_pumpable(sys_, p, i, j, budget)
        assert verdict == sim, (p.entries, i, j)


def test_verify_fragile(blocker):
    sys_, p = blocker
    A = sys_.by_name["A"]
    good = FragilityCert((((1, 0), A), ((2, 0), A), ((3, 0), A)), (3, 0))
    assert verify_fragile_cert(sys_, p, good).ok
    no_conflict = FragilityCert((((1, 0), A),), (1, 0))
    res = verify_fragile_cert(sys_, p, no_conflict)
    assert not res.ok and "NoConflict" in res.reason
    detached = FragilityCert((((9, 9), A),), (9, 9))
    assert not verify_fragile_cert(sys_, p, detached).ok


@pytest.mark.parametrize("attach, conflict, reason", [
    ([(9, 9)], (9, 9), "replay failed at step 0: tile A at (9, 9) binds nothing"),
    ([(1, 0), (0, 0)], (1, 0), "replay failed at step 1: position (0, 0) already filled"),
    ([(1, 0)], (2, 0), "conflict position was never filled"),
    ([(-1, 0)], (-1, 0), "conflict position is not on the path"),
    ([(1, 0)], (0, 0), "conflict position is not on the path"),
], ids=["detached", "occupied", "never-filled", "off-path", "on-seed"])
def test_verify_fragile_rejection_reasons(blocker, attach, conflict, reason):
    sys_, p = blocker
    A = sys_.by_name["A"]
    res = verify_fragile_cert(sys_, p, FragilityCert([(q, A) for q in attach], conflict))
    assert (res.ok, res.reason) == (False, reason)


def test_verify_fragile_rejects_unproducible_path():
    # Tile B's east glue b meets A's west glue a: the path cannot grow past
    # index 0, so a valid replay conflicting with it at index 1 blocks nothing.
    sys_ = system_of([("A", None, "a", None, "a"), ("B", None, "b", None, "a"),
                      ("C", None, None, None, "a")], {(0, 0): "A"})
    p = path_of(sys_, (1, 0, "B"), (2, 0, "A"))
    A, C = sys_.by_name["A"], sys_.by_name["C"]
    res = verify_fragile_cert(sys_, p, FragilityCert((((1, 0), A), ((2, 0), C)), (2, 0)))
    assert (res.ok, res.reason) == (
        False, "path prefix 0..1 is not producible: GlueMismatch at index 1")


# -- transform invariance ---------------------------------------------------------


def test_transform_identities(unit):
    flipped = driver.transform(driver.transform(unit, FLIP_H), FLIP_H)
    assert flipped.tiles == unit.tiles and flipped.seed.tiles == unit.seed.tiles
    rotated = unit
    for _ in range(4):
        rotated = driver.transform(rotated, ROT90)
    assert rotated.tiles == unit.tiles and rotated.seed.tiles == unit.seed.tiles


def test_verifier_verdicts_transform_invariant(rng):
    for sys_, p in _short_walks(rng, 240, 8):
        if len(p) < 2:
            continue
        i = rng.randrange(len(p) - 1)
        j = rng.randrange(i + 1, len(p))
        base = bool(verify_pumpable_cert(sys_, PumpingSpec(p, i, j)))
        for frame in (ROT90, FLIP_H, FLIP_V):
            tsys, tpath = frame.apply(sys_), frame.apply(p)
            assert bool(verify_pumpable_cert(tsys, PumpingSpec(tpath, i, j))) == base
