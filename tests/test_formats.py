"""Text formats, SVG rendering, and the command line."""

import gc
import os
import subprocess
import sys as _pysys
import tracemalloc

import pytest

from pumpkit import (PumpingSpec, cli, enumerate_shields, oracle, pump_or_block,
                     verify_fragile_cert, verify_pumpable_cert)
from pumpkit.budgets import EnumBudget
from pumpkit.errors import DisconnectedSeed, DuplicateTile, ParseError
from pumpkit.formats import (
    emit_certificate,
    parse_certificate,
    parse_system,
    print_system,
)
from pumpkit.shield import Shield
from pumpkit.svgout import render_svg

from conftest import (GOLDEN_DIR, _golden_cases, _short_walks, corpus_paths, path_of, src_env,
                      system_of)

UNIT_TEXT = """\
tile A north=- east=g south=- west=g
seed 0 0 A
path 1 0 A ; 2 0 A ; 3 0 A
"""
NO_PATH_TEXT = "tile A north=- east=g south=- west=g\nseed 0 0 A\n"
TILE_LINE = NO_PATH_TEXT.splitlines()[0]


def test_parse_unit():
    sys_, path = parse_system(UNIT_TEXT)
    assert [t.name for t in sys_.tiles] == ["A"]
    assert sys_.tiles[0].east == "g" and sys_.tiles[0].north is None
    assert path.positions == ((1, 0), (2, 0), (3, 0))


def test_print_parse_roundtrip():
    sys_, path = parse_system(UNIT_TEXT)
    text = print_system(sys_, path)
    sys2, path2 = parse_system(text)
    assert sys2.tiles == sys_.tiles
    assert sys2.seed.tiles == sys_.seed.tiles
    assert path2 == path
    assert print_system(sys2, path2) == text


def test_parse_duplicate_tile():
    with pytest.raises(DuplicateTile):
        parse_system("tile A north=- east=- south=- west=-\n"
                     "tile A north=- east=- south=- west=-\nseed 0 0 A\n")


def test_parse_disconnected_seed():
    with pytest.raises(DisconnectedSeed):
        parse_system("tile A north=a east=a south=a west=a\n"
                     "seed 0 0 A\nseed 5 5 A\n")


def test_parse_unknown_directive():
    with pytest.raises(ParseError) as e:
        parse_system("tile A north=- east=g south=- west=g\nseed 0 0 A\nnope\n")
    assert e.value.line == 3


PATH_LINE_ERRORS = [
    (["path 1 0 A ; 2 0"], 3, "path entries are: <x> <y> <name>"),
    (["path 1 0 A 2 0 A"], 3, "path entries are: <x> <y> <name>"),
    (["path"], 3, "path entries are: <x> <y> <name>"),
    (["path 1 0 A ; 2 0 A ;"], 3, "path entries are: <x> <y> <name>"),
    (["path 1 0 A ; 2 x A"], 3, "path coordinates must be integers"),
    (["path 1.5 0 A"], 3, "path coordinates must be integers"),
    (["path 1 0 A ; 2 0 Q"], 3, "unknown tile 'Q'"),
    (["path 1 0 A", "# a comment", "path 2 0 A"], 5, "more than one path line"),
    (["path 1 0 A A 2 0 A"], 3, "path entries are: <x> <y> <name>"),
    (["path 1 0 A A"], 3, "path entries are: <x> <y> <name>"),
    (["path ; 1 x A"], 3, "path entries are: <x> <y> <name>"),
    (["path 1 0 A ;; 2 0 A"], 3, "path entries are: <x> <y> <name>"),
    # Two bad entries: the first one's error.
    (["path 1 x A ; 2 0 Q"], 3, "path coordinates must be integers"),
    (["path 1 0 Q ; 2 x A"], 3, "unknown tile 'Q'"),
    (["path 1 0 ; 2 x A"], 3, "path entries are: <x> <y> <name>"),
    (["path 1 0 A ; 2 x Q ; 3 0"], 3, "path coordinates must be integers"),
    (["path 1 0 A ; 2 0 A 4 ; 3 0 Q"], 3, "path entries are: <x> <y> <name>"),
    (["path 1 0 Q ;"], 3, "unknown tile 'Q'"),
]


def _assert_path_line_error(path_lines, line, message):
    text = NO_PATH_TEXT + "\n".join(path_lines)
    with pytest.raises(ParseError) as e:
        parse_system(text)
    assert e.value.line == line
    assert str(e.value) == f"line {line}: {message}"


@pytest.mark.parametrize("path_lines, line, message", PATH_LINE_ERRORS)
def test_parse_path_line_errors(path_lines, line, message):
    _assert_path_line_error(path_lines, line, message)


@pytest.mark.parametrize("path_lines, line, message", PATH_LINE_ERRORS)
def test_parse_long_path_line_errors(path_lines, line, message):
    # With 20 good entries in front, the first path line is long: it is
    # read in one pass before it is read entry by entry.
    good = "".join(f" {x} 9 A ;" for x in range(20))
    long_lines = [path_lines[0].replace("path", "path" + good, 1), *path_lines[1:]]
    _assert_path_line_error(long_lines, line, message)


def reference_path_line(rest, tiles, lineno):
    """A path line's entries ``rest`` read entry by entry: the reference for
    ``parse_system``'s one-pass reader.  Returns ``(positions, types)`` or
    raises the first bad entry's ``ParseError``."""
    coords = {}
    positions, types = [], []
    for part in rest.split(";"):
        fields = part.split()
        if len(fields) != 3:
            raise ParseError(lineno, "path entries are: <x> <y> <name>")
        xw, yw, name = fields
        try:
            x, y = coords.setdefault(xw, int(xw)), coords.setdefault(yw, int(yw))
        except ValueError:
            raise ParseError(lineno, "path coordinates must be integers")
        t = tiles.get(name)
        if t is None:
            raise ParseError(lineno, f"unknown tile {name!r}")
        positions.append((x, y))
        types.append(t)
    return tuple(positions), tuple(types)


def _split_path_line(text):
    """``(header, lineno, rest)``: the text before the path line, the path
    line's number and its entries, without a comment."""
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if line.split()[:1] == ["path"]:
            rest = line.split("#", 1)[0].strip()[4:]
            return "\n".join(lines[:lineno - 1]) + "\n", lineno, rest
    raise AssertionError("no path line")


def _distinct_ints(positions):
    return len({id(v) for pos in positions for v in pos})


def _assert_reads_as_reference(text):
    header, lineno, rest = _split_path_line(text)
    tiles = parse_system(header)[0].by_name
    try:
        expected = reference_path_line(rest, tiles, lineno)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            parse_system(text)
        assert (got.value.line, str(got.value)) == (e.line, str(e))
        return None
    _, path = parse_system(text)
    assert path.positions == expected[0] and path.types == expected[1]
    assert _distinct_ints(path.positions) == _distinct_ints(expected[0])
    return path


def test_path_line_reads_as_reference_on_the_corpus():
    # Criterion 9's corpus as print_system writes it.
    for sys_, p in corpus_paths():
        path = _assert_reads_as_reference(print_system(sys_, p))
        assert path == p


def _seeded_path_text(rng, n):
    """A system of three tiles and a seeded path line of ``n`` entries, with
    negative and large coordinates, tabs, and ``;`` with and without spaces;
    also the entries as ``(x, y, name)`` triples."""
    entries = [(rng.randint(-1500, 1500), rng.randint(-300, 3000), rng.choice("ABC"))
               for _ in range(n)]
    gaps = (" ", "\t", "  ", " \t ")
    seps = (" ; ", ";", "\t;", "; ", " ;\t", "\t ; ")
    line = "path" + rng.choice(gaps) + "".join(
        (rng.choice(seps) if k else "") + f"{x}{rng.choice(gaps)}{y}{rng.choice(gaps)}{t}"
        for k, (x, y, t) in enumerate(entries))
    header = "".join(f"tile {t} north=a east=a south=a west=a\n" for t in "ABC")
    return header + "seed 0 0 A\n" + line + rng.choice(("", " ", "\t# end")) + "\n", entries


def test_path_line_reads_as_reference_on_long_seeded_lines(rng):
    # Short lines are read entry by entry and long ones in one pass; 15,
    # 16 and 17 entries straddle the switch.
    for n in (1, 2, 3, 15, 16, 17, 50, 2000, 5000):
        text, entries = _seeded_path_text(rng, n)
        path = _assert_reads_as_reference(text)
        assert path.positions == tuple((x, y) for x, y, _ in entries)
        assert [t.name for t in path.types] == [t for _, _, t in entries]
        # One int object per distinct coordinate token.
        tokens = {str(v) for x, y, _ in entries for v in (x, y)}
        assert _distinct_ints(path.positions) == len(tokens)


def test_long_path_line_is_read_in_one_pass(rng):
    # The reader makes a few C calls per line, not several per tile: 5,000
    # entries read entry by entry make about 40,000.
    text, _ = _seeded_path_text(rng, 5000)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "c_call"

    _pysys.setprofile(count)
    try:
        parse_system(text)
    finally:
        _pysys.setprofile(None)
    assert calls < 200


def test_path_line_reads_tokens_as_int_does():
    # Tokens int() reads, written unlike print_system: each token keeps its
    # own int, as in the reference, on a short line and on a long one.
    rest = "+300 0300 A ; 300 3_00 A ; \uff13 -0 A"
    for good in ("", "".join(f"{x} 9 A ; " for x in range(20))):
        text = NO_PATH_TEXT + "path " + good + rest + "\n"
        path = _assert_reads_as_reference(text)
        assert path.positions[-3:] == ((300, 300), (300, 300), (3, 0))
        with pytest.raises(ParseError, match="path coordinates must be integers"):
            parse_system(text[:-1] + " ; 0x1 0 A\n")
    # Six tokens: four spellings of 300, and 3 and 0, which CPython caches.
    assert _distinct_ints(parse_system(NO_PATH_TEXT + "path " + rest)[1].positions) == 6


# Ways to break one entry ``x y name`` of a path line: the fields as written.
_BREAKS = (
    lambda x, y, t: "",                      # an empty entry
    lambda x, y, t: f"{x} {y}",              # two fields
    lambda x, y, t: f"{x} {y} {t} {t}",      # four fields
    lambda x, y, t: f"{x} y{y} {t}",         # a coordinate that is not an integer
    lambda x, y, t: f"{x}.5 {y} {t}",
    lambda x, y, t: f"{x} {y} Q",            # an unknown tile
    lambda x, y, t: f"{x} {y} {t.lower()}",
)


def test_path_line_errors_match_reference(rng):
    for _ in range(300):
        text, entries = _seeded_path_text(rng, rng.choice((1, 2, 5, 15, 16, 40, 200)))
        header = text[:text.index("path")]
        parts = [f"{x} {y} {t}" for x, y, t in entries]
        for k in rng.sample(range(len(parts)), min(len(parts), rng.choice((1, 2)))):
            parts[k] = rng.choice(_BREAKS)(*entries[k])
        lead, tail = rng.choice((("", ""), ("; ", ""), ("", " ;"), ("; ", " ;")))
        line = f"path {lead}{' ; '.join(parts)}{tail}"
        assert _assert_reads_as_reference(header + line + "\n") is None, line


def test_roundtrip_random_systems(rng):
    for _ in range(50):
        sys_ = oracle.random_system(rng)
        path = oracle.random_walk(rng, sys_, rng.randint(1, 6)) or None
        text = print_system(sys_, path)
        sys2, path2 = parse_system(text)
        assert sys2.tiles == sys_.tiles and sys2.seed.tiles == sys_.seed.tiles
        assert path2 == path
        assert print_system(sys2, path2) == text


def test_pumpable_cert_roundtrip(unit, unit_path):
    spec = PumpingSpec(unit_path, 0, 1)
    text = emit_certificate(spec)
    assert text == "kind pumpable i=0 j=1\nvector 1 0\n"
    back = parse_certificate(text, unit, unit_path)
    assert back == spec


def test_fragile_cert_roundtrip(blocker):
    sys_, p = blocker
    out = pump_or_block(sys_, p, Shield(0, 1, 2))
    text = emit_certificate(out)
    assert text.startswith("kind fragile\n")
    assert len(text.strip().splitlines()) == len(out.fragile.attachments) + 2
    back = parse_certificate(text, sys_, p)
    assert back == out.fragile
    assert emit_certificate(back) == text


def test_cert_roundtrip_corpus(rng):
    budget = EnumBudget(max_path_len=9, max_nodes=1500)
    n = 0
    for sys_, p in _short_walks(rng, 1700, 9):
        shields = enumerate_shields(sys_, p)
        if not shields:
            continue
        out = pump_or_block(sys_, p, shields[0], budget)
        text = emit_certificate(out)
        back = parse_certificate(text, sys_, p)
        if out.kind == "pumpable":
            assert back == out.pumpable
            assert verify_pumpable_cert(sys_, back).ok
        else:
            assert back == out.fragile
            assert verify_fragile_cert(sys_, p, back).ok
        assert emit_certificate(back) == text
        n += 1
    assert n > 60


# -- SVG --------------------------------------------------------------------------


def test_svg_tile_count(unit, unit_path):
    svg = render_svg(unit, unit_path)
    assert svg.count("<rect") == 4  # seed + three path tiles


def test_svg_region_single_polygon(unit, unit_path):
    svg = render_svg(unit, unit_path, overlays={"regions"}, shield=Shield(0, 1, 1))
    assert svg.count("<polygon") == 1


def test_svg_deterministic(unit, unit_path):
    a = render_svg(unit, unit_path, overlays={"rays", "cut", "regions"},
                   shield=Shield(0, 1, 1))
    b = render_svg(unit, unit_path, overlays={"rays", "cut", "regions"},
                   shield=Shield(0, 1, 1))
    assert a == b


@pytest.mark.parametrize("overlay,shield", [("rays", None), ("cut", None),
                                            ("regions", None), ("trace", Shield(0, 1, 1))],
                         ids=["rays", "cut", "regions", "trace"])
def test_svg_overlay_without_its_input_raises(unit, unit_path, overlay, shield):
    # An overlay is never dropped without a word: rays need a shield, the
    # cut and the regions a shield or a workspace, the trace a trace.
    with pytest.raises(ValueError, match=f"overlay '{overlay}' needs"):
        render_svg(unit, unit_path, overlays={overlay}, shield=shield)


@pytest.mark.parametrize("name,svg", _golden_cases())
def test_svg_golden(name, svg):
    path = os.path.join(GOLDEN_DIR, name)
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == svg


# -- CLI --------------------------------------------------------------------------


@pytest.fixture
def _run(capsys, monkeypatch):
    """Run ``pumpkit.cli.main`` in this process, from ``cwd``.

    Returns a ``CompletedProcess`` carrying the exit code and the captured
    output, as ``python -m pumpkit.cli`` would give them.
    """

    def run(args, cwd):
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        try:
            code = cli.main(args)
        except SystemExit as e:  # the parser exits on a usage error
            code = e.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)

    return run


@pytest.fixture
def unit_file(tmp_path):
    f = tmp_path / "unit.tiles"
    f.write_text(UNIT_TEXT)
    return f


def test_cli_validate(unit_file, tmp_path, _run):
    r = _run(["validate", str(unit_file)], tmp_path)
    assert r.returncode == 0 and "path ok" in r.stdout


def test_cli_analyze_exit_code_pumpable(unit_file, tmp_path, _run):
    r = _run(["analyze", str(unit_file), "--bound-override", "2"], tmp_path)
    assert r.returncode == 0
    assert "pumpable i=0 j=1" in r.stdout


def test_cli_analyze_exit_code_fragile(tmp_path, analyze_fragile, _run):
    sys_, p = analyze_fragile
    f = tmp_path / "frag.tiles"
    f.write_text(print_system(sys_, p))
    r = _run(["analyze", str(f), "--bound-override", "2"], tmp_path)
    assert r.returncode == 1 and "fragile" in r.stdout


def test_cli_analyze_exit_code_no_shield(tmp_path, _run):
    sys_ = system_of([("A", None, "a", None, None), ("B", None, "b", None, "a"),
                      ("C", None, "c", None, "b"), ("D", None, None, None, "c")],
                     {(0, 0): "A"})
    p = path_of(sys_, (1, 0, "B"), (2, 0, "C"), (3, 0, "D"))
    f = tmp_path / "noshield.tiles"
    f.write_text(print_system(sys_, p))
    r = _run(["analyze", str(f), "--bound-override", "2"], tmp_path)
    assert r.returncode == 2


def test_cli_analyze_theorem_scale_bound(tmp_path, _run):
    # 402 tile types put the true bound past the interpreter's decimal digit
    # limit; without an override the one-tile path is below it.
    text = ("tile A north=- east=a south=- west=-\n"
            "tile B north=- east=- south=- west=a\n"
            + "".join(f"tile T{n} north=- east=- south=- west=-\n" for n in range(400))
            + "seed 0 0 A\npath 1 0 B\n")
    f = tmp_path / "many.tiles"
    f.write_text(text)
    r = _run(["analyze", str(f)], tmp_path)
    assert r.returncode == 2 and r.stderr == ""
    assert r.stdout.splitlines()[0] == "trail: below-bound(no truncation)"


def test_cli_pump_or_block_and_verify(unit_file, tmp_path, _run):
    cert = tmp_path / "cert.txt"
    r = _run(["pump-or-block", str(unit_file), "--shield", "0", "1", "1",
              "-o", str(cert)], tmp_path)
    assert r.returncode == 0
    r2 = _run(["verify", str(unit_file), str(cert)], tmp_path)
    assert r2.returncode == 0 and "valid" in r2.stdout


def test_cli_verify_rejects_floating_path(tmp_path, _run):
    # A pumping pair on a path that never touches the seed certifies nothing.
    f = tmp_path / "float.tiles"
    f.write_text("tile A north=- east=g south=- west=g\nseed 0 0 A\n"
                 "path 5 5 A ; 6 5 A ; 7 5 A\n")
    cert = tmp_path / "cert.txt"
    cert.write_text("kind pumpable i=0 j=1\nvector 1 0\n")
    r = _run(["verify", str(f), str(cert)], tmp_path)
    assert r.returncode == 4 and "certificate: INVALID" in r.stdout


def test_cli_verify_rejects_unproducible_fragile_path(tmp_path, _run):
    # The replay is legal and conflicts at index 1, where the path itself
    # breaks: B's east glue b does not bind A's west glue a.
    f = tmp_path / "broken.tiles"
    f.write_text("tile A north=- east=a south=- west=a\n"
                 "tile B north=- east=b south=- west=a\n"
                 "tile C north=- east=- south=- west=a\n"
                 "seed 0 0 A\npath 1 0 B ; 2 0 A\n")
    cert = tmp_path / "cert.txt"
    cert.write_text("kind fragile\nattach 1 0 A\nattach 2 0 C\nconflict 2 0\n")
    r = _run(["verify", str(f), str(cert)], tmp_path)
    assert r.returncode == 4
    assert r.stdout == ("certificate: INVALID (path prefix 0..1 is not producible: "
                        "GlueMismatch at index 1)\n")


def test_cli_pump_or_block_fragile_and_verify(tmp_path, blocker, _run):
    sys_, p = blocker
    f = tmp_path / "blocker.tiles"
    f.write_text(print_system(sys_, p))
    cert = tmp_path / "cert.txt"
    r = _run(["pump-or-block", str(f), "--shield", "0", "1", "2", "-o", str(cert)],
             tmp_path)
    assert r.returncode == 1
    assert r.stdout.startswith("branch: route-conflict-")
    assert r.stdout.endswith("fragile: conflict at (3, 0)\n")
    assert cert.read_text().startswith("kind fragile\n")
    r2 = _run(["verify", str(f), str(cert)], tmp_path)
    assert (r2.returncode, r2.stdout) == (0, "certificate: valid\n")


def test_cli_validate_reports_each_file(tmp_path, _run):
    # A system with no path line, a path whose validation writes a note, and
    # a path that is not producible: each file's lines carry its name, and
    # the invalid one sets exit 4.
    (tmp_path / "system.tiles").write_text(NO_PATH_TEXT)
    (tmp_path / "note.tiles").write_text("tile A north=g east=g south=g west=g\n"
                                         "seed 0 0 A\npath 0 1 A ; 1 1 A ; 1 0 A\n")
    (tmp_path / "float.tiles").write_text(FLOAT_TEXT)
    r = _run(["validate", "system.tiles", "note.tiles", "float.tiles"], tmp_path)
    assert r.returncode == 4 and r.stderr == ""
    assert r.stdout == ("system.tiles: system ok: 1 tiles, seed of 1\n"
                        "note.tiles: path ok: 3 tiles\n"
                        "note.tiles: note: tile 2 also touches the seed\n"
                        "float.tiles: invalid path: SeedDetached at index 0\n")


def test_cli_shields_spans_render_bound(unit_file, tmp_path, _run):
    assert "shield 0 1 1" in _run(["shields", str(unit_file)], tmp_path).stdout
    spans_out = _run(["spans", str(unit_file)], tmp_path).stdout
    assert "span coord=1" in spans_out and "span coord=2" in spans_out
    out = tmp_path / "fig.svg"
    assert _run(["render", str(unit_file), "-o", str(out)], tmp_path).returncode == 0
    assert out.read_text().startswith("<svg")
    assert _run(["bound", "--tiles", "1", "--seed", "1"],
                tmp_path).stdout.strip() == "10240"


# The battlements path turned a quarter counterclockwise: its glue rows carry
# the spans of heights 0, 6 and 8 that its glue columns carried.
ROT_BATTLEMENTS_TEXT = """\
tile Z north=z east=z south=z west=z
seed 0 0 Z
path 0 1 Z ; 0 2 Z ; 0 3 Z ; 0 4 Z ; 0 5 Z ; 0 6 Z ; -1 6 Z ; -2 6 Z ; -3 6 Z ; \
-3 5 Z ; -3 4 Z ; -3 3 Z ; -3 2 Z ; -4 2 Z ; -5 2 Z ; -6 2 Z ; -6 3 Z ; -7 3 Z ; \
-8 3 Z ; -8 4 Z ; -8 5 Z ; -8 6 Z ; -8 7 Z ; -8 8 Z
"""

NOT_EXTREMAL = "error: NotCanonical: last glue is not the unique extremal glue on axis"


@pytest.mark.parametrize("text,axis,code,stdout,stderr", [
    (ROT_BATTLEMENTS_TEXT, "h", 0,
     "span coord=1 s=0 n=0 orient=right pointing=north type=z extent=0\n"
     "span coord=2 s=15 n=1 orient=left pointing=north type=z extent=6\n"
     "span coord=3 s=18 n=2 orient=left pointing=north type=z extent=8\n"
     "span coord=4 s=19 n=3 orient=left pointing=north type=z extent=8\n"
     "span coord=5 s=20 n=4 orient=left pointing=north type=z extent=8\n"
     "span coord=6 s=21 n=21 orient=right pointing=north type=z extent=0\n"
     "span coord=7 s=22 n=22 orient=right pointing=north type=z extent=0\n", ""),
    (ROT_BATTLEMENTS_TEXT, "v", 4, "", f"{NOT_EXTREMAL} vertical\n"),
    (UNIT_TEXT, "h", 4, "", f"{NOT_EXTREMAL} horizontal\n"),
], ids=["rows", "columns-undefined", "rows-undefined"])
def test_cli_spans_exact_output(tmp_path, _run, text, axis, code, stdout, stderr):
    f = tmp_path / "sys.tiles"
    f.write_text(text)
    r = _run(["spans", str(f), "--axis", axis], tmp_path)
    assert (r.returncode, r.stdout, r.stderr) == (code, stdout, stderr)


@pytest.mark.parametrize("extra", [[], ["--overlays", "cut"]], ids=["plain", "cut"])
@pytest.mark.parametrize("shield", [["0", "1", "99"], ["1", "0", "1"]],
                         ids=["k-out-of-range", "i-after-j"])
def test_cli_render_rejects_non_shield(unit_file, tmp_path, _run, shield, extra):
    r = _run(["render", str(unit_file), "--shield", *shield, *extra], tmp_path)
    assert r.returncode == 4
    assert r.stderr.startswith("error: NotAShield: ") and r.stderr.count("\n") == 1


def test_cli_trace_output(tmp_path, staircase, _run):
    sys_, p = staircase
    f = tmp_path / "stair.tiles"
    f.write_text(print_system(sys_, p))
    r = _run(["pump-or-block", str(f), "--shield", "0", "2", "4", "--trace"], tmp_path)
    assert r.returncode == 0
    assert "anchor m0=3" in r.stdout and "\nstep 0:" in r.stdout
    out = tmp_path / "trace.svg"
    r2 = _run(["render", str(f), "--overlays", "trace", "--shield", "0", "2", "4",
               "-o", str(out)], tmp_path)
    assert r2.returncode == 0
    assert 'class="trace"/>' in out.read_text()


def test_cli_oracle_modes(unit_file, tmp_path, blocker, _run):
    r = _run(["oracle", "enumerate", str(unit_file)], tmp_path)
    assert r.returncode == 0 and "producible path(s)" in r.stdout
    sys_, p = blocker
    f = tmp_path / "blocker.tiles"
    f.write_text(print_system(sys_, p))
    r2 = _run(["oracle", "fragile", str(f)], tmp_path)
    assert r2.returncode == 1 and "conflict at" in r2.stdout
    r3 = _run(["oracle", "pumpable", str(unit_file)], tmp_path)
    assert r3.returncode == 0
    r4 = _run(["oracle", "rp", str(f), "--shield", "0", "1", "2"], tmp_path)
    assert r4.returncode == 0 and "routes agree" in r4.stdout


def test_cli_reduce_2ham(tmp_path, _run):
    sys_ = system_of([("A", None, "g", None, "g")], {(9, 9): "A"})
    p = path_of(sys_, (0, 0, "A"), (1, 0, "A"), (2, 0, "A"))
    f = tmp_path / "free.tiles"
    f.write_text(print_system(sys_, p))
    r = _run(["reduce-2ham", str(f)], tmp_path)
    assert r.returncode == 0 and "seed 0 0 A" in r.stdout


def test_cli_budget_env(unit_file, tmp_path, _run, monkeypatch):
    monkeypatch.setenv("PUMPKIT_BUDGET_MAX_PATH_LEN", "2")
    r = _run(["oracle", "enumerate", str(unit_file)], tmp_path)
    assert "4 producible path(s)" in r.stdout


def test_cli_analyze_bad_budget_env_is_usage_error(unit_file, tmp_path, _run,
                                                   monkeypatch):
    # The library reads no environment; the CLI reads it up front, so
    # every analyze run checks it.
    monkeypatch.setenv("PUMPKIT_BUDGET_MAX_NODES", "x")
    r = _run(["analyze", str(unit_file), "--bound-override", "2"], tmp_path)
    assert r.returncode == 3
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert "PUMPKIT_BUDGET_MAX_NODES" in r.stderr and r.stdout == ""


def test_cli_bad_budget_env_is_usage_error(unit_file, tmp_path, _run, monkeypatch):
    monkeypatch.setenv("PUMPKIT_BUDGET_MAX_NODES", "x")
    r = _run(["oracle", "enumerate", str(unit_file)], tmp_path)
    assert r.returncode == 3
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert "PUMPKIT_BUDGET_MAX_NODES" in r.stderr


@pytest.mark.parametrize("target", ["missing.tiles", "."])
def test_cli_unreadable_input_is_error(tmp_path, _run, target):
    # A file that does not exist, and a directory in place of a file.
    r = _run(["validate", target], tmp_path)
    assert r.returncode == 4
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "verify"])
def test_cli_non_utf8_input_is_error(unit_file, tmp_path, _run, command):
    # A system file, and a certificate file, with a byte that is not UTF-8.
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"tile A north=a\xff\n")
    args = ["validate", str(bad)] if command == "validate" else \
        ["verify", str(unit_file), str(bad)]
    r = _run(args, tmp_path)
    assert r.returncode == 4
    assert r.stderr.startswith("error: UnicodeDecodeError: ")
    assert r.stderr.count("\n") == 1


@pytest.mark.parametrize("cert,line", [
    ("kind pumpable i=1 j=0\n", 1),
    ("kind pumpable i=0 j=1\nvector x 0\n", 2),
    ("kind fragile\nattach x 0 A\nconflict 1 0\n", 2),
    ("kind fragile\nconflict 1 y\n", 2),
], ids=["pair-out-of-order", "vector", "attach", "conflict"])
def test_cli_verify_malformed_certificate(unit_file, tmp_path, _run, cert, line):
    f = tmp_path / "bad.cert"
    f.write_text(cert)
    r = _run(["verify", str(unit_file), str(f)], tmp_path)
    assert r.returncode == 4
    assert r.stderr.startswith("error: ParseError: ") and r.stderr.count("\n") == 1
    assert f"line {line}:" in r.stderr


# Malformed files: a system text, the certificate read against it (None when
# the system text is the malformed one), the line the error names and its
# message.  Line 0 names the whole file.
MALFORMED = [
    ("tile A north=a=b east=g south=- west=g\nseed 0 0 A\n", None, 1,
     "bad glue label 'a=b'"),
    ("tile A north=\u00e9 east=g south=- west=g\nseed 0 0 A\n", None, 1,
     "bad glue label '\u00e9'"),
    # An empty label would bind to every other empty label.
    ("tile A north= east= south=- west=\nseed 0 0 A\n", None, 1, "bad glue label ''"),
    ("tile A north=- east=g south=-\nseed 0 0 A\n", None, 1,
     "tile line needs a name and four sides"),
    ("tile A north=- east=g south=- westg\nseed 0 0 A\n", None, 1,
     "expected side=glue, got 'westg'"),
    ("tile A north=- east=g up=- west=g\nseed 0 0 A\n", None, 1,
     "bad or repeated side 'up'"),
    ("tile A north=- north=g south=- west=g\nseed 0 0 A\n", None, 1,
     "bad or repeated side 'north'"),
    # A path line splits its tiles at ';', so no path line could name this
    # tile: its tile line is the error.
    ("tile A north=- east=g south=- west=g\ntile a;b north=- east=g south=- west=g\n"
     "seed 0 0 A\n", None, 2, "tile name 'a;b' contains ';'"),
    (TILE_LINE + "\nseed 0 0\n", None, 2, "seed line is: seed <x> <y> <name>"),
    (TILE_LINE + "\nseed 0 y A\n", None, 2, "seed coordinates must be integers"),
    (TILE_LINE + "\nseed 0 0 Q\n", None, 2, "unknown tile 'Q'"),
    (NO_PATH_TEXT + "# again\nseed 0 0 A\n", None, 4, "seed position (0, 0) repeated"),
    (TILE_LINE + "\n", None, 0, "no seed lines"),
    (UNIT_TEXT, "# nothing\n\n", 0, "empty certificate"),
    (UNIT_TEXT, "vector 1 0\n", 1, "certificate must start with a kind line"),
    (UNIT_TEXT, "kind\n", 1, "certificate must start with a kind line"),
    (UNIT_TEXT, "kind pumpable i=0\n", 1, "pumpable line needs i=<int> j=<int>"),
    (UNIT_TEXT, "kind pumpable i=x j=1\n", 1, "pumpable line needs i=<int> j=<int>"),
    (NO_PATH_TEXT, "kind pumpable i=0 j=1\n", 1, "pumping certificate needs the path"),
    (UNIT_TEXT, "kind pumpable i=0 j=1\nconflict 1 0\n", 2,
     "unexpected line 'conflict 1 0'"),
    (UNIT_TEXT, "kind pumpable i=0 j=1\nvector 2 0\n", 2,
     "vector does not match the index pair"),
    (UNIT_TEXT, "# header\n\nkind fragile\nattach 1 0 Q\nconflict 1 0\n", 4,
     "unknown tile 'Q'"),
    (UNIT_TEXT, "kind fragile\nconflict 1 0\nconflict 2 0\n", 3, "two conflict lines"),
    (UNIT_TEXT, "kind fragile\nattach 1 0\n", 2, "unexpected line 'attach 1 0'"),
    (UNIT_TEXT, "kind fragile\nattach 1 0 A\n", 1,
     "fragile certificate has no conflict line"),
    (UNIT_TEXT, "kind maybe\n", 1, "unknown certificate kind 'maybe'"),
    # The kind line is exactly `kind pumpable i=<int> j=<int>` or `kind
    # fragile`: keys repeated or out of order, or a word after them, are errors.
    (UNIT_TEXT, "kind pumpable i=5 j=1 i=0\n", 1, "unexpected 'i=0' after the index pair"),
    (UNIT_TEXT, "kind pumpable i=0 j=1 bogus\n", 1,
     "unexpected 'bogus' after the index pair"),
    (UNIT_TEXT, "kind pumpable j=1 i=0\n", 1, "pumpable line needs i=<int> j=<int>"),
    (UNIT_TEXT, "kind fragile nonsense\nconflict 1 0\n", 1,
     "unexpected 'nonsense' after kind fragile"),
    (UNIT_TEXT, "kind pumpable i=0 j=1\nvector 1 0\nvector 1 0\n", 3, "two vector lines"),
]


@pytest.mark.parametrize("system, cert, line, message", MALFORMED,
                         ids=[m[3] for m in MALFORMED])
def test_malformed_input_is_a_parse_error(tmp_path, _run, system, cert, line, message):
    # The library raises ParseError naming the line; the CLI (validate for
    # a system, verify for a certificate) prints one error line and exits 4.
    with pytest.raises(ParseError) as e:
        sys_, p = parse_system(system)
        parse_certificate(cert, sys_, p)
    assert type(e.value) is ParseError and e.value.line == line
    assert str(e.value) == f"line {line}: {message}"
    f = tmp_path / "sys.tiles"
    f.write_text(system, encoding="utf-8")
    args = ["validate", str(f)]
    if cert is not None:
        (tmp_path / "c.cert").write_text(cert)
        args = ["verify", str(f), str(tmp_path / "c.cert")]
    r = _run(args, tmp_path)
    assert (r.returncode, r.stdout) == (4, "")
    assert r.stderr == f"error: ParseError: line {line}: {message}\n"


# Bytes a parsed path keeps per tile: a position tuple and one slot in each
# of the two tuples take 72, and the file's equal coordinates share one int.
# A pair per tile and a fresh int per coordinate took 176.
PARSED_BYTES_PER_TILE = 120


def test_parsed_path_keeps_few_bytes_per_tile():
    # 10,000 tiles snaking through rows and columns 1000..1099, where
    # CPython caches no int.
    cells = [(1000 + (c if r % 2 == 0 else 99 - c), 1000 + r)
             for r in range(100) for c in range(100)]
    text = ("tile A north=g east=g south=g west=g\nseed 999 1000 A\npath "
            + " ; ".join(f"{x} {y} A" for x, y in cells) + "\n")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, path = parse_system(text)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert path.positions == tuple(cells)
    assert kept / len(cells) < PARSED_BYTES_PER_TILE


def test_cli_bound_past_the_digit_limit_is_not_built(tmp_path, _run, monkeypatch):
    # 200,000 tile types: the bound has about 4.6 million digits, and
    # building it took seconds before the usage error.
    def refuse(*_):
        raise AssertionError("a bound was built")

    monkeypatch.setattr(cli.driver, "bound", refuse)
    r = _run(["bound", "--tiles", "200000", "--seed", "1"], tmp_path)
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == ("error: --tiles 200000 --seed 1: a bound has more than "
                        f"{_pysys.get_int_max_str_digits()} digits, the most this "
                        "Python prints\n")


def test_cli_module_entry_point(unit_file, tmp_path):
    """``python -m pumpkit.cli`` works from any directory without an install."""
    r = subprocess.run(
        [_pysys.executable, "-m", "pumpkit.cli", "validate", str(unit_file)],
        capture_output=True, text=True, cwd=tmp_path, env=src_env())
    assert r.returncode == 0 and "path ok" in r.stdout


FLOAT_TEXT = """\
tile A north=- east=g south=- west=g
seed 0 0 A
path 5 5 A ; 6 5 A ; 7 5 A ; 8 5 A
"""


@pytest.mark.parametrize("args", [
    ["pump-or-block", "--shield", "0", "1", "1"],
    ["pump-or-block", "--shield", "0", "1", "2"],
    ["shields"],
    ["spans"],
    ["oracle", "rp", "--shield", "0", "1", "2"],
    ["oracle", "pumpable"],
    ["oracle", "fragile"],
    ["analyze"],
], ids=["pump-or-block-repeat", "pump-or-block-deep", "shields", "spans", "oracle-rp",
        "oracle-pumpable", "oracle-fragile", "analyze"])
def test_cli_rejects_unproducible_path(tmp_path, _run, args):
    # A path that never touches the seed is bad input, not an engine fault.
    f = tmp_path / "float.tiles"
    f.write_text(FLOAT_TEXT)
    pos = 2 if args[0] == "oracle" else 1
    r = _run([*args[:pos], str(f), *args[pos:]], tmp_path)
    assert r.returncode == 4
    assert r.stderr == "error: BadSystem: path is not producible: SeedDetached@0\n"


@pytest.mark.parametrize("overlays", ["cut", "regions,rays", "trace"])
def test_cli_render_overlays_need_shield(unit_file, tmp_path, _run, overlays):
    # Every overlay draws a shield's geometry; asking for one without a
    # shield is a usage error, not an SVG without the overlay.
    out = tmp_path / "fig.svg"
    r = _run(["render", str(unit_file), "--overlays", overlays, "-o", str(out)], tmp_path)
    assert r.returncode == 3
    assert r.stderr == "error: --overlays needs --shield I J K\n"
    assert not out.exists()


def test_cli_render_rejects_unknown_overlay(unit_file, tmp_path, _run):
    r = _run(["render", str(unit_file), "--overlays", "rays,bogus"], tmp_path)
    assert r.returncode == 3 and "unknown overlay bogus" in r.stderr


@pytest.mark.parametrize("overlays", ["cut", "regions", "rays", "trace"])
@pytest.mark.parametrize("path_line, error", [
    ("", "PumpkitError: {file} has no path line"),
    ("path 1 0 A ; 3 0 A\n", "BadSystem: path is not producible: GlueMismatch@1"),
], ids=["no-path", "gap"])
def test_cli_render_shield_needs_producible_path(tmp_path, _run, overlays, path_line,
                                                 error):
    # A shield is read on the path, so a missing or broken path is bad
    # input: one error line and exit 4, not a traceback.
    f = tmp_path / "sys.tiles"
    f.write_text("tile A north=- east=g south=- west=g\nseed 0 0 A\n" + path_line)
    out = tmp_path / "fig.svg"
    r = _run(["render", str(f), "--shield", "0", "1", "2", "--overlays", overlays,
              "-o", str(out)], tmp_path)
    assert (r.returncode, r.stdout) == (4, "")
    assert r.stderr == f"error: {error.format(file=f)}\n"
    assert not out.exists()


@pytest.mark.parametrize("width", ["0", "-1"])
def test_cli_reduce_2ham_rejects_width_below_one(unit_file, tmp_path, _run, width):
    r = _run(["reduce-2ham", str(unit_file), "--width", width], tmp_path)
    assert r.returncode == 3 and "--width" in r.stderr


@pytest.mark.parametrize("args, flag", [
    (["oracle", "rp", "{file}"], "--shield"),
    (["analyze", "{file}", "--bound-override", "0"], "--bound-override"),
    (["analyze", "{file}", "--bound-override", "-2"], "--bound-override"),
    (["bound", "--tiles", "0", "--seed", "1"], "--tiles"),
    (["bound", "--tiles", "2", "--seed", "0"], "--seed"),
    # Bounds with more digits than the interpreter converts to decimal;
    # with --all, only the extent passes the limit and nothing is printed.
    (["bound", "--tiles", "1000", "--seed", "1"], "--tiles"),
    (["bound", "--tiles", "330", "--seed", "1", "--all"], "--tiles"),
], ids=["oracle-rp-no-shield", "bound-override-0", "bound-override-negative",
        "tiles-0", "seed-0", "bound-too-many-digits", "extent-too-many-digits"])
def test_cli_usage_errors_exit_3(unit_file, tmp_path, _run, args, flag):
    # A missing or out-of-range option is a usage error: one ``error:`` line
    # naming the option and exit 3, with no traceback.
    r = _run([a.format(file=unit_file) for a in args], tmp_path)
    assert r.returncode == 3
    assert r.stderr.splitlines()[-1].startswith("error:") and flag in r.stderr
    assert "Traceback" not in r.stderr and r.stdout == ""


# Outcomes no other CLI test reaches: a file, written as f.tiles next to a
# blocking certificate cert.txt, a command, its exit code, stdout and stderr.
OUTCOME_CASES = {
    "reduce-2ham-rotates": (
        "tile A north=g east=- south=g west=-\nseed 9 9 A\npath 0 0 A ; 0 1 A ; 0 2 A\n",
        ["reduce-2ham", "f.tiles"], 0, "note: rotated upright\n"
        "tile A north=- east=g south=- west=g\nseed -2 0 A\npath -1 0 A ; 0 0 A\n", ""),
    "enumerate-verbose": (UNIT_TEXT, ["oracle", "enumerate", "-v", "f.tiles"], 0,
                          "-1 0 A\n1 0 A\n-1 0 A ; -2 0 A\n1 0 A ; 2 0 A\n"
                          "4 producible path(s)\n", ""),
    # One tile type cannot conflict; a one-tile path has no index pair.
    "no-conflict": (UNIT_TEXT, ["oracle", "fragile", "f.tiles"], 2,
                    "no conflicting assembly within budget\n", ""),
    "no-pair": (NO_PATH_TEXT + "path 1 0 A\n", ["oracle", "pumpable", "f.tiles"], 2,
                "no pumpable pair within budget\n", ""),
    "verify-needs-path": (NO_PATH_TEXT, ["verify", "f.tiles", "cert.txt"], 4, "",
                          "error: PumpkitError: blocking certificates need the path "
                          "to conflict with\n"),
}


@pytest.mark.parametrize("case", OUTCOME_CASES)
def test_cli_outcomes(tmp_path, _run, monkeypatch, case):
    text, args, code, stdout, stderr = OUTCOME_CASES[case]
    monkeypatch.setenv("PUMPKIT_BUDGET_MAX_PATH_LEN", "2")  # four paths to enumerate
    (tmp_path / "f.tiles").write_text(text)
    (tmp_path / "cert.txt").write_text("kind fragile\nattach 1 0 A\nconflict 1 0\n")
    r = _run(args, tmp_path)
    assert (r.returncode, r.stdout, r.stderr) == (code, stdout, stderr)
