"""Command line interface.

Exit codes for the deciding commands follow the convention: 0 for a
pumping certificate, 1 for a blocking certificate, 2 when no shield was
found, 3 for usage errors and 4 for other errors, such as an unreadable
input file.  Budgets honor the ``PUMPKIT_BUDGET_*`` environment variables;
a value that is not an integer is a usage error.
"""

from __future__ import annotations

import argparse
import sys as _sys
from typing import Optional

from . import driver, formats, oracle, shield as engine, svgout, tam, visibility
from .budgets import EnumBudget
from .errors import BadBudget, BadSystem, NotCanonical, PumpkitError
from .tam import PumpingSpec

EXIT_PUMPABLE = 0
EXIT_FRAGILE = 1
EXIT_NO_SHIELD = 2
EXIT_USAGE = 3
EXIT_ERROR = 4

OVERLAYS = ("regions", "rays", "cut", "trace")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(_sys.stderr)
        _sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _load(path_arg: str, need_path=False):
    with open(path_arg, "r", encoding="utf-8") as fh:
        system, path = formats.parse_system(fh.read())
    if need_path and path is None:
        raise PumpkitError(f"{path_arg} has no path line")
    return system, path


def _check_producible(system, path):
    rep = tam.validate_producible_path(system, path)
    if not rep:
        raise BadSystem(f"path is not producible: {rep.code}@{rep.index}")


def _load_producible(path_arg: str):
    """The system and path of a file whose path must be producible."""
    system, path = _load(path_arg, need_path=True)
    _check_producible(system, path)
    return system, path


def _emit(text: str, out: Optional[str]):
    if out is None:
        _sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_validate(args) -> int:
    worst = 0
    for file_arg in args.files:
        prefix = f"{file_arg}: " if len(args.files) > 1 else ""
        system, path = _load(file_arg)
        if path is None:
            print(f"{prefix}system ok: {len(system.tiles)} tiles, "
                  f"seed of {len(system.seed)}")
            continue
        rep = tam.validate_producible_path(system, path)
        if rep:
            print(f"{prefix}path ok: {len(path)} tiles")
            for note in rep.notes:
                print(f"{prefix}note: {note}")
        else:
            print(f"{prefix}invalid path: {rep.code} at index {rep.index}")
            worst = EXIT_ERROR
    return worst


def cmd_analyze(args) -> int:
    system, path = _load(args.file, need_path=True)
    res = driver.analyze(system, path, args.bound_override,
                         EnumBudget.from_env())
    for step in res.trail:
        print(f"trail: {step}")
    if res.kind == "pumpable":
        print(f"pumpable i={res.pumpable.i} j={res.pumpable.j} "
              f"vector={res.pumpable.vector}")
        _emit(formats.emit_certificate(res), args.output)
    elif res.kind == "fragile":
        print(f"fragile: {len(res.fragile.attachments)} attachments, "
              f"conflict at {res.fragile.conflict}")
        _emit(formats.emit_certificate(res), args.output)
    else:
        print("no shield found")
    return res.exit_code


def cmd_shields(args) -> int:
    system, path = _load_producible(args.file)
    found = engine.enumerate_shields(system, path)
    for sh in found:
        print(f"shield {sh.i} {sh.j} {sh.k}")
    print(f"{len(found)} shield(s)")
    return 0


def cmd_pump_or_block(args) -> int:
    system, path = _load_producible(args.file)
    i, j, k = args.shield
    out = engine.pump_or_block(system, path, engine.Shield(i, j, k),
                               EnumBudget.from_env())
    print(f"branch: {out.branch}")
    if args.trace:
        print(out.trace.dump())
    if out.kind == "pumpable":
        print(f"pumpable i={out.pumpable.i} j={out.pumpable.j} "
              f"vector={out.pumpable.vector}")
        _emit(formats.emit_certificate(out), args.output)
        return EXIT_PUMPABLE
    print(f"fragile: conflict at {out.fragile.conflict}")
    _emit(formats.emit_certificate(out), args.output)
    return EXIT_FRAGILE


def cmd_spans(args) -> int:
    system, path = _load_producible(args.file)
    names = {}
    if args.axis == "h":  # glue rows are the glue columns of the transposed instance
        system, path = driver.TRANSPOSE.move(system, path)
        names = {"up": "right", "down": "left", "east": "north", "west": "south"}
    try:
        found = visibility.spans(system, path)
    except NotCanonical as e:
        if names:
            raise NotCanonical(str(e).replace("axis vertical", "axis horizontal")) from None
        raise
    for s in found:
        print(f"span coord={s.coordinate} s={s.s} n={s.n} "
              f"orient={names.get(s.orientation, s.orientation)} "
              f"pointing={names.get(s.pointing, s.pointing) or '-'} "
              f"type={s.glue_type} extent={s.height}")
    return 0


def cmd_verify(args) -> int:
    system, path = _load(args.file)
    with open(args.cert, "r", encoding="utf-8") as fh:
        cert = formats.parse_certificate(fh.read(), system, path)
    if isinstance(cert, PumpingSpec):
        res = tam.verify_pumpable_cert(system, cert)
    else:
        if path is None:
            raise PumpkitError("blocking certificates need the path to conflict with")
        res = tam.verify_fragile_cert(system, path, cert)
    if res:
        print("certificate: valid")
        return 0
    print(f"certificate: INVALID ({res.reason})")
    return EXIT_ERROR


def cmd_oracle(args) -> int:
    if args.mode == "rp" and args.shield is None:
        _sys.stderr.write("error: oracle rp needs --shield I J K\n")
        return EXIT_USAGE
    system, path = _load(args.file, need_path=args.mode != "enumerate")
    budget = EnumBudget.from_env()
    if args.mode == "enumerate":
        enum = oracle.PathEnumeration(system, budget)
        n = 0
        for q in enum:
            n += 1
            if args.verbose:
                print(" ; ".join(f"{x} {y} {t.name}" for (x, y), t in q.entries))
        print(f"{n} producible path(s)"
              + (" [truncated]" if enum.truncated else ""))
        return 0
    if args.mode == "fragile":
        cert = oracle.brute_fragile(system, path, budget)
        if cert is None:
            print("no conflicting assembly within budget")
            return EXIT_NO_SHIELD
        print(f"conflict at {cert.conflict}")
        _emit(formats.emit_certificate(cert), args.output)
        return EXIT_FRAGILE
    if args.mode == "pumpable":
        _check_producible(system, path)
        spec = oracle.brute_pumpable(system, path, budget)
        if spec is None:
            print("no pumpable pair within budget")
            return EXIT_NO_SHIELD
        print(f"pumpable i={spec.i} j={spec.j} vector={spec.vector}")
        _emit(formats.emit_certificate(spec), args.output)
        return EXIT_PUMPABLE
    # mode == "rp": compare the engine's route against the exhaustive one.
    i, j, k = args.shield
    sh = engine.Shield(i, j, k)
    _check_producible(system, path)
    engine.check_shield(system, path, i, j, k)
    ws = engine.build_workspace(system, path, sh)
    fast = engine.build_r(ws, budget)
    slow = oracle.brute_right_priority(system, path, sh, budget)
    print("engine route: " + " ".join(f"{x},{y}" for x, y in fast))
    print("oracle route: " + " ".join(f"{x},{y}" for x, y in slow))
    if fast != slow:
        print("MISMATCH")
        return EXIT_ERROR
    print("routes agree")
    return 0


def cmd_render(args) -> int:
    overlays = args.overlays
    if overlays and args.shield is None:
        # Every overlay draws a shield's geometry; without one none is drawn.
        _sys.stderr.write("error: --overlays needs --shield I J K\n")
        return EXIT_USAGE
    # A shield is read on the path, which must then exist and be producible.
    system, path = _load_producible(args.file) if args.shield else _load(args.file)
    sh = engine.Shield(*args.shield) if args.shield else None
    trace = None
    if "trace" in overlays:
        trace = engine.pump_or_block(system, path, sh, EnumBudget.from_env()).trace
    svg = svgout.render_svg(system, path, overlays, sh, trace=trace)
    _emit(svg, args.output)
    return 0


def cmd_bound(args) -> int:
    tiles, seed = args.tiles, args.seed
    # Interpreters before 3.10.7 have no digit limit (0 means none).
    limit = getattr(_sys, "get_int_max_str_digits", lambda: 0)()
    try:
        # A bound of at least 2^b has more than 0.30102 b decimal digits:
        # past the limit, refuse before building it.
        if limit and driver.bound_log2_lower(tiles) * 30102 >= limit * 100000:
            raise ValueError(f"more than {limit} digits")
        lines = [str(driver.bound(tiles, seed))]
        if args.all:
            lines += [f"square-half-side {driver.bound_theorem1_square_half_side(tiles, seed)}",
                      f"extent {driver.bound_theorem1_extent(tiles, seed)}"]
    except ValueError:
        # The interpreter refuses to format an int past its digit limit.
        _sys.stderr.write(f"error: --tiles {tiles} --seed {seed}: a bound has more than "
                          f"{limit} digits, the most this Python prints\n")
        return EXIT_USAGE
    print("\n".join(lines))
    return 0


def cmd_reduce_2ham(args) -> int:
    system, path = _load(args.file, need_path=True)
    red = driver.reduce_2ham(system.tiles, path, args.width)
    for note in red.notes:
        print(f"note: {note}")
    _emit(formats.print_system(red.sys, red.path), args.output)
    return 0


def _overlays(text: str) -> set[str]:
    names = set(text.split(",")) - {""}
    unknown = sorted(names - set(OVERLAYS))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown overlay {', '.join(unknown)}; known: {','.join(OVERLAYS)}")
    return names


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def build_parser() -> _Parser:
    parser = _Parser(prog="pumpkit",
                     description="pumping/fragility certificates for "
                                 "temperature-1 tile assembly paths")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, help="check system/path files")
    p.add_argument("files", nargs="+")

    p = add("analyze", cmd_analyze, help="run the full decision pipeline")
    p.add_argument("file")
    p.add_argument("--bound-override", type=_positive_int, default=None,
                   help="use this distance bound instead of the true one")
    p.add_argument("-o", "--output", default=None,
                   help="write the certificate here")

    p = add("shields", cmd_shields, help="list all shields of the path")
    p.add_argument("file")

    p = add("pump-or-block", cmd_pump_or_block, help="decide one shield")
    p.add_argument("file")
    p.add_argument("--shield", nargs=3, type=int, required=True,
                   metavar=("I", "J", "K"))
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--trace", action="store_true",
                   help="print the engine's construction trace")

    p = add("spans", cmd_spans, help="print the path's spans")
    p.add_argument("file")
    p.add_argument("--axis", choices=("v", "h"), default="v")

    p = add("verify", cmd_verify, help="verify a certificate file")
    p.add_argument("file")
    p.add_argument("cert")

    p = add("oracle", cmd_oracle, help="brute-force ground truth")
    p.add_argument("mode", choices=("enumerate", "fragile", "pumpable", "rp"))
    p.add_argument("file")
    p.add_argument("--shield", nargs=3, type=int, metavar=("I", "J", "K"))
    p.add_argument("-o", "--output", default=None)
    p.add_argument("-v", "--verbose", action="store_true")

    p = add("render", cmd_render, help="render the system/path as SVG")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--overlays", type=_overlays, default="",
                   help="comma list of " + ",".join(OVERLAYS) + "; needs --shield")
    p.add_argument("--shield", nargs=3, type=int, metavar=("I", "J", "K"))

    p = add("bound", cmd_bound, help="print the exact distance bound")
    p.add_argument("--tiles", type=_positive_int, required=True)
    p.add_argument("--seed", type=_positive_int, required=True)
    p.add_argument("--all", action="store_true",
                   help="also print the square half side and extent bounds")

    p = add("reduce-2ham", cmd_reduce_2ham,
            help="re-seed a free path at its westernmost tile")
    p.add_argument("file")
    p.add_argument("--width", type=_positive_int, default=None)
    p.add_argument("-o", "--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PumpkitError, OSError, UnicodeDecodeError) as e:
        _sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return EXIT_USAGE if isinstance(e, BadBudget) else EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
