"""Deterministic SVG rendering of systems, paths, and engine geometry.

One square per tile, a tick per labelled glue side, a polyline for the
path, and optional overlays: visibility rays, the shield cut, the shaded
workspace, and the progress-loop frontier curves.  All coordinates are
integers (doubled lattice times a fixed scale), so output is byte-stable.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .geometry import PolyCurve
from .shield import Shield, ShieldTrace, build_workspace, check_shield
from .tam import Path, TileSystem
from .visibility import GlueView

SCALE = 10  # svg units per half tile edge
PAD = 30

_TILE_FILL = {"seed": "#9ecbff", "path": "#e8c88f"}


def _sx(x2: int) -> int:
    return SCALE * x2


def _sy(y2: int, top: int) -> int:
    # Flip north up: svg y grows downward.
    return SCALE * (top - y2)


def _tick(cx: int, cy: int, horizontal: bool) -> str:
    d = SCALE // 2
    if horizontal:
        return (f'<line x1="{cx - d}" y1="{cy}" x2="{cx + d}" y2="{cy}" '
                f'class="glue"/>')
    return (f'<line x1="{cx}" y1="{cy - d}" x2="{cx}" y2="{cy + d}" '
            f'class="glue"/>')


def _curve_points(curve: PolyCurve, top: int, window) -> str:
    x0, y0, x1, y1 = window
    pts = list(curve.points)
    if curve.south_ray:
        pts.insert(0, (pts[0][0], y0))
    if curve.north_ray:
        pts.append((pts[-1][0], y1))
    return " ".join(f"{_sx(x)},{_sy(y, top)}" for x, y in pts)


def render_svg(sys: TileSystem, path: Optional[Path] = None,
               overlays: Iterable[str] = (), shield: Optional[Shield] = None,
               trace: Optional[ShieldTrace] = None) -> str:
    """Render to an SVG 1.1 string; identical inputs give identical bytes.

    A ``shield`` is checked against ``path`` first, so a triple that is
    not a shield raises :class:`NotAShield` before any overlay is drawn.
    An overlay whose input is missing raises :class:`ValueError`: ``rays``
    needs a shield on the path, and so do ``cut`` and ``regions``, which
    draw that shield's workspace; ``trace`` needs a trace.
    """
    overlays = set(overlays)
    view = workspace = None
    if shield is not None and path is not None:
        view = GlueView(sys, path)
        check_shield(sys, path, shield.i, shield.j, shield.k, view)
        workspace = build_workspace(sys, path, shield)
    needs = {"rays": (view, "a shield and a path"),
             "cut": (workspace, "a shield and a path"),
             "regions": (workspace, "a shield and a path"),
             "trace": (trace, "a trace")}
    for name in sorted(overlays & needs.keys()):
        given, what = needs[name]
        if given is None:
            raise ValueError(f"overlay {name!r} needs {what}")
    tiles = [(pos, t, "seed") for pos, t in sorted(sys.seed.tiles.items())]
    if path is not None:
        tiles += [(pos, t, "path") for pos, t in path.entries]
    xs = [2 * x for (x, _), _, _ in tiles]
    ys = [2 * y for (_, y), _, _ in tiles]
    win = (min(xs) - 4, min(ys) - 4, max(xs) + 4, max(ys) + 4)
    top = win[3]
    width = _sx(win[2]) - _sx(win[0]) + 2 * PAD
    height = _sy(win[1], top) + 2 * PAD
    ox = PAD - _sx(win[0])

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        "<style>"
        ".tile{stroke:#444;stroke-width:1}"
        ".glue{stroke:#222;stroke-width:2}"
        ".path{fill:none;stroke:#a0522d;stroke-width:3}"
        ".ray{fill:none;stroke:#333;stroke-width:1;stroke-dasharray:4 3}"
        ".cut{fill:none;stroke:#1b6ca8;stroke-width:2}"
        ".trace{fill:none;stroke:#2e8b57;stroke-width:2}"
        ".region{fill:#1b6ca8;fill-opacity:0.15;stroke:none}"
        "</style>",
        f'<g transform="translate({ox},{PAD})">',
    ]

    if "regions" in overlays:
        cut = workspace.cut
        x0, y0, x1, y1 = win
        pts = list(cut.points)
        poly = [(pts[0][0], y0)] + pts + [(pts[-1][0], y1)]
        poly += [(x1 + 2, y1), (x1 + 2, y0)]
        coords = " ".join(f"{_sx(x)},{_sy(y, top)}" for x, y in poly)
        out.append(f'<polygon points="{coords}" class="region"/>')

    for (x, y), t, kind in tiles:
        cx, cy = _sx(2 * x), _sy(2 * y, top)
        out.append(f'<rect x="{cx - SCALE}" y="{cy - SCALE}" '
                   f'width="{2 * SCALE}" height="{2 * SCALE}" class="tile" '
                   f'fill="{_TILE_FILL[kind]}"/>')
        if t.north is not None:
            out.append(_tick(cx, cy - SCALE, True))
        if t.south is not None:
            out.append(_tick(cx, cy + SCALE, True))
        if t.east is not None:
            out.append(_tick(cx + SCALE, cy, False))
        if t.west is not None:
            out.append(_tick(cx - SCALE, cy, False))

    if path is not None and len(path) > 1:
        coords = " ".join(f"{_sx(2 * x)},{_sy(2 * y, top)}"
                          for x, y in path.positions)
        out.append(f'<polyline points="{coords}" class="path"/>')

    if "rays" in overlays:
        x0, y0, x1, y1 = win
        for idx, heading in ((shield.i, "south"), (shield.j, "south"),
                             (shield.k, "north")):
            gx, gy = view.glue(idx).midpoint
            end_y = y0 if heading == "south" else y1
            out.append(f'<line x1="{_sx(gx)}" y1="{_sy(gy, top)}" '
                       f'x2="{_sx(gx)}" y2="{_sy(end_y, top)}" class="ray"/>')

    if "cut" in overlays:
        out.append(f'<polyline points="{_curve_points(workspace.cut, top, win)}" '
                   f'class="cut"/>')

    if "trace" in overlays:
        drawn = []
        if trace.route is not None:
            drawn.append(PolyCurve(list(trace.route)))
        drawn += [st.f for st in trace.history]
        for curve in drawn:
            out.append(f'<polyline points="{_curve_points(curve, top, win)}" '
                       f'class="trace"/>')

    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
