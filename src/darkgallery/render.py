"""SVG pictures of placements: the one place floats are allowed.

Rendering never decides anything -- it draws what the exact modules
already settled -- so coordinates are converted to floats freely here.
The output is plain SVG 1.1 with no scripts and no external references,
and it is deterministic: the same placement renders to the identical
byte string every time.

Conventions: the region is a filled outline, guards are hollow circles,
and with rays enabled every ordered guard pair (a, b) contributes the
dark ray at a generated by b -- the half-line from a pointing away from
b, where b's view is blocked by a.  That makes g*(g-1) ray segments,
each clipped to the frame.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple

from .darkness import GuardSet
from .geometry import ConvexPolygon, Point2, SimplePolygon, Wedge

_WIDTH = 640.0          # frame width in px; height follows the window
_MARGIN = Fraction(1, 16)  # default window margin, fraction of the span

_REGION_STYLE = 'fill="#f4f1e8" stroke="#44403a" stroke-width="1.5"'
_RAY_STYLE = 'stroke="#b0413e" stroke-width="0.8" stroke-opacity="0.6"'
_GUARD_STYLE = 'fill="none" stroke="#1f3a93" stroke-width="1.8"'
_GUARD_RADIUS = 4.5


def _fmt(x: float) -> str:
    """Fixed-format float for SVG attributes: short and deterministic;
    OverflowError for inf or NaN, a value past the float range."""
    if not math.isfinite(x):
        raise OverflowError("%r in the drawing" % x)
    s = "%.4f" % x
    s = s.rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _window_of(region, guards: GuardSet):
    """Default view window: the region's extent, or, for an unbounded
    wedge, the extent of apex plus guards; always padded by _MARGIN."""
    if isinstance(region, Wedge):
        xs = [region.apex.x] + [g.x for g in guards]
        ys = [region.apex.y] + [g.y for g in guards]
        x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
    else:
        x0, y0, x1, y1 = region.bounding_box()
    dx = x1 - x0
    dy = y1 - y0
    pad = (dx if dx > dy else dy) * _MARGIN
    if pad == 0:
        pad = Fraction(1)
    return (x0 - pad, y0 - pad, x1 + pad, y1 + pad)


def render_svg(
    region,
    guards,
    show_dark_rays: bool = False,
    zoom: Optional[Tuple] = None,
) -> str:
    """The placement as a complete SVG 1.1 document (a string).

    zoom, when given, is the world-coordinate window (xmin, ymin, xmax,
    ymax); by default the window wraps the region (or, for a wedge, its
    apex and guards) with a small margin.  The drawing is in floats: a
    window or a placement with coordinates past the float range, or a
    window whose extent rounds to 0, is a ValueError.
    """
    gset = GuardSet.coerce(guards)
    if zoom is not None:
        xmin, ymin, xmax, ymax = (Fraction(v) for v in zoom)
        if xmin >= xmax or ymin >= ymax:
            raise ValueError("zoom window must have positive extent")
    else:
        xmin, ymin, xmax, ymax = _window_of(region, gset)
    try:
        return _draw(region, gset, show_dark_rays, xmin, ymin, xmax, ymax)
    except OverflowError:
        raise ValueError("cannot draw coordinates past the float range") from None


def _draw(region, gset: GuardSet, show_dark_rays: bool, xmin, ymin, xmax, ymax) -> str:
    """render_svg in the window, or OverflowError past the float range."""
    world_w = float(xmax - xmin)
    world_h = float(ymax - ymin)
    if not (world_w and world_h):
        raise ValueError("the window extent rounds to 0 in floats")
    scale = _WIDTH / world_w
    height = world_h * scale

    def sx(v) -> float:
        return (float(v) - float(xmin)) * scale

    def sy(v) -> float:
        return (float(ymax) - float(v)) * scale  # SVG y points down

    def px(p: Point2) -> str:
        return "%s,%s" % (_fmt(sx(p.x)), _fmt(sy(p.y)))

    # world length that surely exits the frame from any ray origin: such
    # an origin (a guard, or the wedge apex) may itself sit far outside a
    # zoomed-in window, so the reach covers that distance too
    world_diag = math.hypot(world_w, world_h)
    cx = (float(xmin) + float(xmax)) / 2.0
    cy = (float(ymin) + float(ymax)) / 2.0
    anchors = list(gset.guards)
    if isinstance(region, Wedge):
        anchors.append(region.apex)
    off = max(math.hypot(float(p.x) - cx, float(p.y) - cy) for p in anchors)
    reach = (world_diag + off) * 3.0

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%s" height="%s" viewBox="0 0 %s %s">'
        % (_fmt(_WIDTH), _fmt(height), _fmt(_WIDTH), _fmt(height)),
        '<defs><clipPath id="frame"><rect x="0" y="0" width="%s" height="%s"/>'
        "</clipPath></defs>" % (_fmt(_WIDTH), _fmt(height)),
        '<rect x="0" y="0" width="%s" height="%s" fill="#ffffff"/>'
        % (_fmt(_WIDTH), _fmt(height)),
        '<g clip-path="url(#frame)">',
    ]

    lines.append("<path d=\"%s\" %s/>" % (_region_path(region, px, reach), _REGION_STYLE))

    if show_dark_rays:
        lines.append('<g class="dark-rays">')
        gs = gset.guards
        for i, a in enumerate(gs):
            for j, b in enumerate(gs):
                if i == j:
                    continue
                dxw = float(a.x) - float(b.x)
                dyw = float(a.y) - float(b.y)
                norm = math.hypot(dxw, dyw)
                ex = float(a.x) + dxw / norm * reach
                ey = float(a.y) + dyw / norm * reach
                lines.append(
                    '<line x1="%s" y1="%s" x2="%s" y2="%s" %s/>'
                    % (_fmt(sx(a.x)), _fmt(sy(a.y)), _fmt(sx(ex)), _fmt(sy(ey)), _RAY_STYLE)
                )
        lines.append("</g>")

    lines.append('<g class="guards">')
    for g in gset:
        lines.append(
            '<circle cx="%s" cy="%s" r="%s" %s/>'
            % (_fmt(sx(g.x)), _fmt(sy(g.y)), _fmt(_GUARD_RADIUS), _GUARD_STYLE)
        )
    lines.append("</g>")
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _region_path(region, px, reach: float) -> str:
    """SVG path data for the region outline.

    A wedge has no finite outline, so it is drawn as a triangle whose
    far edge lies outside the frame (the clip path trims it): apex plus
    a point far out along each edge direction.
    """
    if isinstance(region, (ConvexPolygon, SimplePolygon)):
        pts = list(region.vertices)
    elif isinstance(region, Wedge):
        pts = []
        for d in (region.dir1, region.dir2):
            norm = math.hypot(float(d.x), float(d.y))
            t = reach / norm
            pts.append(
                Point2(
                    Fraction(float(region.apex.x) + float(d.x) * t),
                    Fraction(float(region.apex.y) + float(d.y) * t),
                )
            )
        pts.insert(1, region.apex)
    else:
        raise TypeError("cannot render region %r" % (region,))
    return "M" + "L".join(px(p) for p in pts) + "Z"


def render_placement(doc, show_dark_rays: bool = False, zoom=None) -> str:
    """render_svg on a PlacementDocument."""
    return render_svg(doc.region, doc.guards, show_dark_rays=show_dark_rays, zoom=zoom)
