"""Deterministic SVG chord diagrams on the Poincare disk.

Rendering is the library's only floating-point surface: exact points are
embedded with 64-bit arithmetic, every chord becomes the circular arc through
its endpoints orthogonal to the unit circle (a diameter when the endpoints
are antipodal), and output bytes depend only on the inputs and the spec.
"""

from __future__ import annotations

from collections import namedtuple

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")
MARGIN = 24.0
CIRCLE_COLOR = "#222222"
ENDPOINT_RADIUS = 2.0
CUSP_RADIUS = 6.0
PRECISION = 9  # digits after the point in every coordinate


RenderSpec = namedtuple("RenderSpec", "size stroke_width", defaults=(720, 1.4))


def arc_geometry(z1: complex, z2: complex):
    """Geometry of the geodesic between two unit-circle points.

    Returns ("line", z1, z2) for antipodal endpoints, otherwise
    ("arc", z1, z2, center, radius) with |center|^2 = radius^2 + 1.
    """
    denom = 1.0 + (z1 * z2.conjugate()).real
    if abs(denom) < 1e-12:
        return ("line", z1, z2, None, None)
    center = (z1 + z2) / denom
    radius = abs(z1 - center)
    return ("arc", z1, z2, center, radius)


def orthogonality_residual(geom) -> float:
    kind, _, _, center, radius = geom
    if kind == "line":
        return 0.0
    return abs(abs(center) ** 2 - radius**2 - 1.0)


def _fmt(x: float) -> str:
    s = f"{x:.{PRECISION}f}"
    return "0." + "0" * PRECISION if s == "-" + "0." + "0" * PRECISION else s


class _Canvas:
    """Pixel frame of one render; formats each point's coordinates once."""

    def __init__(self, spec: RenderSpec):
        self.scale = spec.size / 2.0 - MARGIN
        self.mid = spec.size / 2.0
        self._at = {}  # point -> its formatted (x, y)

    def at(self, p) -> tuple:
        xy = self._at.get(p)
        if xy is None:
            z = p.to_complex()
            xy = self._at[p] = (_fmt(self.mid + z.real * self.scale), _fmt(self.mid - z.imag * self.scale))
        return xy


def _arc_path(canvas: _Canvas, geom, a: tuple, b: tuple) -> str:
    """Path of a chord from its geometry and its formatted endpoints."""
    kind, z1, z2, center, radius = geom
    if kind == "line":
        return f"M {a[0]} {a[1]} L {b[0]} {b[1]}"
    r = _fmt(radius * canvas.scale)
    cross = ((z1 - center).real * (z2 - center).imag) - ((z1 - center).imag * (z2 - center).real)
    sweep = 0 if cross > 0 else 1
    return f"M {a[0]} {a[1]} A {r} {r} 0 0 {sweep} {b[0]} {b[1]}"


def render_svg(layers, cusps=(), spec: RenderSpec | None = None) -> str:
    """Render layers of chord lists (one color each) over the unit circle.

    ``layers`` is a sequence of chord iterables; chords are drawn in their
    canonical encoded order so output bytes are reproducible.
    """
    spec = spec or RenderSpec()
    canvas = _Canvas(spec)
    width = _fmt(spec.stroke_width)
    dot = _fmt(ENDPOINT_RADIUS)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.size}" height="{spec.size}" '
        f'viewBox="0 0 {spec.size} {spec.size}">',
        f'<rect width="{spec.size}" height="{spec.size}" fill="white"/>',
        f'<circle cx="{_fmt(canvas.mid)}" cy="{_fmt(canvas.mid)}" r="{_fmt(canvas.scale)}" '
        f'fill="none" stroke="{CIRCLE_COLOR}" stroke-width="{width}"/>',
    ]
    for idx, chords in enumerate(layers):
        color = PALETTE[idx % len(PALETTE)]
        ordered = sorted(dict.fromkeys(chords), key=lambda c: c.encode())
        for ch in ordered:
            a, b = ch.ends()
            geom = arc_geometry(a.to_complex(), b.to_complex())
            path = _arc_path(canvas, geom, canvas.at(a), canvas.at(b))
            lines.append(f'<path d="{path}" fill="none" stroke="{color}" stroke-width="{width}"/>')
        seen = dict.fromkeys(p for ch in ordered for p in (ch.lo, ch.hi))
        for p in sorted(seen, key=lambda q: q.encode()):
            x, y = canvas.at(p)
            lines.append(f'<circle cx="{x}" cy="{y}" r="{dot}" fill="{color}"/>')
    for p in sorted(dict.fromkeys(cusps), key=lambda q: q.encode()):
        x, y = canvas.at(p)
        lines.append(
            f'<circle cx="{x}" cy="{y}" r="{_fmt(CUSP_RADIUS)}" fill="none" '
            f'stroke="#000000" stroke-width="{width}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def arcs_report(chords) -> list:
    """Arc geometry and orthogonality residuals, for tests and --format json."""
    out = []
    for ch in sorted(dict.fromkeys(chords), key=lambda c: c.encode()):
        geom = arc_geometry(*(p.to_complex() for p in ch.ends()))
        kind, z1, z2, center, radius = geom
        entry = {
            "chord": ch.encode(),
            "kind": kind,
            "residual": orthogonality_residual(geom),
        }
        if kind == "arc":
            entry["center"] = [center.real, center.imag]
            entry["radius"] = radius
        out.append(entry)
    return out
