"""Deterministic SVG chord diagrams on the Poincare disk.

Rendering is the library's only floating-point surface: exact points are
embedded with 64-bit arithmetic, every chord becomes the circular arc through
its endpoints orthogonal to the unit circle (a diameter when the endpoints
are antipodal), and output bytes depend only on the inputs and the spec.
"""

from __future__ import annotations

from dataclasses import dataclass

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")


@dataclass(frozen=True)
class RenderSpec:
    size: int = 720
    margin: float = 24.0
    stroke_width: float = 1.4
    circle_color: str = "#222222"
    colors: tuple = PALETTE
    endpoint_radius: float = 2.0
    cusp_radius: float = 6.0
    precision: int = 9


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


def _fmt(x: float, precision: int) -> str:
    s = f"{x:.{precision}f}"
    return "0." + "0" * precision if s == "-" + "0." + "0" * precision else s


class _Canvas:
    def __init__(self, spec: RenderSpec):
        self.spec = spec
        self.scale = spec.size / 2.0 - spec.margin
        self.mid = spec.size / 2.0

    def xy(self, z: complex) -> tuple:
        return (self.mid + z.real * self.scale, self.mid - z.imag * self.scale)

    def f(self, v: float) -> str:
        return _fmt(v, self.spec.precision)


def _arc_path(canvas: _Canvas, geom) -> str:
    kind, z1, z2, center, radius = geom
    x1, y1 = canvas.xy(z1)
    x2, y2 = canvas.xy(z2)
    f = canvas.f
    if kind == "line":
        return f"M {f(x1)} {f(y1)} L {f(x2)} {f(y2)}"
    r = radius * canvas.scale
    cross = ((z1 - center).real * (z2 - center).imag) - ((z1 - center).imag * (z2 - center).real)
    sweep = 0 if cross > 0 else 1
    return f"M {f(x1)} {f(y1)} A {f(r)} {f(r)} 0 0 {sweep} {f(x2)} {f(y2)}"


def render_svg(layers, cusps=(), spec: RenderSpec | None = None) -> str:
    """Render layers of chord lists (one color each) over the unit circle.

    ``layers`` is a sequence of chord iterables; chords are drawn in their
    canonical encoded order so output bytes are reproducible.
    """
    spec = spec or RenderSpec()
    canvas = _Canvas(spec)
    f = canvas.f
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.size}" height="{spec.size}" '
        f'viewBox="0 0 {spec.size} {spec.size}">',
        f'<rect width="{spec.size}" height="{spec.size}" fill="white"/>',
        f'<circle cx="{f(canvas.mid)}" cy="{f(canvas.mid)}" r="{f(canvas.scale)}" '
        f'fill="none" stroke="{spec.circle_color}" stroke-width="{f(spec.stroke_width)}"/>',
    ]
    for idx, chords in enumerate(layers):
        color = spec.colors[idx % len(spec.colors)]
        ordered = sorted(dict.fromkeys(chords), key=lambda c: c.encode())
        for ch in ordered:
            z1, z2 = ch.lo.to_complex(), ch.hi.to_complex()
            path = _arc_path(canvas, arc_geometry(z1, z2))
            lines.append(
                f'<path d="{path}" fill="none" stroke="{color}" '
                f'stroke-width="{f(spec.stroke_width)}"/>'
            )
        seen = dict.fromkeys(p for ch in ordered for p in (ch.lo, ch.hi))
        for p in sorted(seen, key=lambda q: q.encode()):
            x, y = canvas.xy(p.to_complex())
            lines.append(
                f'<circle cx="{f(x)}" cy="{f(y)}" r="{f(spec.endpoint_radius)}" fill="{color}"/>'
            )
    for p in sorted(dict.fromkeys(cusps), key=lambda q: q.encode()):
        x, y = canvas.xy(p.to_complex())
        lines.append(
            f'<circle cx="{f(x)}" cy="{f(y)}" r="{f(spec.cusp_radius)}" fill="none" '
            f'stroke="#000000" stroke-width="{f(spec.stroke_width)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def arcs_report(chords) -> list:
    """Arc geometry and orthogonality residuals, for tests and --format json."""
    out = []
    for ch in sorted(dict.fromkeys(chords), key=lambda c: c.encode()):
        geom = arc_geometry(ch.lo.to_complex(), ch.hi.to_complex())
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
