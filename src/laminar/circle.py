"""Exact boundary points of the hyperbolic plane and the circular order.

Three charts are supported:

* ``ext_real``   - the extended real line R u {inf} (boundary of the upper
  half plane); counterclockwise means increasing reals with inf at the wrap.
* ``disk_angle`` - angles theta mod 1 on the unit circle, point e^(2*pi*i*theta).
* ``signed_exp`` - points s*e^(a*t) on the two rays of R-{0} (sign s, exponent
  t, unit scale a), plus the limit symbols 0 and inf separating the rays.

Each chart carries a decidable linear key whose order, read cyclically, is the
counterclockwise orientation of the circle.  The orientation conventions are
pinned by the Cayley map p(z) = i(1+z)/(1-z), which sends the counterclockwise
quadruple (1, i, -1, -i) of the disk to (inf, -1, 0, 1).
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

from .errors import ChartMismatch, IncomparableCharts, InexactConversion
from .field import FieldElem, as_field


class Chart(str, Enum):
    EXT_REAL = "ext_real"
    DISK_ANGLE = "disk_angle"
    SIGNED_EXP = "signed_exp"


_REGULAR, _EXT_INF, _EXP_ZERO, _EXP_INF = 0, 1, 2, 3

# (chart, kind, ray, numerators of x) -> the one point with that value.  It
# only grows, and a new point is published with setdefault, so threads that
# make the same point at once still share one object.
_POINTS = {}


class BoundaryPoint:
    """Immutable exact point of the circle in one chart.

    Points are hash-consed: equal points are one object, so ``==`` is
    identity and hashing is the object's own.  ``FieldElem`` is canonical,
    which makes its numerators a complete key for ``x``.  Being immutable, a
    point also keeps its order key, its encoding and its float embedding once
    computed; a parsed point keeps the string it was read from.
    """

    __slots__ = ("chart", "kind", "x", "ray", "_key", "_enc", "_z")

    def __new__(cls, chart: Chart, kind: int, x: FieldElem | None, ray: int):
        key = (chart, kind, ray) if x is None else (chart, kind, ray, x._a, x._b, x._c, x._d, x._den)
        p = _POINTS.get(key)
        if p is None:
            p = object.__new__(cls)
            p.chart, p.kind, p.x, p.ray = chart, kind, x, ray
            p._key = p._enc = p._z = None
            p = _POINTS.setdefault(key, p)
        return p

    # -- constructors ---------------------------------------------------

    @staticmethod
    def ext_real(x) -> "BoundaryPoint":
        return BoundaryPoint(Chart.EXT_REAL, _REGULAR, as_field(x), 0)

    @staticmethod
    def ext_inf() -> "BoundaryPoint":
        return BoundaryPoint(Chart.EXT_REAL, _EXT_INF, None, 0)

    @staticmethod
    def disk_angle(theta) -> "BoundaryPoint":
        t = as_field(theta)
        t = t - t.floor()  # canonical representative in [0, 1)
        return BoundaryPoint(Chart.DISK_ANGLE, _REGULAR, t, 0)

    @staticmethod
    def signed_exp(sign: int, t) -> "BoundaryPoint":
        if sign not in (1, -1):
            raise ValueError("ray sign must be +1 or -1")
        return BoundaryPoint(Chart.SIGNED_EXP, _REGULAR, as_field(t), sign)

    @staticmethod
    def exp_zero() -> "BoundaryPoint":
        return BoundaryPoint(Chart.SIGNED_EXP, _EXP_ZERO, None, 0)

    @staticmethod
    def exp_inf() -> "BoundaryPoint":
        return BoundaryPoint(Chart.SIGNED_EXP, _EXP_INF, None, 0)

    # -- structure -------------------------------------------------------

    @property
    def is_infinity(self) -> bool:
        return self.kind == _EXT_INF

    def linear_key(self):
        """Total order key; read cyclically it is the ccw circle order."""
        if self._key is None:
            if self.chart == Chart.EXT_REAL:
                key = (1,) if self.kind == _EXT_INF else (0, self.x)
            elif self.chart == Chart.DISK_ANGLE:
                key = (0, self.x)
            else:
                if self.kind == _EXP_ZERO:
                    key = (0,)
                elif self.kind == _EXP_INF:
                    key = (2,)
                elif self.ray > 0:
                    key = (1, self.x)
                else:
                    key = (3, -self.x)
            self._key = key
        return self._key

    def __eq__(self, other) -> bool:
        return self is other

    __hash__ = object.__hash__

    # -- encoding ----------------------------------------------------------

    def encode(self) -> str:
        if self._enc is None:
            self._enc = self._encode()
        return self._enc

    def _encode(self) -> str:
        if self.chart == Chart.EXT_REAL:
            return "r:inf" if self.kind == _EXT_INF else "r:" + self.x.encode()
        if self.chart == Chart.DISK_ANGLE:
            return "θ:" + self.x.encode()
        if self.kind == _EXP_ZERO:
            return "e:0"
        if self.kind == _EXP_INF:
            return "e:inf"
        return "e:" + ("+" if self.ray > 0 else "-") + "," + self.x.encode()

    @staticmethod
    def parse(s: str) -> "BoundaryPoint":
        """The point whose encoding is ``s``.  Only that one spelling parses,
        so the point keeps ``s`` as its encoding."""
        tag, _, body = s.partition(":")
        if tag == "r":
            if body == "inf":
                p = BoundaryPoint.ext_inf()
            else:
                p = BoundaryPoint(Chart.EXT_REAL, _REGULAR, FieldElem.parse(body), 0)
        elif tag == "θ":
            t = FieldElem.parse(body)
            if t.floor() != 0:
                raise ValueError(f"angle {s!r} is not in [0, 1)")
            p = BoundaryPoint(Chart.DISK_ANGLE, _REGULAR, t, 0)
        elif tag == "e":
            if body == "0":
                p = BoundaryPoint.exp_zero()
            elif body == "inf":
                p = BoundaryPoint.exp_inf()
            else:
                sign, _, rest = body.partition(",")
                if sign not in ("+", "-"):
                    raise ValueError(f"bad ray sign in {s!r}")
                p = BoundaryPoint(Chart.SIGNED_EXP, _REGULAR, FieldElem.parse(rest), 1 if sign == "+" else -1)
        else:
            raise ValueError(f"bad point encoding: {s!r}")
        p._enc = s
        return p

    def __repr__(self) -> str:
        return f"<{self.encode()}>"

    # -- float embedding (render/sampling only) ----------------------------

    def to_complex(self) -> complex:
        """Point on the unit circle of the Poincare disk, in 64-bit floats."""
        if self._z is None:
            self._z = self._embed()
        return self._z

    def _embed(self) -> complex:
        if self.chart == Chart.DISK_ANGLE:
            return cmath.exp(2j * cmath.pi * float(self.x))
        if self.chart == Chart.EXT_REAL:
            if self.kind == _EXT_INF:
                return complex(1.0, 0.0)
            w = complex(float(self.x), 0.0)
        else:
            if self.kind == _EXP_ZERO:
                w = complex(0.0, 0.0)
            elif self.kind == _EXP_INF:
                return complex(1.0, 0.0)
            else:
                t = float(self.x)
                if t > 700.0:
                    return complex(1.0, 0.0)
                w = complex(self.ray * math.exp(t), 0.0)
        # inverse Cayley: z = (w - i) / (w + i)
        z = (w - 1j) / (w + 1j)
        return z

    def to_angle(self) -> float:
        """Angle of the disk image in turns, in [0, 1)."""
        a = cmath.phase(self.to_complex()) / (2 * cmath.pi)
        return a % 1.0


def circular_order(x: BoundaryPoint, y: BoundaryPoint, z: BoundaryPoint) -> int:
    """The circular order of the circle: +1 ccw, -1 cw, 0 on repeated points."""
    if not (x.chart == y.chart == z.chart):
        y, z = comparable(y, x.chart), comparable(z, x.chart)
    if x is y or y is z or x is z:  # one object per point
        return 0
    kx, ky, kz = x.linear_key(), y.linear_key(), z.linear_key()
    if (kx < ky < kz) or (ky < kz < kx) or (kz < kx < ky):
        return 1
    return -1


def _shared_points():
    """The points with an exact image in more than one chart, one row each.

    The angle theta = k/24 is the real -cot(pi*k/24) (theta 0 is r:inf), and
    that cotangent lies in the field for every k: start from cot(pi/24) =
    2 + sqrt2 + sqrt3 + sqrt6 and step by the addition formula
    cot(a + b) = (cot a * cot b - 1) / (cot a + cot b).  Only the four rows
    1, i, -1, -i (k = 0, 6, 12, 18) also have a signed_exp point: elsewhere
    e^t leaves the field.  No other point is exact in two charts, since the
    roots of unity in Q(i, sqrt2, sqrt3) are the 24th ones.  Each point of a
    row maps to its row as {chart: point}."""
    exp = {
        0: BoundaryPoint.exp_inf(),
        6: BoundaryPoint.signed_exp(-1, 0),
        12: BoundaryPoint.exp_zero(),
        18: BoundaryPoint.signed_exp(1, 0),
    }
    step = cot = FieldElem(2, 1, 1, 1)
    rows = [(BoundaryPoint.disk_angle(0), BoundaryPoint.ext_inf(), exp[0])]
    for k in range(1, 24):
        row = (BoundaryPoint.disk_angle(FieldElem((k, 24))), BoundaryPoint.ext_real(-cot))
        rows.append((*row, exp[k]) if k in exp else row)
        if k < 23:  # cot(pi) is not a real
            cot = (cot * step - 1) / (cot + step)
    return {p: {s.chart: s for s in row} for row in rows for p in row}


_SHARED = _shared_points()


def chart_convert(p: BoundaryPoint, target: Chart) -> BoundaryPoint:
    """Exact, order-preserving chart conversion: ``p`` in its own chart, or
    its entry in the table of shared points, and nothing else."""
    target = Chart(target)
    if p.chart == target:
        return p
    q = _SHARED.get(p, {}).get(target)
    if q is None:
        raise InexactConversion(
            f"{p!r} -> {target.value}: only theta k/24 <-> r:-cot(pi*k/24), and the four points ±1, ±i"
            " in every chart, are converted"
        )
    return q


def comparable(p: BoundaryPoint, target: Chart) -> BoundaryPoint:
    """``p`` converted into ``target`` to be ordered among its points, or
    IncomparableCharts where it has no exact image there."""
    try:
        return chart_convert(p, target)
    except InexactConversion as exc:
        raise IncomparableCharts(str(exc)) from exc


def require_same_chart(*points: BoundaryPoint) -> Chart:
    chart = points[0].chart
    for p in points[1:]:
        if p.chart != chart:
            raise ChartMismatch(f"mixed charts {chart.value} and {p.chart.value}")
    return chart


def require_one_chart(items, error=ChartMismatch) -> None:
    """``error`` unless the items (points, chords, parsed systems) all lie in one chart."""
    charts = {x.chart for x in items}
    if len(charts) > 1:
        raise error(f"mixed charts {' and '.join(sorted(c.value for c in charts))}")
