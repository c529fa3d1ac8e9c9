"""Boundary actions: Mobius matrices on the extended real line and the exact
affine actions used in the angle and exponent charts.

Matrices are kept in projective canonical form: scale so the first nonzero
entry is positive and the sixteen rational coefficients are coprime integers.
Fixed points outside Q(sqrt2, sqrt3) are carried symbolically by their exact
defining quadratic and branch sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .circle import BoundaryPoint, Chart
from .errors import ChartMismatch
from .field import FieldElem, as_field
from .lamination import Chord, Interval


class ElementType(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class MobiusMap:
    """Projectivized 2x2 map x -> (px+q)/(rx+s) with det > 0, acting on ext_real."""

    __slots__ = ("p", "q", "r", "s", "_key")

    chart = Chart.EXT_REAL

    def __init__(self, p, q, r, s):
        p, q, r, s = (as_field(v) for v in (p, q, r, s))
        det = p * s - q * r
        if det.sign() <= 0:
            raise ValueError("determinant must be positive")
        entries = (p, q, r, s)
        first = next(e for e in entries if not e.is_zero())
        # dividing by the first nonzero entry kills any real scalar, rational
        # or not; a positive rational then clears denominators
        entries = tuple(e / first for e in entries)
        coefs = [
            (abs(int(c.numerator)), int(c.denominator))
            for e in entries
            for c in (e.a, e.b, e.c, e.d)
        ]
        lcm = 1
        for _, den in coefs:
            lcm = lcm * den // math.gcd(lcm, den)
        gcd = 0
        for num, den in coefs:
            gcd = math.gcd(gcd, num * (lcm // den))
        scale = FieldElem((lcm, 1)) if gcd == 0 else FieldElem((lcm, gcd))
        self.p, self.q, self.r, self.s = (e * scale for e in entries)
        self._key = None

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(1, 0, 0, 1)

    def key(self):
        if self._key is None:
            parts = []
            for e in (self.p, self.q, self.r, self.s):
                for coef in (e.a, e.b, e.c, e.d):
                    parts.append(int(coef.numerator))
                    parts.append(int(coef.denominator))
            self._key = "m:" + ",".join(map(str, parts))
        return self._key

    def __eq__(self, other):
        if not isinstance(other, MobiusMap):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.s, -self.q, -self.r, self.p)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        if not isinstance(other, MobiusMap):
            raise ChartMismatch("cannot compose a matrix with a chart action")
        return MobiusMap(
            self.p * other.p + self.q * other.r,
            self.p * other.q + self.q * other.s,
            self.r * other.p + self.s * other.r,
            self.r * other.q + self.s * other.s,
        )

    @property
    def is_identity(self) -> bool:
        return self.q.is_zero() and self.r.is_zero() and self.p == self.s

    def apply(self, x: BoundaryPoint) -> BoundaryPoint:
        if x.chart != Chart.EXT_REAL:
            raise ChartMismatch("matrix acts on the ext_real chart")
        if x.is_infinity:
            if self.r.is_zero():
                return BoundaryPoint.ext_inf()
            return BoundaryPoint.ext_real(self.p / self.r)
        denom = self.r * x.x + self.s
        if denom.is_zero():
            return BoundaryPoint.ext_inf()
        return BoundaryPoint.ext_real((self.p * x.x + self.q) / denom)

    def trace_disc(self) -> FieldElem:
        """(p-s)^2 + 4qr, the discriminant tr^2 - 4 det of the fixed quadratic."""
        d = self.p - self.s
        return d * d + self.q * self.r * 4

    def element_type(self) -> ElementType:
        if self.is_identity:
            return ElementType.IDENTITY
        s = self.trace_disc().sign()
        if s < 0:
            return ElementType.ELLIPTIC
        if s == 0:
            return ElementType.PARABOLIC
        return ElementType.HYPERBOLIC

    def fixed_points(self):
        """(points, symbolic) with exact field points and SymbolicRoot markers."""
        if self.is_identity:
            raise ValueError("identity fixes everything")
        if self.r.is_zero():
            pts = [BoundaryPoint.ext_inf()]
            if self.p != self.s:
                pts.append(BoundaryPoint.ext_real(self.q / (self.s - self.p)))
            return pts, []
        a, b, c = self.r, self.s - self.p, -self.q
        disc = b * b - a * c * 4
        sgn = disc.sign()
        if sgn < 0:
            return [], []
        if sgn == 0:
            return [BoundaryPoint.ext_real(-b / (a * 2))], []
        root = disc.sqrt()
        if root is not None:
            lo = (-b - root) / (a * 2)
            hi = (-b + root) / (a * 2)
            return [BoundaryPoint.ext_real(lo), BoundaryPoint.ext_real(hi)], []
        return [], [SymbolicRoot.make(a, b, c, -1), SymbolicRoot.make(a, b, c, 1)]

    def to_json(self):
        return {"matrix": [e.encode() for e in (self.p, self.q, self.r, self.s)]}

    def to_float_matrix(self):
        entries = (self.p, self.q, self.r, self.s)
        # projective rescale so huge integer entries survive float conversion
        top = 0
        for e in entries:
            for c in (e.a, e.b, e.c, e.d):
                if c != 0:
                    top = max(top, int(c.numerator).bit_length() - int(c.denominator).bit_length())
        if top > 500:
            shrink = FieldElem((1, 2 ** (top - 100)))
            entries = tuple(e * shrink for e in entries)
        return tuple(float(e) for e in entries)

    def __repr__(self):
        return f"MobiusMap[{self.p!r},{self.q!r};{self.r!r},{self.s!r}]"


@dataclass(frozen=True)
class SymbolicRoot:
    """Root of a*x^2 + b*x + c = 0 (disc > 0, irrational over the field).

    ``branch`` +1 selects the larger root; comparisons against field points
    stay exact through quadratic sign evaluation.
    """

    a: FieldElem
    b: FieldElem
    c: FieldElem
    branch: int

    @staticmethod
    def make(a, b, c, branch) -> "SymbolicRoot":
        if a.sign() < 0:
            a, b, c = -a, -b, -c
        return SymbolicRoot(a, b, c, branch)

    def value_at(self, t: FieldElem) -> FieldElem:
        return self.a * t * t + self.b * t + self.c

    def equals_point(self, pt: BoundaryPoint) -> bool:
        if pt.chart != Chart.EXT_REAL or pt.is_infinity:
            return False
        t = pt.x
        if self.value_at(t).sign() != 0:
            return False
        return (self.a * t * 2 + self.b).sign() == self.branch

    def compare_point(self, pt: BoundaryPoint) -> int:
        """Sign of (root - pt) for a finite field point."""
        t = pt.x
        sf = self.value_at(t).sign()
        sv = (self.a * t * 2 + self.b).sign()
        if sf == 0:
            return 0 if sv == self.branch else self.branch
        if sf < 0:
            return self.branch
        return -sv

    def __float__(self):
        disc = float(self.b) ** 2 - 4 * float(self.a) * float(self.c)
        return (-float(self.b) + self.branch * math.sqrt(disc)) / (2 * float(self.a))

    def key(self):
        parts = [e.encode() for e in (self.a, self.b, self.c)]
        return "sym:" + ";".join(parts) + f";{self.branch}"

    def __repr__(self):
        return f"SymbolicRoot({self.a!r}x^2+{self.b!r}x+{self.c!r}, {'+' if self.branch>0 else '-'})"


class AngleShift:
    """Rigid rotation theta -> theta + delta (mod 1) of the disk_angle chart."""

    __slots__ = ("delta", "_key")

    chart = Chart.DISK_ANGLE

    def __init__(self, delta):
        d = as_field(delta)
        self.delta = d - d.floor()
        self._key = None

    def key(self):
        if self._key is None:
            self._key = "a:" + self.delta.encode()
        return self._key

    def __eq__(self, other):
        return isinstance(other, AngleShift) and self.delta == other.delta

    def __hash__(self):
        return hash(self.key())

    @property
    def is_identity(self) -> bool:
        return self.delta.is_zero()

    def inverse(self) -> "AngleShift":
        return AngleShift(-self.delta)

    def compose(self, other: "AngleShift") -> "AngleShift":
        if not isinstance(other, AngleShift):
            raise ChartMismatch("angle shifts compose only with angle shifts")
        return AngleShift(self.delta + other.delta)

    def apply(self, x: BoundaryPoint) -> BoundaryPoint:
        if x.chart != Chart.DISK_ANGLE:
            raise ChartMismatch("angle shift acts on the disk_angle chart")
        return BoundaryPoint.disk_angle(x.x + self.delta)

    def element_type(self) -> ElementType:
        return ElementType.IDENTITY if self.is_identity else ElementType.ELLIPTIC

    def fixed_points(self):
        if self.is_identity:
            raise ValueError("identity fixes everything")
        return [], []

    def to_json(self):
        return {"action": "angle_shift", "delta": self.delta.encode()}

    def __repr__(self):
        return f"AngleShift({self.delta!r})"


class ExpAffine:
    """Exact signed_exp action: (s,t) -> (s, t+tau) or (-s, tau-t).

    The two forms are the orientation-preserving affine boundary actions on
    the exponent coordinate; ``flip`` swaps the rays and the symbols 0, inf.
    """

    __slots__ = ("flip", "tau", "_key")

    chart = Chart.SIGNED_EXP

    def __init__(self, flip: bool, tau):
        self.flip = bool(flip)
        self.tau = as_field(tau)
        self._key = None

    def key(self):
        if self._key is None:
            self._key = f"e:{int(self.flip)}:" + self.tau.encode()
        return self._key

    def __eq__(self, other):
        return isinstance(other, ExpAffine) and self.flip == other.flip and self.tau == other.tau

    def __hash__(self):
        return hash(self.key())

    @property
    def is_identity(self) -> bool:
        return not self.flip and self.tau.is_zero()

    def inverse(self) -> "ExpAffine":
        return self if self.flip else ExpAffine(False, -self.tau)

    def compose(self, other: "ExpAffine") -> "ExpAffine":
        if not isinstance(other, ExpAffine):
            raise ChartMismatch("exp actions compose only with exp actions")
        tau = (-other.tau if self.flip else other.tau) + self.tau
        return ExpAffine(self.flip != other.flip, tau)

    def apply(self, x: BoundaryPoint) -> BoundaryPoint:
        if x.chart != Chart.SIGNED_EXP:
            raise ChartMismatch("exp action acts on the signed_exp chart")
        if x.x is None:  # a limit symbol
            zero = x.kind == 2
            if self.flip:
                zero = not zero
            return BoundaryPoint.exp_zero() if zero else BoundaryPoint.exp_inf()
        if self.flip:
            return BoundaryPoint.signed_exp(-x.ray, self.tau - x.x)
        return BoundaryPoint.signed_exp(x.ray, x.x + self.tau)

    def element_type(self) -> ElementType:
        if self.is_identity:
            return ElementType.IDENTITY
        if self.flip:
            return ElementType.ELLIPTIC
        return ElementType.HYPERBOLIC

    def fixed_points(self):
        if self.is_identity:
            raise ValueError("identity fixes everything")
        if self.flip:
            return [], []
        return [BoundaryPoint.exp_zero(), BoundaryPoint.exp_inf()], []

    def to_json(self):
        return {"action": "exp_affine", "flip": self.flip, "tau": self.tau.encode()}

    def __repr__(self):
        return f"ExpAffine(flip={self.flip}, tau={self.tau!r})"


def identity_like(g):
    if isinstance(g, MobiusMap):
        return MobiusMap.identity()
    if isinstance(g, AngleShift):
        return AngleShift(0)
    if isinstance(g, ExpAffine):
        return ExpAffine(False, 0)
    raise TypeError(f"not a group element: {g!r}")


def map_from_json(data):
    if "matrix" in data:
        return MobiusMap(*[FieldElem.parse(e) for e in data["matrix"]])
    action = data.get("action")
    if action == "angle_shift":
        return AngleShift(FieldElem.parse(data["delta"]))
    if action == "exp_affine":
        return ExpAffine(bool(data["flip"]), FieldElem.parse(data["tau"]))
    raise ValueError(f"unknown map encoding: {data!r}")


def ball_enumerate(generators, radius: int):
    """All distinct products of at most ``radius`` generators and inverses.

    Deduplication is by projective canonical form; the result is ordered by
    word length, then canonical key, so runs are deterministic.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    gens = list(generators)
    if not gens:
        return [MobiusMap.identity()]
    ident = identity_like(gens[0])
    step = []
    for g in gens:
        step.append(g)
        step.append(g.inverse())
    seen = {ident.key(): ident}
    order = [ident]
    frontier = [ident]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for h in step:
                gh = g.compose(h)
                k = gh.key()
                if k not in seen:
                    seen[k] = gh
                    nxt.append(gh)
        nxt.sort(key=lambda e: e.key())
        order.extend(nxt)
        frontier = nxt
    return order


def classify(g) -> ElementType:
    return g.element_type()


element_type = classify


def fixed_points(g):
    return g.fixed_points()


def apply_to_chord(g, chord):
    return Chord(g.apply(chord.lo), g.apply(chord.hi))


def apply_to_interval(g, interval):
    return Interval(g.apply(interval.start), g.apply(interval.end))
