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
from .errors import ChartMismatch, InvalidMap
from .field import FieldElem, _raw, as_field
from .lamination import Chord


class ElementType(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class _Action:
    """A boundary action identified by its canonical key: two actions are
    equal exactly when their keys are, and hash as their keys do.  Each
    subclass gives the key as ``_encode()``, prefixed by its kind."""

    __slots__ = ("_key",)

    def key(self) -> str:
        try:
            return self._key
        except AttributeError:
            self._key = self._encode()
            return self._key

    def __eq__(self, other):
        if not isinstance(other, _Action):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class MobiusMap(_Action):
    """Projectivized 2x2 map x -> (px+q)/(rx+s) with det > 0, acting on ext_real."""

    __slots__ = ("p", "q", "r", "s")

    chart = Chart.EXT_REAL

    def __init__(self, p, q, r, s):
        p, q, r, s = (as_field(v) for v in (p, q, r, s))
        det = p * s - q * r
        if det.sign() <= 0:
            raise InvalidMap("determinant must be positive")
        entries = (p, q, r, s)
        first = next(e for e in entries if not e.is_zero())
        # dividing by the first nonzero entry kills any real scalar, rational
        # or not; each entry is then (n0..n3)/den in lowest terms, so the lcm
        # of the dens clears every coefficient's denominator
        entries = tuple(e / first for e in entries)
        lcm = math.lcm(*(e._den for e in entries))
        nums = [n * (lcm // e._den) for e in entries for n in (e._a, e._b, e._c, e._d)]
        g = math.gcd(*nums)
        self.p, self.q, self.r, self.s = (_raw(*(n // g for n in nums[i : i + 4]), 1) for i in (0, 4, 8, 12))

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(1, 0, 0, 1)

    def _encode(self) -> str:
        # every canonical coefficient is an integer, written "<n>,1"
        return "m:" + ",".join(f"{e._a},1,{e._b},1,{e._c},1,{e._d},1" for e in (self.p, self.q, self.r, self.s))

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
        top = max(n.bit_length() for e in entries for n in (e._a, e._b, e._c, e._d)) - 1
        if top > 500:
            entries = tuple(e / 2 ** (top - 100) for e in entries)
        return tuple(float(e) for e in entries)

    def __repr__(self):
        return f"MobiusMap[{self.p!r},{self.q!r};{self.r!r},{self.s!r}]"


@dataclass(frozen=True)
class SymbolicRoot:
    """Root of a*x^2 + b*x + c = 0 (disc > 0, irrational over the field).

    ``branch`` +1 selects the larger root.  The root is carried exactly by
    its quadratic but is only evaluated as a float.
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

    def __float__(self):
        disc = float(self.b) ** 2 - 4 * float(self.a) * float(self.c)
        return (-float(self.b) + self.branch * math.sqrt(disc)) / (2 * float(self.a))

    def __repr__(self):
        return f"SymbolicRoot({self.a!r}x^2+{self.b!r}x+{self.c!r}, {'+' if self.branch>0 else '-'})"


class AngleShift(_Action):
    """Rigid rotation theta -> theta + delta (mod 1) of the disk_angle chart."""

    __slots__ = ("delta",)

    chart = Chart.DISK_ANGLE

    def __init__(self, delta):
        d = as_field(delta)
        self.delta = d - d.floor()

    def _encode(self) -> str:
        return "a:" + self.delta.encode()

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

    def to_float_matrix(self):
        # rotation by pi*delta of w = -cot(pi*theta)
        a = math.pi * float(self.delta)
        c, s = math.cos(a), math.sin(a)
        return (c, s, -s, c)

    def __repr__(self):
        return f"AngleShift({self.delta!r})"


class ExpAffine(_Action):
    """Exact signed_exp action: (s,t) -> (s, t+tau) or (-s, tau-t).

    The two forms are the orientation-preserving affine boundary actions on
    the exponent coordinate; ``flip`` swaps the rays and the symbols 0, inf.
    """

    __slots__ = ("flip", "tau")

    chart = Chart.SIGNED_EXP

    def __init__(self, flip: bool, tau):
        self.flip = bool(flip)
        self.tau = as_field(tau)

    def _encode(self) -> str:
        return f"e:{int(self.flip)}:" + self.tau.encode()

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

    def to_float_matrix(self):
        # w = ray * e^t goes to e^tau * w, or to -e^tau / w with the flip
        h = float(self.tau) / 2
        e, f = math.exp(h), math.exp(-h)
        return (0.0, -e, f, 0.0) if self.flip else (e, 0.0, 0.0, f)

    def __repr__(self):
        return f"ExpAffine(flip={self.flip}, tau={self.tau!r})"


def map_from_json(data):
    if "matrix" in data:
        return MobiusMap(*[FieldElem.parse(e) for e in data["matrix"]])
    action = data.get("action")
    if action == "angle_shift":
        return AngleShift(FieldElem.parse(data["delta"]))
    if action == "exp_affine":
        if type(data["flip"]) is not bool:
            raise ValueError(f"flip must be a boolean, not {data['flip']!r}")
        return ExpAffine(data["flip"], FieldElem.parse(data["tau"]))
    raise ValueError(f"unknown map encoding: {data!r}")


def ball_enumerate(generators, radius: int):
    """All distinct products of at most ``radius`` generators and inverses.

    Deduplication is by projective canonical form; the result is ordered by
    word length, then canonical key, so runs are deterministic.  Letters equal
    as maps (an involution and its inverse, a generator listed twice) count
    once, and a word never ends in a letter followed by its inverse.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    gens = list(generators)
    if not gens:
        return [MobiusMap.identity()]
    ident = gens[0].compose(gens[0].inverse())
    letters = {}  # key -> (letter, key of its inverse)
    for g in gens:
        inv = g.inverse()
        letters.setdefault(g.key(), (g, inv.key()))
        letters.setdefault(inv.key(), (inv, g.key()))
    seen = {ident.key(): ident}
    order = [ident]
    frontier = [(ident, None)]  # (element, key of the inverse of its last letter)
    for _ in range(radius):
        found = {}
        for g, back in frontier:
            for k, (h, inv_k) in letters.items():
                if k == back:  # g * h is the shorter word, already seen
                    continue
                gh = g.compose(h)
                gk = gh.key()
                if gk not in seen:
                    seen[gk] = gh
                    found[gk] = (gh, inv_k)
        frontier = [found[k] for k in sorted(found)]
        order.extend(g for g, _ in frontier)
    return order


def apply_to_chord(g, chord, points: dict | None = None):
    """The image of ``chord`` under ``g``.

    ``points``, if given, memoizes ``g`` on boundary points across calls, so
    chords sharing an endpoint map it once; keep one dict per ``g``.
    """
    if points is None:
        points = {}
    lo = points.get(chord.lo)
    if lo is None:
        lo = points[chord.lo] = g.apply(chord.lo)
    hi = points.get(chord.hi)
    if hi is None:
        hi = points[chord.hi] = g.apply(chord.hi)
    return Chord(lo, hi)
