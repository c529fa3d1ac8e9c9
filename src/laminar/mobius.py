"""Boundary actions: Mobius matrices on the extended real line and the exact
affine actions used in the angle and exponent charts.

Matrices are kept in projective canonical form: scale so the first nonzero
entry is a positive rational and the sixteen rational coefficients are coprime
integers.  A map stores these 16 canonical integer numerators, and compose,
inverse and element type run on them with integer arithmetic only, at the
cost of their subfield: products whose factors all lie in Q(sqrt3), or all in
Q(sqrt2), skip the coefficient products that are zero.  Only the constructor
tests det > 0; a product or inverse of such maps has det > 0, and canonical
scaling multiplies the determinant by a square.  The entries as field
elements, for the action on points, are built on first use: most maps of a
word ball are only classified and keyed.  Fixed points outside Q(sqrt2, sqrt3)
are carried symbolically by their exact defining quadratic and branch sign.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .circle import BoundaryPoint, Chart
from .errors import ChartMismatch, InvalidMap
from .field import FieldElem, _inverse_parts, _make, _new, _raw, _sign4, as_field
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


_ZERO = (0, 0, 0, 0)
_IDENTITY = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)
# every canonical coefficient is an integer, written "<n>,1"
_KEY = "m:" + ",".join(["{},1"] * 16)


def _mul_add(x, y, u=_ZERO, v=_ZERO, k=1):
    """x*y + k*u*v for field elements given as 4-int numerator tuples.

    When all four factors lie in Q(sqrt3), or all in Q(sqrt2), only the
    coefficient products that can be nonzero are taken."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    a3, b3, c3, d3 = u
    a4, b4, c4, d4 = v
    if k != 1:
        a3, b3, c3, d3 = k * a3, k * b3, k * c3, k * d3
    if not (b1 or b2 or b3 or b4 or d1 or d2 or d3 or d4):
        return (a1 * a2 + 3 * c1 * c2 + a3 * a4 + 3 * c3 * c4, 0, a1 * c2 + c1 * a2 + a3 * c4 + c3 * a4, 0)
    if not (c1 or c2 or c3 or c4 or d1 or d2 or d3 or d4):
        return (a1 * a2 + 2 * b1 * b2 + a3 * a4 + 2 * b3 * b4, a1 * b2 + b1 * a2 + a3 * b4 + b3 * a4, 0, 0)
    return (
        a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2 + a3 * a4 + 2 * b3 * b4 + 3 * c3 * c4 + 6 * d3 * d4,
        a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2) + a3 * b4 + b3 * a4 + 3 * (c3 * d4 + d3 * c4),
        a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2) + a3 * c4 + c3 * a4 + 2 * (b3 * d4 + d3 * b4),
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2 + a3 * d4 + d3 * a4 + b3 * c4 + c3 * b4,
    )


def _canonical(n) -> tuple:
    """The canonical form of 16 integer numerators (a, b, c, d of p, q, r, s),
    not all zero: coprime, and the first nonzero one of p, q, r, s a positive
    integer."""
    i = next(i for i in (0, 4, 8, 12) if n[i] or n[i + 1] or n[i + 2] or n[i + 3])
    a, b, c, d = n[i : i + 4]
    if b or c or d:
        # times its conjugate product, the first nonzero entry becomes its
        # norm z, an integer; the other entries stay integral
        *conj, z = _inverse_parts(a, b, c, d)
        n = (*_mul_add(n[0:4], conj), *_mul_add(n[4:8], conj), *_mul_add(n[8:12], conj), *_mul_add(n[12:16], conj))
        a = z
    g = math.gcd(*n)
    if a < 0:
        g = -g
    if g != 1:
        n = tuple(x // g for x in n)
    return tuple(n)


class MobiusMap(_Action):
    """Projectivized 2x2 map x -> (px+q)/(rx+s) with det > 0, acting on ext_real.

    ``_n`` holds the 16 canonical integer numerators.  ``p``, ``q``, ``r``,
    ``s`` are the same entries as field elements, built on first use and kept
    in ``_e``: a map in a word ball is often only classified and keyed.

    Only ``__init__`` tests the determinant.  A product or inverse of maps
    with det > 0 has det > 0, and canonical scaling multiplies the
    determinant by a square (the conjugate product squared, and 1/g^2), so
    ``compose`` and ``inverse`` build their result without a test.
    """

    __slots__ = ("_n", "_e")

    chart = Chart.EXT_REAL

    def __init__(self, p, q, r, s):
        p, q, r, s = (as_field(v) for v in (p, q, r, s))
        det = p * s - q * r
        if det.sign() <= 0:
            raise InvalidMap("determinant must be positive")
        entries = (p, q, r, s)
        lcm = math.lcm(*(e._den for e in entries))
        self._n = _canonical([n * (lcm // e._den) for e in entries for n in (e._a, e._b, e._c, e._d)])

    def _entries(self) -> tuple:
        """(p, q, r, s) as field elements; threads that race here store equal tuples."""
        try:
            return self._e
        except AttributeError:
            n = self._n
            self._e = e = tuple(_raw(n[i], n[i + 1], n[i + 2], n[i + 3], 1) for i in (0, 4, 8, 12))
            return e

    p = property(lambda self: self._entries()[0])
    q = property(lambda self: self._entries()[1])
    r = property(lambda self: self._entries()[2])
    s = property(lambda self: self._entries()[3])

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(1, 0, 0, 1)

    def _encode(self) -> str:
        return _KEY.format(*self._n)

    def inverse(self) -> "MobiusMap":
        n = self._n
        g = _new(MobiusMap)
        g._n = _canonical((*n[12:16], *(-x for x in n[4:12]), *n[0:4]))
        return g

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        if not isinstance(other, MobiusMap):
            raise ChartMismatch("cannot compose a matrix with a chart action")
        m, n = self._n, other._n
        p1, q1, r1, s1 = m[0:4], m[4:8], m[8:12], m[12:16]
        p2, q2, r2, s2 = n[0:4], n[4:8], n[8:12], n[12:16]
        g = _new(MobiusMap)
        g._n = _canonical(
            (
                *_mul_add(p1, p2, q1, r2),
                *_mul_add(p1, q2, q1, s2),
                *_mul_add(r1, p2, s1, r2),
                *_mul_add(r1, q2, s1, s2),
            )
        )
        return g

    @property
    def is_identity(self) -> bool:
        return self._n == _IDENTITY

    def apply(self, x: BoundaryPoint) -> BoundaryPoint:
        if x.chart != Chart.EXT_REAL:
            raise ChartMismatch("matrix acts on the ext_real chart")
        try:
            p, q, r, s = self._e
        except AttributeError:
            p, q, r, s = self._entries()
        if x.is_infinity:
            if r.is_zero():
                return BoundaryPoint.ext_inf()
            return BoundaryPoint.ext_real(p / r)
        denom = r * x.x + s
        if denom.is_zero():
            return BoundaryPoint.ext_inf()
        return BoundaryPoint.ext_real((p * x.x + q) / denom)

    def element_type(self) -> ElementType:
        n = self._n
        if n == _IDENTITY:
            return ElementType.IDENTITY
        # (p-s)^2 + 4qr, the discriminant tr^2 - 4 det of the fixed quadratic
        d = (n[0] - n[12], n[1] - n[13], n[2] - n[14], n[3] - n[15])
        s = _sign4(*_mul_add(d, d, n[4:8], n[8:12], 4))
        if s < 0:
            return ElementType.ELLIPTIC
        if s == 0:
            return ElementType.PARABOLIC
        return ElementType.HYPERBOLIC

    def fixed_points(self):
        """(points, symbolic) with exact field points and SymbolicRoot markers."""
        if self.is_identity:
            raise ValueError("identity fixes everything")
        p, q, r, s = self._entries()
        if r.is_zero():
            pts = [BoundaryPoint.ext_inf()]
            if p != s:
                pts.append(BoundaryPoint.ext_real(q / (s - p)))
            return pts, []
        a, b, c = r, s - p, -q
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
        return {"matrix": [e.encode() for e in self._entries()]}

    def to_float_matrix(self):
        n = self._n
        # projective rescale so huge integer entries survive float conversion
        top = max(x.bit_length() for x in n) - 1
        den = 2 ** (top - 100) if top > 500 else 1
        return tuple(float(_make(n[i], n[i + 1], n[i + 2], n[i + 3], den)) for i in (0, 4, 8, 12))

    def __repr__(self):
        p, q, r, s = self._entries()
        return f"MobiusMap[{p!r},{q!r};{r!r},{s!r}]"


class SymbolicRoot(namedtuple("SymbolicRoot", "a b c branch")):
    """Root of a*x^2 + b*x + c = 0 (disc > 0, irrational over the field).

    ``a``, ``b``, ``c`` are field elements; ``branch`` +1 selects the larger
    root.  The root is carried exactly by its quadratic but is only evaluated
    as a float.
    """

    __slots__ = ()

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
        if x.x is None:  # a limit symbol; the flip swaps e:0 and e:inf
            zero = (x is BoundaryPoint.exp_zero()) != self.flip
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
