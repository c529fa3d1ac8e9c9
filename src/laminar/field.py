"""Exact arithmetic in the real field Q(sqrt2, sqrt3).

An element a + b*sqrt2 + c*sqrt3 + d*sqrt6 is stored as four integer
numerators over one positive common denominator, with the gcd of all five
equal to 1.  That form is canonical, so equality is field equality and the
ring operations are integer products followed by a single gcd; rational
operands take shorter paths.  Sign determination uses a guarded
floating-point evaluation first (a static filter in the sense of Shewchuk,
"Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
Predicates", 1997) and falls back to an exact algebraic procedure (split off
the sqrt3 part and compare squares inside Q(sqrt2)), so comparisons are
always exact.  Square roots go down the tower Q < Q(sqrt2) < Q(sqrt2, sqrt3)
one step at a time, on integer numerators.  ``fractions.Fraction`` (``_Q``)
appears only at the edges: constructor arguments, the coefficients ``a``-``d``
and the hash of a rational element.
"""

from __future__ import annotations

import math
import re

from fractions import Fraction as _Q

_SQRT2_F = math.sqrt(2.0)
_SQRT3_F = math.sqrt(3.0)
_SQRT6_F = math.sqrt(6.0)

# 40-digit enclosures of sqrt2, sqrt3, sqrt6 as numerators over 10^40
_SCALE = 10**40
_S2_LO = 14142135623730950488016887242096980785696
_S3_LO = 17320508075688772935274463415058723669428
_S6_LO = 24494897427831780981972840747058913919659
_S2_HI, _S3_HI, _S6_HI = _S2_LO + 10, _S3_LO + 10, _S6_LO + 10

_gcd = math.gcd
_new = object.__new__


def _rat(x) -> _Q:
    if isinstance(x, _Q):
        return x
    if isinstance(x, (int, str)):
        return _Q(x)
    if isinstance(x, tuple):
        return _Q(*x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _sgn(q) -> int:
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


def _sign_sqrt2(m, n) -> int:
    # sign of m + n*sqrt2 with m, n integers
    if n == 0:
        return _sgn(m)
    if m == 0:
        return _sgn(n)
    sm, sn = _sgn(m), _sgn(n)
    if sm == sn:
        return sm
    return sm * _sgn(m * m - 2 * n * n)


def _sign4(a, b, c, d) -> int:
    """Exact sign of a + b*sqrt2 + c*sqrt3 + d*sqrt6 for integers a, b, c, d."""
    if not (b or c or d):
        return (a > 0) - (a < 0)
    # guarded float evaluation: absolute rounding error is below mag*9e-16,
    # so a comfortable 1e-13 threshold can never give a wrong sign
    try:
        fa, fb, fc, fd = float(a), float(b), float(c), float(d)
    except OverflowError:
        pass
    else:
        val = fa + fb * _SQRT2_F + fc * _SQRT3_F + fd * _SQRT6_F
        mag = abs(fa) + abs(fb) * _SQRT2_F + abs(fc) * _SQRT3_F + abs(fd) * _SQRT6_F
        if not math.isinf(mag) and abs(val) > mag * 1e-13:
            return 1 if val > 0 else -1
    # exact fallback: write x = P + Q*sqrt3 with P, Q in Q(sqrt2)
    sp = _sign_sqrt2(a, b)
    sq = _sign_sqrt2(c, d)
    if sq == 0:
        return sp
    if sp == 0 or sp == sq:
        return sq
    # opposite signs: compare P^2 against 3*Q^2 inside Q(sqrt2)
    return sp * _sign_sqrt2(a * a + 2 * b * b - 3 * (c * c + 2 * d * d), 2 * (a * b - 3 * c * d))


def _make(a, b, c, d, den) -> "FieldElem":
    """The element (a + b*sqrt2 + c*sqrt3 + d*sqrt6) / den for integers, den != 0."""
    if den < 0:
        a, b, c, d, den = -a, -b, -c, -d, -den
    g = _gcd(a, b, c, d, den)
    if g != 1:
        a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    return _raw(a, b, c, d, den)


def _raw(a, b, c, d, den) -> "FieldElem":
    """Wrap numerators already in canonical form (den > 0, gcd 1)."""
    x = _new(FieldElem)
    x._a, x._b, x._c, x._d, x._den = a, b, c, d, den
    return x


def _product(a1, b1, c1, d1, a2, b2, c2, d2, den) -> "FieldElem":
    if not (b2 or c2 or d2):
        return _make(a1 * a2, b1 * a2, c1 * a2, d1 * a2, den)
    if not (b1 or c1 or d1):
        return _make(a1 * a2, a1 * b2, a1 * c2, a1 * d2, den)
    return _make(
        a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
        a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
        a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        den,
    )


def _inverse_parts(a, b, c, d):
    """(n0, n1, n2, n3, z) with 1/(a + b√2 + c√3 + d√6) = (n0 + n1√2 + n2√3 + n3√6)/z.

    Two Galois norms: with x' the conjugate sending sqrt2 to -sqrt2 and y' the
    one sending sqrt3 to -sqrt3, y = x * x' lies in Q(sqrt3), z = y * y' in Q,
    and the numerator is x' * y'.
    """
    y0 = a * a - 2 * b * b + 3 * c * c - 6 * d * d
    y2 = 2 * (a * c - 2 * b * d)
    return (
        a * y0 - 3 * c * y2,
        3 * d * y2 - b * y0,
        c * y0 - a * y2,
        b * y2 - d * y0,
        y0 * y0 - 3 * y2 * y2,
    )


class FieldElem:
    """Immutable element a + b*sqrt2 + c*sqrt3 + d*sqrt6 of Q(sqrt2, sqrt3)."""

    __slots__ = ("_a", "_b", "_c", "_d", "_den")

    def __init__(self, a=0, b=0, c=0, d=0):
        coefs = [_rat(q) for q in (a, b, c, d)]
        den = math.lcm(*(q.denominator for q in coefs))
        nums = [q.numerator * (den // q.denominator) for q in coefs]
        # per-coefficient lowest terms over their lcm is already canonical
        self._a, self._b, self._c, self._d = nums
        self._den = den

    # -- exact rational coefficients --------------------------------------

    @property
    def a(self) -> _Q:
        return _Q(self._a, self._den)

    @property
    def b(self) -> _Q:
        return _Q(self._b, self._den)

    @property
    def c(self) -> _Q:
        return _Q(self._c, self._den)

    @property
    def d(self) -> _Q:
        return _Q(self._d, self._den)

    # -- ring structure -------------------------------------------------

    def __add__(self, other) -> "FieldElem":
        if type(other) is int:
            # adding an integer keeps the gcd of the numerators and den at 1
            return _raw(self._a + other * self._den, self._b, self._c, self._d, self._den)
        o = as_field(other)
        d1, d2 = self._den, o._den
        if d1 == d2:
            return _make(self._a + o._a, self._b + o._b, self._c + o._c, self._d + o._d, d1)
        return _make(
            self._a * d2 + o._a * d1,
            self._b * d2 + o._b * d1,
            self._c * d2 + o._c * d1,
            self._d * d2 + o._d * d1,
            d1 * d2,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElem":
        if type(other) is int:
            return _raw(self._a - other * self._den, self._b, self._c, self._d, self._den)
        o = as_field(other)
        d1, d2 = self._den, o._den
        if d1 == d2:
            return _make(self._a - o._a, self._b - o._b, self._c - o._c, self._d - o._d, d1)
        return _make(
            self._a * d2 - o._a * d1,
            self._b * d2 - o._b * d1,
            self._c * d2 - o._c * d1,
            self._d * d2 - o._d * d1,
            d1 * d2,
        )

    def __rsub__(self, other) -> "FieldElem":
        return as_field(other) - self

    def __neg__(self) -> "FieldElem":
        return _raw(-self._a, -self._b, -self._c, -self._d, self._den)

    def __mul__(self, other) -> "FieldElem":
        if type(other) is int:
            return _make(self._a * other, self._b * other, self._c * other, self._d * other, self._den)
        o = as_field(other)
        return _product(
            self._a, self._b, self._c, self._d, o._a, o._b, o._c, o._d, self._den * o._den
        )

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        a, b, c, d, den = self._a, self._b, self._c, self._d, self._den
        if not (b or c or d):
            if not a:
                raise ZeroDivisionError("inverse of zero field element")
            return _make(den, 0, 0, 0, a)
        n0, n1, n2, n3, z = _inverse_parts(a, b, c, d)
        return _make(n0 * den, n1 * den, n2 * den, n3 * den, z)

    def __truediv__(self, other) -> "FieldElem":
        if type(other) is int:
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return _make(self._a, self._b, self._c, self._d, self._den * other)
        o = as_field(other)
        a2, b2, c2, d2, den2 = o._a, o._b, o._c, o._d, o._den
        if not (b2 or c2 or d2):
            if a2 == 0:
                raise ZeroDivisionError("division by zero")
            return _make(self._a * den2, self._b * den2, self._c * den2, self._d * den2, self._den * a2)
        n0, n1, n2, n3, z = _inverse_parts(a2, b2, c2, d2)
        return _product(
            self._a, self._b, self._c, self._d, n0 * den2, n1 * den2, n2 * den2, n3 * den2, self._den * z
        )

    def __rtruediv__(self, other) -> "FieldElem":
        return as_field(other) / self

    # -- order structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._a or self._b or self._c or self._d)

    def is_rational(self) -> bool:
        return not (self._b or self._c or self._d)

    def rational(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.a

    def sign(self) -> int:
        """Exact sign of the real embedding (sqrt2 = 1.414..., sqrt3 = 1.732...)."""
        return _sign4(self._a, self._b, self._c, self._d)

    def _cmp(self, other) -> int:
        """Sign of self - other, without building the difference."""
        if type(other) is int:
            return _sign4(self._a - other * self._den, self._b, self._c, self._d)
        o = as_field(other)
        d1, d2 = self._den, o._den
        if d1 == d2:
            return _sign4(self._a - o._a, self._b - o._b, self._c - o._c, self._d - o._d)
        return _sign4(
            self._a * d2 - o._a * d1,
            self._b * d2 - o._b * d1,
            self._c * d2 - o._c * d1,
            self._d * d2 - o._d * d1,
        )

    def __eq__(self, other) -> bool:
        if type(other) is not FieldElem:
            if not (isinstance(other, (int, FieldElem)) or hasattr(other, "denominator")):
                return NotImplemented
            other = as_field(other)
        return (
            self._a == other._a
            and self._den == other._den
            and self._b == other._b
            and self._c == other._c
            and self._d == other._d
        )

    def __hash__(self):
        # a rational element hashes like the int or Fraction it equals
        if not (self._b or self._c or self._d):
            return hash(_Q(self._a, self._den))
        return hash((self._a, self._b, self._c, self._d, self._den))

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    # -- embeddings and integer parts ------------------------------------

    def __float__(self) -> float:
        # int / int is correctly rounded, exactly as float() of each coefficient
        den = self._den
        return self._a / den + self._b / den * _SQRT2_F + self._c / den * _SQRT3_F + self._d / den * _SQRT6_F

    def floor(self) -> int:
        a, b, c, d, den = self._a, self._b, self._c, self._d, self._den
        if not (b or c or d):
            return a // den
        lo = a * _SCALE
        lo += b * (_S2_LO if b >= 0 else _S2_HI)
        lo += c * (_S3_LO if c >= 0 else _S3_HI)
        lo += d * (_S6_LO if d >= 0 else _S6_HI)
        n = lo // (den * _SCALE)
        while _sign4(a - (n + 1) * den, b, c, d) >= 0:
            n += 1
        while _sign4(a - n * den, b, c, d) < 0:
            n -= 1
        return n

    def sqrt(self) -> "FieldElem | None":
        """Exact square root inside the field, or None if there is none."""
        root = _sqrt_in(self, 2)
        return -root if root is not None and root.sign() < 0 else root

    # -- encoding ---------------------------------------------------------

    def encode(self) -> str:
        """Each coefficient as "<num>/<den>" in lowest terms, comma separated."""
        den = self._den
        parts = []
        for n in (self._a, self._b, self._c, self._d):
            g = _gcd(n, den)
            parts.append(f"{n // g}/{den // g}")
        return ",".join(parts)

    @classmethod
    def parse(cls, s: str) -> "FieldElem":
        """Inverse of ``encode``; any other spelling of a value is rejected.

        One pattern match admits exactly the shape ``encode`` writes: four
        comma-separated fractions of ASCII digits, a zero numerator unsigned
        and alone, no leading zeros, a positive denominator.  The gcd tests
        then admit lowest terms only, which puts zero at "0/1".
        """
        m = _ENCODING.fullmatch(s)
        if m is not None:
            a, p, b, q, c, r, d, t = map(int, m.groups())
            if _gcd(a, p) == 1 and _gcd(b, q) == 1 and _gcd(c, r) == 1 and _gcd(d, t) == 1:
                # per-coefficient lowest terms over their lcm is already canonical
                den = math.lcm(p, q, r, t)
                return _raw(a * (den // p), b * (den // q), c * (den // r), d * (den // t), den)
        raise ValueError(_misspelling(s))

    def __repr__(self) -> str:
        terms = []
        for coef, sym in ((self.a, ""), (self.b, "√2"), (self.c, "√3"), (self.d, "√6")):
            if coef != 0:
                terms.append(f"{coef}{sym}" if sym else f"{coef}")
        return "FieldElem(0)" if not terms else "FieldElem(" + " + ".join(terms) + ")"


_FRACTION = "(0|-?[1-9][0-9]*)/([1-9][0-9]*)"
_ENCODING = re.compile(",".join([_FRACTION] * 4))
_FRACTION_RE = re.compile(_FRACTION)


def _misspelling(s: str) -> str:
    """Why ``FieldElem.parse`` refuses ``s``: its first part that is not a
    fraction in lowest terms, or the count of its parts."""
    parts = s.split(",")
    if len(parts) == 4:
        for part in parts:
            m = _FRACTION_RE.fullmatch(part)
            if m is None or _gcd(int(m[1]), int(m[2])) != 1:
                return f"{part!r} is not a fraction in lowest terms in {s!r}"
    return f"bad field element encoding: {s!r}"


def as_field(x) -> FieldElem:
    if isinstance(x, FieldElem):
        return x
    if type(x) is int:
        return _raw(x, 0, 0, 0, 1)
    return FieldElem(_rat(x))


ONE = FieldElem(1)
SQRT2 = FieldElem(0, 1)
SQRT3 = FieldElem(0, 0, 1)
SQRT6 = FieldElem(0, 0, 0, 1)


# -- exact square roots ----------------------------------------------------


def _sqrt_in(x: FieldElem, level: int) -> FieldElem | None:
    """A square root of x in level 0 (Q), 1 (Q(sqrt2)) or 2 (Q(sqrt2, sqrt3))
    of the tower, for x in that level, or None where there is none.

    At level 0 the canonical numerator and denominator are coprime, so both
    must be squares.  Above it, with r^2 = n the root adjoined at this level,
    write x = P + Q*r and y = S + T*r with P, Q, S, T one level down: y^2 = x
    exactly when S^2 + n*T^2 = P and 2*S*T = Q.  So S^2 - n*T^2 is a root of
    P^2 - n*Q^2 and S^2 = (P +- that root)/2; then T = Q/(2S), or, where
    S = 0 (and so Q = 0), a root of P/n.
    """
    a, b, c, d, den = x._a, x._b, x._c, x._d, x._den
    if level == 0:
        ra, rd = math.isqrt(max(a, 0)), math.isqrt(den)  # a < 0 fails ra * ra == a
        return _raw(ra, 0, 0, 0, rd) if ra * ra == a and rd * rd == den else None
    if level == 1:
        p, q, r, n = _make(a, 0, 0, 0, den), _make(b, 0, 0, 0, den), SQRT2, 2
    else:
        p, q, r, n = _make(a, b, 0, 0, den), _make(c, d, 0, 0, den), SQRT3, 3
    disc = _sqrt_in(p * p - q * q * n, level - 1)
    if disc is None:
        return None
    for u in (p + disc, p - disc):
        s = _sqrt_in(u / 2, level - 1)
        if s is None:
            continue
        t = q / (s * 2) if not s.is_zero() else _sqrt_in(p / n, level - 1)
        if t is not None:
            return s + t * r
    return None
