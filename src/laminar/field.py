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
always exact.  The coefficients ``a``, ``b``, ``c``, ``d`` are exposed as
exact rationals of type ``_Q``.
"""

from __future__ import annotations

import math
import sys

try:
    from gmpy2 import mpq as _Q  # noqa: F401  (much faster than Fraction)
except ImportError:  # pragma: no cover - exercised only without gmpy2
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
_HASH_P = sys.hash_info.modulus


def _rat(x) -> _Q:
    if isinstance(x, _Q):
        return x
    if isinstance(x, (int, str)):
        return _Q(x)
    if isinstance(x, tuple):
        return _Q(*x)
    # fractions.Fraction when gmpy2 is active, and vice versa
    num = getattr(x, "numerator", None)
    den = getattr(x, "denominator", None)
    if num is not None and den is not None:
        return _Q(int(num), int(den))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _sgn(q) -> int:
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


def _sign_sqrt2(m, n) -> int:
    # sign of m + n*sqrt2 with m, n rational
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
    x._a, x._b, x._c, x._d, x._den, x._h = a, b, c, d, den, None
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

    Two Galois norms: y = x * conj_sqrt2(x) lies in Q(sqrt3), and
    z = y * conj_sqrt3(y) in Q; the numerator is conj_sqrt2(x) * conj_sqrt3(y).
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


def rat_str(q) -> str:
    """Canonical "<num>/<den>" form in lowest terms."""
    q = _rat(q)
    return f"{q.numerator}/{q.denominator}"


def rat_parse(s: str) -> _Q:
    num, _, den = s.partition("/")
    if den == "":
        return _Q(int(num))
    return _Q(int(num), int(den))


class FieldElem:
    """Immutable element a + b*sqrt2 + c*sqrt3 + d*sqrt6 of Q(sqrt2, sqrt3)."""

    __slots__ = ("_a", "_b", "_c", "_d", "_den", "_h")

    def __init__(self, a=0, b=0, c=0, d=0):
        coefs = [_rat(q) for q in (a, b, c, d)]
        den = math.lcm(*(int(q.denominator) for q in coefs))
        nums = [int(q.numerator) * (den // int(q.denominator)) for q in coefs]
        # per-coefficient lowest terms over their lcm is already canonical
        self._a, self._b, self._c, self._d = nums
        self._den = den
        self._h = None

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

    def conj_sqrt2(self) -> "FieldElem":
        """Galois conjugate sending sqrt2 to -sqrt2."""
        return _raw(self._a, -self._b, self._c, -self._d, self._den)

    def conj_sqrt3(self) -> "FieldElem":
        """Galois conjugate sending sqrt3 to -sqrt3."""
        return _raw(self._a, self._b, -self._c, -self._d, self._den)

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

    def __pow__(self, n: int) -> "FieldElem":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
        h = self._h
        if h is None:
            # equal to hash((a, b, c, d)) over _Q; integer coefficients hash as ints
            den = self._den
            nums = (self._a, self._b, self._c, self._d)
            if den == 1:
                h = hash(nums)
            else:
                # Python hashes n/den as sign(n) * (|n| * den^-1 mod P) and an
                # int m as sign(m) * (|m| mod P), each with -1 mapped to -2,
                # so hash(n * den^-1) equals hash(n/den)
                try:
                    inv = pow(den, -1, _HASH_P)
                except ValueError:  # den is a multiple of P
                    h = hash(tuple(_Q(n, den) if n else 0 for n in nums))
                else:
                    a, b, c, d = nums
                    h = hash((a * inv, b * inv, c * inv, d * inv))
            self._h = h
        return h

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
        if self.sign() < 0:
            return None
        root = _field_sqrt(self)
        if root is not None and root.sign() < 0:
            root = -root
        return root

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
        parts = s.split(",")
        if len(parts) != 4:
            raise ValueError(f"bad field element encoding: {s!r}")
        return cls(*[rat_parse(p) for p in parts])

    def __repr__(self) -> str:
        terms = []
        for coef, sym in ((self.a, ""), (self.b, "√2"), (self.c, "√3"), (self.d, "√6")):
            if coef != 0:
                terms.append(f"{coef}{sym}" if sym else f"{coef}")
        return "FieldElem(0)" if not terms else "FieldElem(" + " + ".join(terms) + ")"


def as_field(x) -> FieldElem:
    if isinstance(x, FieldElem):
        return x
    if type(x) is int:
        return _raw(x, 0, 0, 0, 1)
    return FieldElem(_rat(x))


def field_sign(x) -> int:
    """Exact sign of a + b*sqrt2 + c*sqrt3 + d*sqrt6."""
    return as_field(x).sign()


ZERO = FieldElem(0)
ONE = FieldElem(1)
SQRT2 = FieldElem(0, 1)
SQRT3 = FieldElem(0, 0, 1)
SQRT6 = FieldElem(0, 0, 0, 1)


# -- exact square roots ----------------------------------------------------


def _rat_sqrt(q):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num, den = int(q.numerator), int(q.denominator)
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return _Q(rn, rd)
    return None


def _sqrt_in_q_sqrt2(m, n):
    """Square root of m + n*sqrt2 inside Q(sqrt2) as a pair, or None."""
    if _sign_sqrt2(m, n) < 0:
        return None
    if n == 0:
        r = _rat_sqrt(m)
        if r is not None:
            return (r, _Q(0))
        r = _rat_sqrt(m / 2)
        if r is not None:
            return (_Q(0), r)
        return None
    # (x + y*sqrt2)^2 = x^2 + 2y^2 + 2xy*sqrt2
    disc = _rat_sqrt(m * m - 2 * n * n)
    if disc is None:
        return None
    for x2 in ((m + disc) / 2, (m - disc) / 2):
        x = _rat_sqrt(x2)
        if x is not None and x != 0:
            y = n / (2 * x)
            if x * x + 2 * y * y == m:
                return (x, y)
    return None


def _field_sqrt(x: FieldElem) -> FieldElem | None:
    # write x = P + Q*sqrt3 with P = (a, b), Q = (c, d) in Q(sqrt2)
    a, b, c, d = x.a, x.b, x.c, x.d
    if c == 0 and d == 0:
        r = _sqrt_in_q_sqrt2(a, b)
        if r is not None:
            return FieldElem(r[0], r[1], 0, 0)
        # maybe sqrt(x) = R*sqrt3, R in Q(sqrt2): 3R^2 = P
        r = _sqrt_in_q_sqrt2(a / 3, b / 3)
        if r is not None:
            return FieldElem(0, 0, r[0], r[1])
        return None
    # y = S + T*sqrt3:  S*T = Q/2,  S^2 + 3T^2 = P, so S^2 solves
    # u^2 - P*u + 3*(Q/2)^2 = 0 over Q(sqrt2)
    p = (a, b)
    q = (c, d)
    p2 = (a * a + 2 * b * b, 2 * a * b)
    q2 = (c * c + 2 * d * d, 2 * c * d)
    disc = (p2[0] - 3 * q2[0], p2[1] - 3 * q2[1])
    s_disc = _sqrt_in_q_sqrt2(*disc)
    if s_disc is None:
        return None
    for branch in (1, -1):
        u = ((p[0] + branch * s_disc[0]) / 2, (p[1] + branch * s_disc[1]) / 2)
        s = _sqrt_in_q_sqrt2(*u)
        if s is None or (s[0] == 0 and s[1] == 0):
            continue
        # T = Q / (2S) in Q(sqrt2)
        s_elem = FieldElem(s[0], s[1])
        q_elem = FieldElem(q[0], q[1])
        t_elem = q_elem / (s_elem * 2)
        cand = FieldElem(s[0], s[1], t_elem.a, t_elem.b)
        if cand * cand == x:
            return cand
    return None
