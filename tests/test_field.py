import random
from fractions import Fraction

import pytest

from laminar.field import ONE, SQRT2, SQRT3, SQRT6, FieldElem

from conftest import random_field_elem


def test_sign_contract_examples():
    assert FieldElem(0, 0, 0, 0).sign() == 0
    assert FieldElem(-1, 1, 0, 0).sign() == 1  # sqrt2 - 1 > 0
    # sqrt3 - 3 < 0, decided by comparing squares 3 < 9
    assert FieldElem(-3, 0, 1, 0).sign() == -1


def test_ring_round_trips():
    rng = random.Random(11)
    for _ in range(1500):
        x = random_field_elem(rng)
        y = random_field_elem(rng)
        if not y.is_zero():
            assert (x * y) / y == x
        if not x.is_zero():
            assert x.sign() * (-x).sign() == -1
        assert (x + y) - y == x


def test_sign_agrees_with_interval_evaluation():
    # independent oracle: 128-bit interval arithmetic via mpmath
    from mpmath import iv

    iv.prec = 128
    s2, s3, s6 = iv.sqrt(2), iv.sqrt(3), iv.sqrt(6)
    rng = random.Random(5)
    checked = 0
    for _ in range(10_000):
        x = random_field_elem(rng, span=500, den=64)
        val = (
            iv.mpf(int(x.a.numerator)) / int(x.a.denominator)
            + iv.mpf(int(x.b.numerator)) / int(x.b.denominator) * s2
            + iv.mpf(int(x.c.numerator)) / int(x.c.denominator) * s3
            + iv.mpf(int(x.d.numerator)) / int(x.d.denominator) * s6
        )
        if val > 0:
            assert x.sign() == 1
            checked += 1
        elif val < 0:
            assert x.sign() == -1
            checked += 1
    assert checked > 9_900  # the interval is almost never ambiguous


def test_exact_zero_signs():
    x = (SQRT2 + SQRT3) * (SQRT2 - SQRT3) + ONE  # 2 - 3 + 1 = 0
    assert x.sign() == 0
    y = SQRT2 * SQRT3 - SQRT6
    assert y.sign() == 0 and y.is_zero()


def test_total_order_and_floor():
    assert SQRT2 < SQRT3 < FieldElem(2) < SQRT6
    assert SQRT2.floor() == 1
    assert (-SQRT2).floor() == -2
    assert (SQRT2 + SQRT3).floor() == 3
    assert FieldElem((7, 2)).floor() == 3
    assert FieldElem(-3).floor() == -3


def test_inverse_and_division():
    rng = random.Random(23)
    for _ in range(300):
        x = random_field_elem(rng)
        if x.is_zero():
            continue
        assert x * x.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        FieldElem(0).inverse()


def test_sqrt_inside_field():
    assert FieldElem(2).sqrt() == SQRT2
    assert FieldElem(3).sqrt() == SQRT3
    assert FieldElem(6).sqrt() == SQRT6
    assert FieldElem(8).sqrt() == SQRT2 * 2
    assert FieldElem((9, 4)).sqrt() == FieldElem((3, 2))
    assert FieldElem(5).sqrt() is None
    assert FieldElem(-1).sqrt() is None
    x = ONE + SQRT2 - SQRT6 * FieldElem((1, 2))
    assert (x * x).sqrt() == x  # |x| since x > 0
    rng = random.Random(7)
    for _ in range(300):
        x = random_field_elem(rng, span=9, den=4)
        r = (x * x).sqrt()
        assert r is not None and r * r == x * x and r.sign() >= 0
    # one closed form per step of the tower Q < Q(sqrt2) < Q(sqrt2, sqrt3)
    assert FieldElem(3, 2).sqrt() == ONE + SQRT2
    assert FieldElem(7, 0, 4).sqrt() == FieldElem(2, 0, 1)
    assert FieldElem(5, 0, 0, 2).sqrt() == SQRT2 + SQRT3
    assert FieldElem(2, 0, 1).sqrt() == (SQRT2 + SQRT6) / 2
    assert FieldElem((3, 2)).sqrt() == SQRT6 / 2  # the branch S = 0: sqrt(3/2) = sqrt3 * sqrt(1/2)
    # 1 + sqrt2 > 0 has no root: its conjugate 1 - sqrt2 is negative
    non_squares = [ONE + SQRT2, FieldElem(2, 1), FieldElem(5), FieldElem(7), FieldElem(-1)]
    for x in non_squares:
        assert x.sqrt() is None
        for _ in range(20):
            y = random_field_elem(rng, span=9, den=4)
            if not y.is_zero():
                assert (x * y * y).sqrt() is None


def test_encoding_round_trip():
    rng = random.Random(31)
    for _ in range(200):
        x = random_field_elem(rng)
        assert FieldElem.parse(x.encode()) == x
    for _ in range(500):  # wide numerators and denominators, some shared
        span, den = 10 ** rng.randint(0, 40), 10 ** rng.randint(0, 30)
        x = random_field_elem(rng, span=span, den=den, irrational=rng.random() < 0.8)
        assert FieldElem.parse(x.encode()) == x
    assert FieldElem.parse("1/1,0/1,0/1,0/1") == ONE


# spellings of one coefficient n/d that Python's int() reads but encode() never writes
_ARABIC, _FULLWIDTH = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"), str.maketrans("0123456789", "０１２３４５６７８９")
MISSPELLINGS = {
    "underscore": lambda n, d: (f"{n}_0", f"{d}"),
    "space before": lambda n, d: (f" {n}", f"{d}"),
    "space after": lambda n, d: (f"{n}", f"{d} "),
    "plus": lambda n, d: (f"+{abs(n)}", f"{d}"),
    "negative zero": lambda n, d: ("-0", "1"),
    "zero over two": lambda n, d: ("0", "2"),
    "leading zero": lambda n, d: (f"-0{-n}" if n < 0 else f"0{n}", f"{d}"),
    "leading zero below": lambda n, d: (f"{n}", f"0{d}"),
    "arabic-indic digits": lambda n, d: (f"{n}".translate(_ARABIC), f"{d}".translate(_ARABIC)),
    "fullwidth digits": lambda n, d: (f"{n}".translate(_FULLWIDTH), f"{d}"),
    "negative denominator": lambda n, d: (f"{-n}", f"-{d}"),
}


def test_parse_rejects_spellings_that_int_reads():
    for s in ("1_0/3,0/1,0/1,0/1", " 1/2,0/1,0/1,0/1", "+1/2,0/1,0/1,0/1", "-0/1,0/1,0/1,0/1", "0/2,0/1,0/1,0/1"):
        with pytest.raises(ValueError):
            FieldElem.parse(s)
    for s in ("01/2,0/1,0/1,0/1", "1/02,0/1,0/1,0/1", "١/2,0/1,0/1,0/1", "1/-2,0/1,0/1,0/1"):
        with pytest.raises(ValueError):
            FieldElem.parse(s)
    rng = random.Random(2025)
    for _ in range(400):
        x = random_field_elem(rng, span=10**6, den=10**4)
        parts = x.encode().split(",")
        name = rng.choice(sorted(MISSPELLINGS) + ["three parts", "five parts"])
        if name == "three parts":
            del parts[rng.randrange(4)]
        elif name == "five parts":
            parts.insert(rng.randrange(5), rng.choice(parts))
        else:
            k = rng.randrange(4)
            n, d = map(int, parts[k].split("/"))
            num, den = MISSPELLINGS[name](n, d)
            int(num), int(den)  # the premise: int() reads both
            parts[k] = f"{num}/{den}"
        with pytest.raises(ValueError):
            FieldElem.parse(",".join(parts))


def test_huge_coefficients_fall_back_exactly():
    big = FieldElem((10**400, 1), (-(10**400), 1), 0, 0)  # 10^400 (1 - sqrt2) < 0
    assert big.sign() == -1
    assert (-big).sign() == 1


def _reference_product(x, y):
    # the sixteen-term product on exact rational coefficients
    a1, b1, c1, d1 = x.a, x.b, x.c, x.d
    a2, b2, c2, d2 = y.a, y.b, y.c, y.d
    return FieldElem(
        a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
        a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
        a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def test_rational_operand_paths_agree_with_general_product():
    rng = random.Random(41)
    for _ in range(500):
        x = random_field_elem(rng, irrational=False)
        y = random_field_elem(rng)
        z = FieldElem(*[(rng.randint(-30, 30), rng.randint(1, 8)) for _ in range(4)])
        for u, v in ((x, y), (y, x), (x, z), (z, x), (y, z)):
            assert u * v == _reference_product(u, v)
        k = rng.randint(-6, 6)
        assert z * k == k * z == _reference_product(z, FieldElem(k))
        if not x.is_zero():
            r = x.rational()
            assert z / x == FieldElem(z.a / r, z.b / r, z.c / r, z.d / r)
            assert z / x == z * x.inverse() and (z / x) * x == z
            assert x.inverse() == FieldElem(1 / r)
        if k:
            assert z / k == z / FieldElem(k) == FieldElem(z.a / k, z.b / k, z.c / k, z.d / k)


def test_canonical_form_equality_hash_and_encoding():
    half = FieldElem((1, 2))
    built = [
        FieldElem((2, 4)),
        FieldElem(Fraction(3, 6)),
        FieldElem((1, 4)) + FieldElem((1, 4)),
        FieldElem((3, 4)) - FieldElem((1, 4)),
        ONE / 2,
        FieldElem(3) / FieldElem(6),
        (SQRT2 / 2) * (SQRT2 / 2),
        (SQRT2 + half) - SQRT2,
    ]
    for x in built:
        assert x == half and hash(x) == hash(half) and x.encode() == half.encode() == "1/2,0/1,0/1,0/1"
        assert x.a == Fraction(1, 2) and x.b == 0
    y = FieldElem((1, 2), (1, 3), 0, (-5, 6))
    for w in (
        FieldElem((3, 6), (2, 6), (0, 7), (-10, 12)),
        (FieldElem(3) + SQRT2 * 2 - SQRT6 * 5) / 6,
        (SQRT2 * 3 + 4 - SQRT3 * 10) / (SQRT2 * 6) + FieldElem((1, 2)) * 0,
    ):
        assert w == y and hash(w) == hash(y) and w.encode() == y.encode() == "1/2,1/3,0/1,-5/6"
    zero = y - y
    assert zero == FieldElem(0) == 0 and hash(zero) == hash(FieldElem(0)) and zero.encode() == "0/1,0/1,0/1,0/1"
    assert FieldElem(7) == 7 and FieldElem((7, 2)) == Fraction(7, 2) and FieldElem((7, 2)) != 3


def test_hash_agrees_with_equality_on_ints_and_fractions():
    # FieldElem(7) == 7, so the two must hash alike for sets and dicts to agree
    assert 7 in {FieldElem(7)} and FieldElem(7) in {7}
    assert Fraction(7, 2) in {FieldElem((7, 2))} and FieldElem((7, 2)) in {Fraction(7, 2): 0}
    assert hash(FieldElem(-1)) == hash(-1) == -2 and hash(FieldElem(0)) == hash(0)
    rng = random.Random(23)
    for _ in range(2000):
        q = Fraction(rng.randint(-(10 ** rng.randint(0, 30)), 10 ** rng.randint(0, 30)), rng.randint(1, 10 ** rng.randint(0, 25)))
        x = FieldElem(q)
        assert x == q and hash(x) == hash(q), q
        if q.denominator == 1:
            assert x == q.numerator and hash(x) == hash(q.numerator), q
    # irrational elements equal no int or Fraction; equal ones hash alike
    for _ in range(500):
        x = random_field_elem(rng)
        y = (x * 3 + SQRT2) / 3 - SQRT2 / 3
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1


def test_overflowing_common_denominator_falls_back_exactly(monkeypatch):
    # every coefficient is a rational of size about 1, but over one common
    # denominator the numerators have about 330 digits, beyond float range;
    # one constant term is tuned so the value is within 10^-110 of zero
    from mpmath import iv, mp

    import laminar.field as field

    calls = []
    exact = field._sign_sqrt2
    monkeypatch.setattr(field, "_sign_sqrt2", lambda m, n: calls.append(1) or exact(m, n))
    q1, q2, q3, q4 = 3**230, 5**160, 7**130, 11**105
    rng = random.Random(17)
    monkeypatch.setattr(mp, "dps", 400)
    monkeypatch.setattr(iv, "prec", 2000)
    for _ in range(20):
        b = Fraction(rng.randint(-q2, q2), q2)
        c = Fraction(rng.randint(-q3, q3), q3)
        d = Fraction(rng.randint(-q4, q4), q4)
        s = mp.mpf(b.numerator) / b.denominator * mp.sqrt(2)
        s += mp.mpf(c.numerator) / c.denominator * mp.sqrt(3)
        s += mp.mpf(d.numerator) / d.denominator * mp.sqrt(6)
        tuned = Fraction(-int(mp.nint(s * q1)) + rng.choice((-1, 0, 1)), q1)
        for a in (tuned, Fraction(rng.randint(-6 * q1, 6 * q1), q1)):
            x = FieldElem(a, b, c, d)
            assert all(abs(float(coef)) < 6 for coef in (x.a, x.b, x.c, x.d))
            val = sum(
                iv.mpf(coef.numerator) / coef.denominator * root
                for coef, root in ((a, 1), (b, iv.sqrt(2)), (c, iv.sqrt(3)), (d, iv.sqrt(6)))
            )
            expected = 1 if val > 0 else -1 if val < 0 else None
            assert expected is not None
            del calls[:]
            assert x.sign() == expected and (-x).sign() == -expected
            assert (x < 0) == (expected < 0) and (x > FieldElem(0)) == (expected > 0)
            if a is tuned:
                assert calls, "the float filter decided a sign within 10^-110 of zero"
