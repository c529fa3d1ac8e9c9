import math
import random

import pytest

from laminar.circle import BoundaryPoint, circular_order
from laminar.errors import ChartMismatch, InvalidMap, LaminarError
from laminar.field import SQRT2, SQRT3, FieldElem, _inverse_parts
from laminar.mobius import (
    AngleShift,
    ElementType,
    ExpAffine,
    MobiusMap,
    apply_to_chord,
    ball_enumerate,
    map_from_json,
)

from conftest import INF, fr, random_field_elem

T = MobiusMap(1, 1, 0, 1)
S = MobiusMap(0, -1, 1, 0)


def test_apply_examples():
    assert T.apply(fr(0)) == fr(1)
    assert T.apply(INF) == INF
    assert AngleShift(FieldElem((1, 5))).apply(
        BoundaryPoint.disk_angle(FieldElem((4, 5)))
    ) == BoundaryPoint.disk_angle(0)
    # pole goes to infinity
    assert S.apply(fr(0)) == INF


def test_classification_examples():
    assert T.element_type() == ElementType.PARABOLIC
    pts, sym = T.fixed_points()
    assert pts == [INF] and not sym

    diag = MobiusMap(2, 0, 0, FieldElem((1, 2)))
    assert diag.element_type() == ElementType.HYPERBOLIC
    pts, _ = diag.fixed_points()
    assert set(pts) == {fr(0), INF}

    g = MobiusMap(2, 1, 1, 1)
    assert g.element_type() == ElementType.HYPERBOLIC
    pts, sym = g.fixed_points()
    assert pts == [] and len(sym) == 2
    # fixed points solve x^2 - x - 1 = 0: the golden ratio pair
    hi = sym[1]
    assert (hi.a, hi.b, hi.c) == (FieldElem(1), FieldElem(-1), FieldElem(-1))
    assert abs(float(hi) - 1.6180339887498949) < 1e-12

    rot = MobiusMap(0, -1, 1, 0)
    assert rot.element_type() == ElementType.ELLIPTIC
    assert rot.fixed_points() == ([], [])


def test_canonical_form_is_projective():
    g1 = MobiusMap(FieldElem((2, 3)), 0, 0, 2)
    g2 = MobiusMap(2, 0, 0, 6)
    assert g1 == g2
    assert MobiusMap(-1, 0, 0, -1) == MobiusMap.identity()
    lam = FieldElem(1, 1)  # 1 + sqrt2 > 0
    a = MobiusMap(lam * 2, lam, lam, lam)
    assert a == MobiusMap(2, 1, 1, 1)
    with pytest.raises(ValueError):
        MobiusMap(1, 0, 0, -1)  # negative determinant
    with pytest.raises(InvalidMap) as exc:
        MobiusMap(1, 2, 2, 4)  # zero determinant
    assert isinstance(exc.value, LaminarError)


def test_ball_examples():
    assert len(ball_enumerate([T], 2)) == 5
    assert len(ball_enumerate([S, T], 1)) == 4  # S is its own projective inverse
    only = ball_enumerate([], 5)
    assert len(only) == 1 and only[0].is_identity
    small = {g.key() for g in ball_enumerate([S, T], 2)}
    large = {g.key() for g in ball_enumerate([S, T], 3)}
    assert small <= large
    assert any(g.is_identity for g in ball_enumerate([S, T], 0))


def test_ball_deterministic():
    a = [g.key() for g in ball_enumerate([S, T], 4)]
    b = [g.key() for g in ball_enumerate([S, T], 4)]
    assert a == b


def test_order_preservation_under_enumerated_maps():
    rng = random.Random(13)
    ball = ball_enumerate([S, T], 3)
    pts = [fr(x) for x in range(-6, 7)] + [INF]
    for g in ball:
        for _ in range(20):
            x, y, z = rng.sample(pts, 3)
            assert circular_order(g.apply(x), g.apply(y), g.apply(z)) == circular_order(x, y, z)


def _random_det1_matrix(rng):
    g = MobiusMap.identity()
    for _ in range(rng.randint(1, 9)):
        g = g.compose(T if rng.random() < 0.5 else S)
        if rng.random() < 0.3:
            g = g.compose(T.inverse())
    return g


def test_classification_matches_root_count():
    rng = random.Random(41)
    for _ in range(300):
        g = _random_det1_matrix(rng)
        if g.is_identity:
            continue
        pts, sym = g.fixed_points()
        count = len(pts) + len(sym)
        want = {0: ElementType.ELLIPTIC, 1: ElementType.PARABOLIC, 2: ElementType.HYPERBOLIC}
        assert g.element_type() == want[count]


def test_identities_classify_as_identity_in_every_action_class():
    # cusp_points and the CLI's wings search filter on element_type alone
    third = AngleShift(FieldElem((1, 3)))
    for g in (
        MobiusMap.identity(),
        S.compose(S),
        T.compose(T.inverse()),
        AngleShift(0),
        third.compose(third).compose(third),
        ExpAffine(False, 0),
        ExpAffine(True, 1).compose(ExpAffine(True, 1)),
    ):
        assert g.is_identity and g.element_type() == ElementType.IDENTITY, g


def test_chart_action_algebra():
    r0, r1 = ExpAffine(True, 0), ExpAffine(True, 1)
    assert r0.compose(r0).is_identity and r1.compose(r1).is_identity
    h = r1.compose(r0)
    assert h == ExpAffine(False, 1) and h.element_type() == ElementType.HYPERBOLIC
    pts, _ = h.fixed_points()
    assert pts == [BoundaryPoint.exp_zero(), BoundaryPoint.exp_inf()]
    assert r0.element_type() == ElementType.ELLIPTIC
    assert r0.apply(BoundaryPoint.signed_exp(1, 2)) == BoundaryPoint.signed_exp(-1, -2)
    assert r1.apply(BoundaryPoint.exp_zero()) == BoundaryPoint.exp_inf()
    fifth = AngleShift(FieldElem((1, 5)))
    acc = fifth
    for _ in range(4):
        acc = acc.compose(fifth)
    assert acc.is_identity
    ball = ball_enumerate([r0, r1], 4)
    assert len({g.key() for g in ball}) == len(ball)
    with pytest.raises(ChartMismatch):
        r0.compose(fifth)
    with pytest.raises(ChartMismatch):
        T.apply(BoundaryPoint.disk_angle(0))


def test_actions_are_equal_exactly_when_their_keys_are():
    quarter = AngleShift(FieldElem((5, 4)))
    assert quarter == AngleShift(FieldElem((1, 4))) and hash(quarter) == hash(AngleShift(FieldElem((1, 4))))
    assert ExpAffine(True, 1) == ExpAffine(True, 1)
    identities = [MobiusMap.identity(), AngleShift(0), ExpAffine(False, 0)]
    for i, g in enumerate(identities):
        for h in identities[i + 1 :]:
            assert g != h and h != g


def test_json_round_trip():
    for g in (T, S, AngleShift(FieldElem(0, 1)), ExpAffine(True, FieldElem((1, 2)))):
        assert map_from_json(g.to_json()) == g


def test_apply_to_chord():
    from laminar.lamination import Chord

    c = Chord(fr(0), INF)
    assert apply_to_chord(T, c) == Chord(fr(1), INF)


def _ball_oracle(generators, radius):
    """Keys of every product of at most ``radius`` letters, no pruning: each
    key at the shortest length it occurs, ordered by length, then key."""
    letters = [h for g in generators for h in (g, g.inverse())]
    ident = letters[0].compose(letters[0].inverse())
    length = {ident.key(): 0}
    level = {ident.key(): ident}  # the products of exactly n letters
    for n in range(1, radius + 1):
        level = {gh.key(): gh for gh in (g.compose(h) for g in level.values() for h in letters)}
        for k in level:
            length.setdefault(k, n)
    return sorted(length, key=lambda k: (length[k], k))


@pytest.mark.parametrize(
    "generators, radius",
    [
        ([S, T], 6),
        ([S, MobiusMap(1, SQRT2, 0, 1)], 5),
        ([S, MobiusMap(1, SQRT3, 0, 1)], 5),
        ([MobiusMap(2, 0, 0, FieldElem((1, 2))), MobiusMap(5, 4, 4, 5)], 4),
        ([T, T, T.inverse(), S], 4),
        ([AngleShift(FieldElem((1, 5))), AngleShift(FieldElem((2, 5)))], 5),
        ([ExpAffine(True, 0), ExpAffine(True, 1)], 6),
    ],
    ids=["psl2z", "hecke-sqrt2", "hecke-sqrt3", "free-hyperbolic-pair", "repeated-letters", "order-5", "exp-flips"],
)
def test_ball_matches_brute_force_words(generators, radius):
    for r in range(radius + 1):
        assert [g.key() for g in ball_enumerate(generators, r)] == _ball_oracle(generators, r)


def _fraction_canonical(p, q, r, s):
    """The canonical entries and key as computed from Fraction coefficients."""
    first = next(e for e in (p, q, r, s) if not e.is_zero())
    entries = tuple(e / first for e in (p, q, r, s))
    coefs = [c for e in entries for c in (e.a, e.b, e.c, e.d)]
    lcm = math.lcm(*(c.denominator for c in coefs))
    gcd = math.gcd(*(c.numerator * (lcm // c.denominator) for c in coefs))
    entries = tuple(e * FieldElem((lcm, gcd)) for e in entries)
    parts = [x for e in entries for c in (e.a, e.b, e.c, e.d) for x in (c.numerator, c.denominator)]
    return entries, "m:" + ",".join(map(str, parts))


def test_canonical_form_matches_fraction_canonicalization():
    rng = random.Random(7)
    checked = 0
    while checked < 300:
        entries = [random_field_elem(rng, span=40, den=12) for _ in range(4)]
        lead = rng.randrange(3)
        entries[:lead] = [FieldElem(0)] * lead
        entries[lead] = FieldElem((rng.randint(-9, 9), 7), (rng.randint(1, 9), rng.randint(1, 5)), (1, 3), 0)
        p, q, r, s = entries
        det = (p * s - q * r).sign()
        if det == 0:
            continue
        if det < 0:
            r, s = -r, -s
        g = MobiusMap(p, q, r, s)
        want, key = _fraction_canonical(p, q, r, s)
        assert (g.p, g.q, g.r, g.s) == want and g.key() == key
        checked += 1


def _negative_norm_map(rng):
    """A random map whose first nonzero entry is irrational with a negative
    norm (the product of its four conjugates), after a zero p half the time."""
    while True:
        p, q, r, s = (random_field_elem(rng, span=40, den=12) for _ in range(4))
        lead = FieldElem((rng.randint(-9, 9), 7), (rng.randint(1, 9), 5), (rng.randint(-5, 5), 3), rng.randint(-3, 3))
        if _inverse_parts(lead._a, lead._b, lead._c, lead._d)[4] >= 0:
            continue
        if rng.random() < 0.5:
            p, q = FieldElem(0), lead
        else:
            p = lead
        det = (p * s - q * r).sign()
        if det:
            # negating r and s keeps the leading entry, and its norm
            return MobiusMap(p, q, r, s) if det > 0 else MobiusMap(p, q, -r, -s)


def _assert_canonical(g, p, q, r, s):
    want, key = _fraction_canonical(p, q, r, s)
    assert (g.p, g.q, g.r, g.s) == want and g.key() == key


def test_compose_and_inverse_match_fraction_canonicalization():
    rng = random.Random(11)
    maps = [_negative_norm_map(rng) for _ in range(60)]
    assert sum(g.p.is_zero() for g in maps) > 10
    hecke = ball_enumerate([S, MobiusMap(1, SQRT3, 0, 1)], 3)
    pairs = [(g, h) for g in hecke for h in hecke] + [tuple(rng.sample(maps, 2)) for _ in range(300)]
    for g, h in pairs:
        _assert_canonical(
            g.compose(h),
            g.p * h.p + g.q * h.r,
            g.p * h.q + g.q * h.s,
            g.r * h.p + g.s * h.r,
            g.r * h.q + g.s * h.s,
        )
    for g in maps + hecke:
        _assert_canonical(g.inverse(), g.s, -g.q, -g.r, g.p)
        assert g.compose(g.inverse()).is_identity and g.inverse().compose(g).is_identity
    with pytest.raises(InvalidMap):
        MobiusMap(1, 2, 2, 4)


def _subfield_map(rng, fields):
    """A random map with det > 0 whose entry i lies in the subfield
    ``fields[i]``: "1" for Q, "2" for Q(sqrt2), "3" for Q(sqrt3) and "6" for
    Q(sqrt6)."""
    units = {"1": 0, "2": 1, "3": 2, "6": 3}

    def elem(f):
        coefs = [(rng.randint(-9, 9), rng.randint(1, 4)), 0, 0, 0]
        if f != "1":
            coefs[units[f]] = (rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        return FieldElem(*coefs)

    while True:
        p, q, r, s = (elem(f) for f in fields)
        det = (p * s - q * r).sign()
        if det:
            return MobiusMap(p, q, r, s) if det > 0 else MobiusMap(p, q, -r, -s)


def test_products_across_subfields_match_fraction_canonicalization():
    # products whose factors lie in different subfields take the general
    # coefficient products; those within Q(sqrt2) or Q(sqrt3) skip the zero ones
    rng = random.Random(23)
    kinds = [
        ("2222", "3333"),  # Q(sqrt2) times Q(sqrt3)
        ("3333", "2222"),
        ("3333", "1111"),  # Q(sqrt3) times a rational map
        ("1111", "3333"),
        ("6666", "2222"),  # entries with a sqrt6 term
        ("3663", "6336"),
        ("2323", "3232"),  # subfields mixed within one map
        ("2222", "2222"),
        ("3333", "3333"),
    ]
    x = BoundaryPoint.ext_real(FieldElem((1, 3), (1, 2), (1, 5), (1, 7)))
    for a, b in kinds:
        for _ in range(20):
            g, h = _subfield_map(rng, a), _subfield_map(rng, b)
            product = (g.p * h.p + g.q * h.r, g.p * h.q + g.q * h.s, g.r * h.p + g.s * h.r, g.r * h.q + g.s * h.s)
            gh = g.compose(h)
            _assert_canonical(gh, *product)
            inverse = (gh.s, -gh.q, -gh.r, gh.p)
            _assert_canonical(gh.inverse(), *inverse)
            # entries built on a fresh map's first apply are those of the map
            # that __init__ makes from the same product
            for fresh, entries in ((g.compose(h), product), (gh.inverse(), inverse)):
                made = MobiusMap(*entries)
                assert fresh.apply(x) is made.apply(x) and fresh.apply(INF) is made.apply(INF)
                assert (fresh.p, fresh.q, fresh.r, fresh.s) == (made.p, made.q, made.r, made.s)
                assert fresh == made


def _fraction_float_matrix(g):
    entries = (g.p, g.q, g.r, g.s)
    top = 0
    for e in entries:
        for c in (e.a, e.b, e.c, e.d):
            if c != 0:
                top = max(top, int(c.numerator).bit_length() - int(c.denominator).bit_length())
    if top > 500:
        shrink = FieldElem((1, 2 ** (top - 100)))
        entries = tuple(e * shrink for e in entries)
    return tuple(float(e) for e in entries)


def test_float_matrix_matches_fraction_formula():
    # [[1, sqrt3], [sqrt3, 4]]: entries pass 500 bits within about 230 powers
    g = MobiusMap(1, SQRT3, SQRT3, 4)
    power = g
    rescaled = 0
    for _ in range(1000):
        got, want = power.to_float_matrix(), _fraction_float_matrix(power)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        rescaled += max(n.bit_length() for e in (power.p, power.q, power.r, power.s) for n in (e._a, e._c)) > 501
        power = power.compose(g)
    assert rescaled > 500
