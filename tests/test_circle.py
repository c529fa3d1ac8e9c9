import cmath
import itertools
import random
import struct
import threading
from fractions import Fraction

import pytest

from laminar.circle import BoundaryPoint, Chart, chart_convert, circular_order
from laminar.constructions import elementary_col3
from laminar.errors import ChartMismatch, IncomparableCharts, InexactConversion
from laminar.field import SQRT2, SQRT3, FieldElem
from laminar.jsonio import collection_doc
from laminar.mobius import AngleShift, ExpAffine, MobiusMap

from conftest import INF, fr, random_field_elem


def test_contract_examples():
    assert circular_order(fr(0), fr(1), INF) == 1
    assert circular_order(fr(0), INF, fr(1)) == -1
    assert circular_order(fr(0), fr(0), fr(1)) == 0


def _float_orientation(xs):
    # orientation of finite reals with inf at the wrap, computed directly
    if "inf" in xs:
        a, b = [x for x in xs if x != "inf"]
        i = xs.index("inf")
        # rotate so inf comes first; (inf, a, b) is ccw iff a < b
        rest = xs[(i + 1) % 3], xs[(i + 2) % 3]
        return 1 if rest[0] < rest[1] else -1
    x, y, z = xs
    s = (y - x) * (z - y) * (z - x)
    return 1 if s > 0 else -1


def test_orientation_convention_derived_from_cayley_map():
    # the counterclockwise quadruple (1, i, -1, -i) of the disk maps to
    # (inf, -1, 0, 1) under p(z) = i(1+z)/(1-z)
    for theta, want in ((0.0, None), (0.25, -1.0), (0.5, 0.0), (0.75, 1.0)):
        z = cmath.exp(2j * cmath.pi * theta)
        if want is None:
            assert abs(z - 1) < 1e-12
            continue
        w = 1j * (1 + z) / (1 - z)
        assert abs(w - want) < 1e-12
    rng = random.Random(2)
    for _ in range(1000):
        xs = rng.sample(range(-40, 40), 3)
        if rng.random() < 0.3:
            xs[rng.randrange(3)] = "inf"
        pts = [INF if x == "inf" else fr(x) for x in xs]
        assert circular_order(*pts) == _float_orientation(xs)


def test_antisymmetry_and_cocycle():
    rng = random.Random(9)
    pts = []
    while len(pts) < 40:
        p = BoundaryPoint.ext_real(random_field_elem(rng))
        if p not in pts:
            pts.append(p)
    pts.append(INF)
    for _ in range(2000):
        x, y, z = rng.sample(pts, 3)
        assert circular_order(x, y, z) == -circular_order(x, z, y)
    for _ in range(2000):
        g0, g1, g2, g3 = rng.sample(pts, 4)
        total = (
            circular_order(g1, g2, g3)
            - circular_order(g0, g2, g3)
            + circular_order(g0, g1, g3)
            - circular_order(g0, g1, g2)
        )
        assert total == 0


def test_disk_angle_order_is_ccw_in_angle():
    th = lambda n, d: BoundaryPoint.disk_angle(FieldElem((n, d)))
    assert circular_order(th(0, 1), th(1, 4), th(1, 2)) == 1
    assert circular_order(th(0, 1), th(1, 2), th(1, 4)) == -1
    assert circular_order(th(7, 8), th(1, 8), th(1, 2)) == 1  # wraps through 0


def test_signed_exp_order_conventions():
    s = BoundaryPoint.signed_exp
    zero, inf = BoundaryPoint.exp_zero(), BoundaryPoint.exp_inf()
    # plus ray: larger exponent further ccw toward inf
    assert circular_order(zero, s(1, 0), s(1, 5)) == 1
    assert circular_order(s(1, 0), s(1, 5), inf) == 1
    # minus ray: larger exponent further clockwise toward inf
    assert circular_order(inf, s(-1, 5), s(-1, 0)) == 1
    assert circular_order(s(-1, 5), s(-1, 0), zero) == 1
    assert circular_order(zero, s(1, 3), s(-1, 3)) == 1


def test_chart_convert_examples():
    q = lambda n, d: FieldElem((n, d))
    assert chart_convert(BoundaryPoint.disk_angle(0), Chart.EXT_REAL) == INF
    assert chart_convert(BoundaryPoint.disk_angle(q(1, 2)), Chart.EXT_REAL) == fr(0)
    assert chart_convert(BoundaryPoint.disk_angle(q(1, 4)), Chart.EXT_REAL) == fr(-1)
    assert chart_convert(BoundaryPoint.disk_angle(q(3, 4)), Chart.EXT_REAL) == fr(1)
    with pytest.raises(InexactConversion):
        chart_convert(fr(1, 3), Chart.SIGNED_EXP)
    with pytest.raises(InexactConversion):
        chart_convert(BoundaryPoint.disk_angle(q(1, 5)), Chart.EXT_REAL)
    assert chart_convert(BoundaryPoint.disk_angle(q(1, 3)), Chart.EXT_REAL) == BoundaryPoint.ext_real(-SQRT3 / 3)
    with pytest.raises(InexactConversion):
        chart_convert(BoundaryPoint.disk_angle(q(1, 3)), Chart.SIGNED_EXP)
    assert chart_convert(fr(1), Chart.SIGNED_EXP) == BoundaryPoint.signed_exp(1, 0)
    assert chart_convert(BoundaryPoint.exp_zero(), Chart.EXT_REAL) == fr(0)
    assert chart_convert(BoundaryPoint.exp_inf(), Chart.EXT_REAL) == INF


def test_conversion_is_order_isomorphic_on_registered_points():
    disks = [BoundaryPoint.disk_angle(FieldElem((k, 4))) for k in range(4)]
    exts = [chart_convert(p, Chart.EXT_REAL) for p in disks]
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert circular_order(disks[i], disks[j], disks[k]) == circular_order(
                    exts[i], exts[j], exts[k]
                )


def test_incomparable_charts():
    with pytest.raises(IncomparableCharts):
        circular_order(fr(5), BoundaryPoint.disk_angle(FieldElem((1, 5))), fr(2))


def test_encode_parse_round_trip():
    samples = [
        INF,
        fr(3, 2),
        BoundaryPoint.ext_real(random_field_elem(random.Random(1))),
        BoundaryPoint.disk_angle(FieldElem((5, 7))),
        BoundaryPoint.signed_exp(-1, FieldElem((1, 2), 1)),
        BoundaryPoint.exp_zero(),
        BoundaryPoint.exp_inf(),
    ]
    for p in samples:
        assert BoundaryPoint.parse(p.encode()) == p
    assert INF.encode() == "r:inf"
    assert BoundaryPoint.exp_inf().encode() == "e:inf"
    assert fr(0).encode() == "r:0/1,0/1,0/1,0/1"


def test_disk_angle_canonical_mod_one():
    a = BoundaryPoint.disk_angle(FieldElem((9, 4)))
    b = BoundaryPoint.disk_angle(FieldElem((1, 4)))
    assert a == b and hash(a) == hash(b)


def test_float_embedding_matches_exact_order():
    rng = random.Random(17)
    pts = [BoundaryPoint.disk_angle(FieldElem((k, 16))) for k in range(16)]
    for _ in range(500):
        x, y, z = rng.sample(pts, 3)
        angles = [p.to_angle() for p in (x, y, z)]
        u = (angles[1] - angles[0]) % 1.0
        v = (angles[2] - angles[0]) % 1.0
        want = 1 if u < v else -1
        assert circular_order(x, y, z) == want


def test_exp_affine_preserves_signed_exp_order():
    import random as _r

    from laminar.mobius import ExpAffine

    rng = _r.Random(88)
    pool = [BoundaryPoint.exp_zero(), BoundaryPoint.exp_inf()]
    for _ in range(20):
        pool.append(
            BoundaryPoint.signed_exp(rng.choice((1, -1)), FieldElem((rng.randint(-9, 9), rng.randint(1, 4))))
        )
    pool = list(dict.fromkeys(pool))
    maps = [ExpAffine(False, 2), ExpAffine(False, FieldElem((-1, 2))), ExpAffine(True, 0), ExpAffine(True, 1)]
    for g in maps:
        for _ in range(200):
            x, y, z = rng.sample(pool, 3)
            assert circular_order(g.apply(x), g.apply(y), g.apply(z)) == circular_order(x, y, z)


def test_equal_points_are_one_object():
    q = FieldElem((1, 2), 1)
    made = [
        tuple(BoundaryPoint.ext_real(x) for x in (2, Fraction(4, 2), FieldElem((1, 2)) * 4)),
        (BoundaryPoint.ext_real(q), BoundaryPoint.ext_real(SQRT2 + FieldElem((1, 2)))),
        (BoundaryPoint.ext_inf(), BoundaryPoint.ext_inf(), INF),
        (BoundaryPoint.disk_angle(FieldElem((1, 4))), BoundaryPoint.disk_angle(FieldElem((9, 4)))),
        (BoundaryPoint.signed_exp(-1, q), BoundaryPoint.signed_exp(-1, FieldElem((1, 2), 1))),
        (BoundaryPoint.exp_zero(), BoundaryPoint.exp_zero()),
        (BoundaryPoint.exp_inf(), BoundaryPoint.exp_inf()),
    ]
    for same in made:
        assert all(p is same[0] for p in same)
        assert BoundaryPoint.parse(same[0].encode()) is same[0]
    assert len({id(same[0]) for same in made}) == len(made)


def test_conversions_and_actions_return_the_one_object():
    for k in range(4):
        disk = BoundaryPoint.disk_angle(FieldElem((k, 4)))
        assert chart_convert(chart_convert(disk, Chart.EXT_REAL), Chart.DISK_ANGLE) is disk
    s = BoundaryPoint.signed_exp
    for p in (BoundaryPoint.exp_zero(), BoundaryPoint.exp_inf(), s(1, 0), s(-1, 0)):
        assert chart_convert(chart_convert(p, Chart.EXT_REAL), Chart.SIGNED_EXP) is p
        assert chart_convert(chart_convert(p, Chart.DISK_ANGLE), Chart.SIGNED_EXP) is p
    assert chart_convert(BoundaryPoint.disk_angle(FieldElem((1, 2))), Chart.EXT_REAL) is fr(0)
    rng = random.Random(5)
    cases = [
        (MobiusMap(1, 1, 0, 1), [INF] + [BoundaryPoint.ext_real(random_field_elem(rng)) for _ in range(10)]),
        (MobiusMap(0, -1, 1, 0), [INF, fr(0)] + [BoundaryPoint.ext_real(random_field_elem(rng)) for _ in range(10)]),
        (AngleShift(FieldElem((1, 3), (1, 5))), [BoundaryPoint.disk_angle(FieldElem((k, 7))) for k in range(7)]),
        (ExpAffine(True, SQRT2), [BoundaryPoint.exp_zero(), BoundaryPoint.exp_inf(), BoundaryPoint.signed_exp(1, 3)]),
    ]
    for g, points in cases:
        for p in points:
            assert g.inverse().apply(g.apply(p)) is p
            assert g.apply(p) is g.compose(g.inverse()).compose(g).apply(p)


def test_only_the_shared_points_convert_and_they_agree_with_the_float_embedding():
    # the float embedding is the oracle: a conversion must land on the same
    # circle point; disk_angle and ext_real share the 24th roots of unity,
    # and signed_exp shares only the four points 1, i, -1, -i
    s = BoundaryPoint.signed_exp
    points = [INF, BoundaryPoint.exp_zero(), BoundaryPoint.exp_inf()]
    for d in (1, 2, 3, 4, 5, 8, 24):
        for k in range(-8, 25):
            q = FieldElem((k, d))
            points += [BoundaryPoint.ext_real(q), BoundaryPoint.disk_angle(q), s(1, q), s(-1, q)]
    for x in (SQRT2, SQRT2 / 3 - 1, FieldElem(0, 0, (1, 2)), -SQRT3, SQRT2 - 1, FieldElem(2, 1, 1, 1)):
        points += [BoundaryPoint.ext_real(x), BoundaryPoint.disk_angle(x), s(1, x), s(-1, x)]
    points = list(dict.fromkeys(points))
    roots = [cmath.exp(2j * cmath.pi * k / 24) for k in range(24)]
    shared = set()
    for p in points:
        z = p.to_complex()
        at_four = min(abs(z - w) for w in (1, 1j, -1, -1j)) < 1e-12
        at_root = min(abs(z - w) for w in roots) < 1e-12
        for target in Chart:
            exact = at_four if Chart.SIGNED_EXP in (p.chart, target) else at_root
            try:
                q = chart_convert(p, target)
            except InexactConversion:
                assert target != p.chart and not exact, (p, target)
                continue
            assert q.chart == target and abs(q.to_complex() - z) < 1e-12, (p, q)
            assert chart_convert(q, p.chart) is p
            if target != p.chart:
                assert exact, (p, target)
                shared.add(p)
    counts = {chart: sum(p.chart == chart for p in shared) for chart in Chart}
    # ext_real: inf, 0, -1, 1, -sqrt3 (theta 1/6), sqrt2 - 1 (theta 5/8) and
    # 2 + sqrt2 + sqrt3 + sqrt6 (theta 23/24)
    assert counts == {Chart.DISK_ANGLE: 24, Chart.EXT_REAL: 7, Chart.SIGNED_EXP: 4}


def test_angles_k_over_24_convert_exactly_and_keep_the_circular_order():
    disks = [BoundaryPoint.disk_angle(FieldElem((k, 24))) for k in range(24)]
    exts = [chart_convert(p, Chart.EXT_REAL) for p in disks]
    assert exts[0] is INF and exts[1] is BoundaryPoint.ext_real(-FieldElem(2, 1, 1, 1))
    assert exts[3] is BoundaryPoint.ext_real(-1 - SQRT2) and exts[4] is BoundaryPoint.ext_real(-SQRT3)
    for disk, ext in zip(disks, exts):
        assert abs(ext.to_complex() - disk.to_complex()) < 1e-12, (disk, ext)
        assert chart_convert(ext, Chart.DISK_ANGLE) is disk
    angles = [p.to_angle() for p in disks]

    def float_order(i, j, k):
        if len({i, j, k}) < 3:
            return 0
        return 1 if (angles[j] - angles[i]) % 1.0 < (angles[k] - angles[i]) % 1.0 else -1

    for i, j, k in itertools.product(range(24), range(1, 24, 2), range(0, 24, 3)):
        want = float_order(i, j, k)
        assert circular_order(disks[i], exts[j], disks[k]) == want, (i, j, k)
        assert circular_order(exts[i], disks[j], exts[k]) == want, (i, j, k)


def test_points_in_different_charts_are_never_equal():
    # the same circle point in each chart: chart_convert relates them, == does not
    for trio in (
        (fr(0), BoundaryPoint.disk_angle(FieldElem((1, 2))), BoundaryPoint.exp_zero()),
        (INF, BoundaryPoint.disk_angle(0), BoundaryPoint.exp_inf()),
        (fr(1), BoundaryPoint.disk_angle(FieldElem((3, 4))), BoundaryPoint.signed_exp(1, 0)),
    ):
        assert len(set(trio)) == 3
        assert all(a != b for a in trio for b in trio if a is not b)


def test_threads_that_make_the_same_points_share_one_object():
    # numerators far beyond anything a construction reaches, so every point is new
    rng = random.Random(14)
    values = [((rng.getrandbits(200), rng.getrandbits(100) | 1), rng.choice((1, -1))) for _ in range(2000)]
    barrier, made = threading.Barrier(8), [None] * 8

    def make(k):
        barrier.wait()
        made[k] = [BoundaryPoint.signed_exp(sign, FieldElem(x)) for x, sign in values]

    threads = [threading.Thread(target=make, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for column in zip(*made):
        assert all(p is column[0] for p in column)
    assert len({id(p) for p in made[0]}) == len(set(values))


def test_cached_encoding_and_embedding_equal_fresh_ones(collections, standalone_systems):
    systems = [s for col in collections.values() for s in col.systems] + [standalone_systems["farey"]]
    points = {p for s in systems for ch in s.chords(4) for p in (ch.lo, ch.hi)}
    assert len(points) > 1000
    for p in points:
        text, z = p.encode(), p.to_complex()
        assert p.encode() is text and p.to_complex() is z
        assert text == p._encode()
        assert BoundaryPoint.parse(text) is p
        fresh = p._embed()
        assert struct.pack("<dd", z.real, z.imag) == struct.pack("<dd", fresh.real, fresh.imag), p


def test_a_parsed_point_encodes_as_the_string_it_was_read_from():
    strings = set()
    for kind in ("finite_cyclic", "parabolic", "hyperbolic", "dihedral"):
        doc = collection_doc(elementary_col3(kind, n=5 if kind == "finite_cyclic" else None), 4)
        strings.update(doc["cusps"])
        strings.update(s for system in doc["systems"] for pair in system["chords"] for s in pair)
    assert len(strings) > 1000
    for s in strings:
        p = BoundaryPoint.parse(s)
        assert p.encode() == s == p._encode()
    # points first made by arithmetic, in each chart, and parsed afterwards
    rng = random.Random(25)
    for _ in range(50):
        x = random_field_elem(rng, span=10**9, den=10**6) * SQRT2 + Fraction(1, 7)
        for p in (BoundaryPoint.ext_real(x), BoundaryPoint.disk_angle(x), BoundaryPoint.signed_exp(-1, x)):
            assert p._enc is None  # nothing cached yet
            s = p._encode()
            assert BoundaryPoint.parse(s) is p
            assert p.encode() == s == p._encode()


def test_parse_rejects_other_spellings_of_a_point_whose_encoding_is_cached():
    cases = {
        fr(1, 2): ("r:2/4,0/1,0/1,0/1", "r:1/2,0/2,0/1,0/1", "r:+1/2,0/1,0/1,0/1", "r:1/2,0/1,0/1"),
        BoundaryPoint.disk_angle(FieldElem((1, 3))): ("θ:2/6,0/1,0/1,0/1", "θ:4/3,0/1,0/1,0/1"),
        BoundaryPoint.signed_exp(-1, FieldElem((1, 2))): ("e:-,3/6,0/1,0/1,0/1", "e:-,1/2,-0/1,0/1,0/1"),
    }
    for p, spellings in cases.items():
        assert BoundaryPoint.parse(p.encode()) is p
        for s in spellings:
            with pytest.raises(ValueError):
                BoundaryPoint.parse(s)


def test_threads_that_encode_fresh_points_get_equal_strings():
    rng = random.Random(18)
    values = [((rng.getrandbits(200), rng.getrandbits(100) | 1), (rng.getrandbits(90), 7)) for _ in range(500)]
    points = [BoundaryPoint.ext_real(FieldElem(a, b)) for a, b in values]
    assert all(p._enc is None and p._z is None for p in points)  # nothing cached yet
    barrier, got = threading.Barrier(8), [None] * 8

    def run(k):
        barrier.wait()
        got[k] = [(p.encode(), p.to_complex()) for p in points]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(g == got[0] for g in got)
    assert [text for text, _ in got[0]] == [p._encode() for p in points]
