import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from laminar.checks import CheckEntry, CheckSuiteResult, check_coherence
from laminar.circle import BoundaryPoint, Chart, chart_convert
from laminar.constructions import elementary_col3, farey_system, farey_tessellation, half_farey_system
from laminar.dynamics import SequenceReport, Wing
from laminar.errors import ChartMismatch, IncomparableCharts, InvalidLamination, NotADistinctPair
from laminar.field import FieldElem
from laminar.lamination import (
    Chord,
    Col3Collection,
    Gap,
    Interval,
    LaminationSystem,
    ProbeOutcome,
    Separation,
    Truncation,
    ValidationReport,
    c_p_I,
    chords_to_intervals,
    endpoints_set,
    gaps,
    interval_subset,
    intervals_to_chords,
    lies_on,
    properly_lies_on,
    rainbow_probe,
    rank_inside,
    rank_within,
    separate_distinct_pair,
    strongly_transverse,
    transverse,
    truncation_of,
    unlinked,
    validate_truncation,
)
from laminar.mobius import SymbolicRoot
from laminar.render import RenderSpec

from conftest import INF, chain_scan, chord_er, fr, gap_refines, rank_sides, separation_top_scan


# -- independent rational-angle model (the brute-force oracle) -------------------


def _ang(num, den=24):
    return BoundaryPoint.disk_angle(FieldElem((num, den)))


def o_in(p: Fraction, a: Fraction, b: Fraction) -> bool:
    return Fraction(0) < (p - a) % 1 < (b - a) % 1


def o_subset(a, b, c, d, grid) -> bool:
    # endpoints are multiples of 1/grid, so half-grid sampling is exact
    for k in range(2 * grid):
        x = Fraction(k, 2 * grid)
        if o_in(x, a, b) and not o_in(x, c, d):
            return False
    return True


def o_unlinked(a, b, x, y) -> bool:
    if {a, b} & {x, y}:
        return True
    return o_in(x, a, b) == o_in(y, a, b)


def test_interval_predicates_against_rational_angle_model():
    rng = random.Random(77)
    grid = 24
    fracs = [Fraction(k, grid) for k in range(grid)]
    for _ in range(2500):
        a, b, c, d = (rng.choice(fracs) for _ in range(4))
        if a == b or c == d:
            continue
        i = Interval(_ang(a.numerator, a.denominator), _ang(b.numerator, b.denominator))
        j = Interval(_ang(c.numerator, c.denominator), _ang(d.numerator, d.denominator))
        p = rng.choice(fracs)
        pt = _ang(p.numerator, p.denominator)
        assert i.contains(pt) == o_in(p, a, b)
        assert interval_subset(i, j) == o_subset(a, b, c, d, grid)
        if {a, b} != {c, d}:
            assert unlinked(i.chord(), j.chord()) == o_unlinked(a, b, c, d)
            want = o_subset(a, b, c, d, grid) or o_subset(b, a, c, d, grid)
            assert lies_on(i.chord(), j) == want


def test_unlinked_examples():
    assert unlinked(chord_er(0, 2), chord_er(1, 3)) is False
    assert unlinked(chord_er(0, 1), chord_er(2, 3)) is True
    assert unlinked(chord_er(0, 1), chord_er(1, 3)) is True  # shared endpoint


def test_lies_on_examples():
    assert lies_on(chord_er(1, "inf"), Interval(fr(1), fr(0))) is True
    assert lies_on(chord_er(0, "inf"), Interval(fr(0), fr(1))) is False
    side = chord_er(0, 1).sides()[0]
    assert lies_on(chord_er(0, 1), side) is True
    assert properly_lies_on(chord_er(0, 1), side) is False


def test_validate_examples():
    tri = [chord_er(0, "inf"), chord_er(0, 1), chord_er(1, "inf")]
    rep = validate_truncation(tri)
    assert rep.ok
    # brute force over all pairs agrees
    assert all(unlinked(x, y) for x in tri for y in tri if x != y)

    bad = validate_truncation([chord_er(0, 2), chord_er(1, 3)])
    assert not bad.ok and bad.first[0] == "linked-pair"

    empty = validate_truncation([])
    assert not empty.ok and empty.first[0] == "empty-family"


def test_validate_reports_every_linked_pair():
    chords = [chord_er(0, 2), chord_er(1, 3), chord_er((1, 2), (3, 2)), chord_er(10, 11)]
    rep = validate_truncation(chords)
    brute = {
        frozenset((x.encode()[0], y.encode()[0]))
        for i, x in enumerate(chords)
        for y in chords[i + 1 :]
        if not unlinked(x, y)
    }
    got = {frozenset((a.encode()[0], b.encode()[0])) for _, (a, b) in rep.violations}
    assert got == brute and len(brute) == 2


# -- gaps ------------------------------------------------------------------------


def test_gaps_triangle_example():
    tri = [chord_er(0, "inf"), chord_er(0, 1), chord_er(1, "inf")]
    gs = gaps(tri)
    assert len(gs) == 4
    polys = [g for g in gs if g.is_polygon]
    assert len(polys) == 1
    assert polys[0].key() == frozenset({(fr(0), fr(1)), (fr(1), INF), (INF, fr(0))})
    assert set(polys[0].vertices) == {fr(0), fr(1), INF}
    singles = {g.intervals[0] for g in gs if len(g.intervals) == 1}
    assert singles == {Interval(fr(1), fr(0)), Interval(INF, fr(1)), Interval(fr(0), INF)}
    assert all(g.provisional for g in gs if len(g.intervals) == 1)


def test_gaps_single_chord_and_errors():
    gs = gaps([chord_er(0, "inf")])
    assert len(gs) == 2 and all(len(g.intervals) == 1 for g in gs)
    with pytest.raises(InvalidLamination):
        gaps([])
    with pytest.raises(InvalidLamination):
        gaps([chord_er(0, 2), chord_er(1, 3)])


def _random_truncation(rng, grid=60, max_pts=14):
    angles = sorted(rng.sample(range(grid), rng.randint(4, max_pts)))
    pts = [_ang(a, grid) for a in angles]
    chords = []
    stack = []
    for p in pts:
        if stack and rng.random() < 0.55:
            chords.append(Chord(stack.pop(), p))
        else:
            stack.append(p)
    if len(chords) < 2:
        return _random_truncation(rng, grid, max_pts)
    # occasionally add a shared-endpoint fan chord inside an existing chord
    if rng.random() < 0.5:
        base = rng.choice(chords)
        inner = [
            q
            for q in pts
            if q not in (base.lo, base.hi) and base.sides()[0].contains(q)
        ]
        if inner:
            extra = Chord(base.lo, rng.choice(inner))
            if all(unlinked(extra, c) for c in chords):
                chords.append(extra)
    return list(dict.fromkeys(chords))


def test_gap_structure_on_random_truncations():
    rng = random.Random(101)
    for _ in range(120):
        chords = _random_truncation(rng)
        assert validate_truncation(chords).ok
        gs = gaps(chords)
        # one gap per chord plus the root region
        assert len(gs) == len(chords) + 1
        # every chord side belongs to exactly one gap
        sides = [side for ch in chords for side in ch.sides()]
        counted = [iv for g in gs for iv in g.intervals]
        assert sorted(s.encode() for s in sides) == sorted(i.encode() for i in counted)
        for g in gs:
            ivs = list(g.intervals)
            for i in range(len(ivs)):
                for j in range(i + 1, len(ivs)):
                    assert not ivs[i].contains(ivs[j].start)
                    assert not ivs[i].contains(ivs[j].end)
            for ch in chords:
                assert any(lies_on(ch, iv) for iv in g.intervals)


def test_gap_partition_of_the_circle():
    rng = random.Random(55)
    for _ in range(40):
        chords = _random_truncation(rng)
        gs = gaps(chords)
        eps = endpoints_set(chords)
        for _ in range(25):
            probe = _ang(rng.randrange(720), 720)
            if probe in eps:
                continue
            owners = [g for g in gs if not any(iv.contains(probe) for iv in g.intervals)]
            assert len(owners) == 1


def test_gap_configuration_witnesses():
    rng = random.Random(9)
    for _ in range(25):
        chords = _random_truncation(rng, max_pts=10)
        gs = gaps(chords)
        for gi in gs:
            for gj in gs:
                if gi is gj:
                    continue
                found = False
                for i in gi.intervals:
                    for ip in gj.intervals:
                        if interval_subset(i.dual, ip):
                            if all(lies_on(j.chord(), ip) for j in gi.intervals) and all(
                                lies_on(jp.chord(), i) for jp in gj.intervals
                            ):
                                found = True
                assert found, (gi, gj)


# -- equivalence of representations ----------------------------------------------


def test_chords_intervals_involution():
    rng = random.Random(31)
    for _ in range(200):
        chords = set(_random_truncation(rng))
        assert intervals_to_chords(chords_to_intervals(chords)) == chords
    with pytest.raises(InvalidLamination):
        intervals_to_chords({Interval(fr(0), fr(1))})


# -- ordered chains ---------------------------------------------------------------


def _oracle_chain(chords, p, outer):
    found = [
        side
        for ch in dict.fromkeys(chords)
        for side in ch.sides()
        if side.contains(p) and interval_subset(side, outer)
    ]
    # verify the chain is totally ordered, then sort by inclusion
    for a in found:
        for b in found:
            assert a == b or interval_subset(a, b) or interval_subset(b, a)
    import functools

    return sorted(
        found,
        key=functools.cmp_to_key(lambda x, y: 0 if x == y else (-1 if interval_subset(x, y) else 1)),
    )


def test_c_p_I_farey_chain():
    chords = farey_tessellation(3)
    outer = Interval(fr(0), fr(1))
    half = fr(1, 2)
    chain = c_p_I(chords, half, outer)
    assert chain == _oracle_chain(chords, half, outer) == [outer]
    p = fr(5, 12)
    chain = c_p_I(chords, p, outer)
    assert chain == _oracle_chain(chords, p, outer)
    assert chain == [Interval(fr(1, 3), fr(1, 2)), Interval(fr(0), fr(1, 2)), outer]
    assert chain[-1] == outer  # outer itself is the maximum, it is in the family
    assert c_p_I(chords, fr(5), outer) == []  # p outside I


def test_c_p_I_random_against_oracle():
    rng = random.Random(3)
    wrapped = 0
    for _ in range(60):
        chords = _random_truncation(rng)
        pts = sorted(endpoints_set(chords), key=lambda q: q.encode())
        # a chord side, and an arc between endpoints that may pass the basepoint
        outers = [rng.choice([s for c in chords for s in c.sides()]), Interval(*rng.sample(pts, 2))]
        wrapped += sum(o.end.linear_key() < o.start.linear_key() for o in outers)
        # off every endpoint (prime grid), then on one
        for probe in (_ang(rng.randrange(719) + 1, 719), rng.choice(pts)):
            for outer in outers:
                assert c_p_I(chords, probe, outer) == _oracle_chain(chords, probe, outer)
    assert wrapped > 30


def _query_truncations(rng, collections):
    """Random truncations, then every elementary system at depths 1-3."""
    yield from (Truncation(_random_truncation(rng)) for _ in range(40))
    for col in collections.values():
        for system in col.systems:
            yield from (system.truncation(depth) for depth in (1, 2, 3))


def test_chain_walk_matches_side_scan(collections):
    rng = random.Random(15)
    wrapped = 0
    for t in _query_truncations(rng, collections):
        m, sides = t.modulus, rank_sides(t)
        for x in range(m):  # odd ranks lie off the truncation, even ranks are endpoints
            for c, d in (rng.choice(sides), rng.sample(range(m), 2)):
                wrapped += c > d
                assert [s[:2] for s in t.chain(x, c, d)] == chain_scan(t, x, c, d)
    assert wrapped > 3000


def test_separation_witness_step_matches_segment_scan(collections):
    rng = random.Random(16)
    for t in _query_truncations(rng, collections):
        m = t.modulus
        for _ in range(6):
            (f0, f1), (s0, s1) = rng.sample(t.segs, 2)
            if rng.random() < 0.5:
                f0, f1 = f1, f0
            for x in range(0, m, 2):
                walk = next((s for s in reversed(t.chain(x, f1, f0)) if rank_within(*s[:2], s1, s0, m)), None)
                assert walk == separation_top_scan(t, x, f1, f0, s1, s0)


# -- rainbows ----------------------------------------------------------------------


def test_rainbow_probe_examples(standalone_systems):
    hf = standalone_systems["half_farey"]
    assert rainbow_probe(hf, fr(1), 3).endpoint
    sqrt2_pt = BoundaryPoint.ext_real(FieldElem(0, 1))
    depths = [rainbow_probe(hf, sqrt2_pt, d).nesting for d in (4, 8, 16)]
    assert depths[0] < depths[1] < depths[2]
    assert rainbow_probe([chord_er(0, "inf")], fr(1, 2), 0).nesting == 1


# -- separation ----------------------------------------------------------------------


def test_separation_on_farey_truncation():
    chords = farey_tessellation(3)
    first = Interval(fr(0), fr(1, 2))
    second = Interval(fr(2), INF)
    sep = separate_distinct_pair(chords, first, second)
    assert sep is not None
    assert not sep.gap.is_leaf and len(sep.gap.intervals) >= 2
    assert interval_subset(first, sep.container_of_first)
    assert interval_subset(second, sep.container_of_second)
    assert sep.container_of_first in sep.gap.intervals
    assert sep.container_of_second in sep.gap.intervals
    # independent confirmation: some gap of the truncation separates the pair
    found = [
        g
        for g in gaps(chords)
        if not g.is_leaf
        and any(interval_subset(first, iv) for iv in g.intervals)
        and any(interval_subset(second, iv) for iv in g.intervals)
    ]
    assert sep.gap in found


def test_separation_errors_and_not_separated():
    chords = farey_tessellation(2)
    side, dual = chord_er(0, 1).sides()
    with pytest.raises(NotADistinctPair):
        separate_distinct_pair(chords, side, dual)
    with pytest.raises(NotADistinctPair):
        separate_distinct_pair(chords, side, side)
    with pytest.raises(NotADistinctPair):
        separate_distinct_pair(chords, Interval(fr(0), fr(1, 2)), Interval(fr(1, 4), fr(1, 3)))
    bare = [chord_er(0, 1), chord_er(2, 3)]
    out = separate_distinct_pair(bare, Interval(fr(0), fr(1)), Interval(fr(2), fr(3)))
    assert out is None  # no witness at this depth


def test_separation_converts_sides_from_another_chart():
    chords = farey_system().chords(2)  # in r; theta 0, 1/4, 1/2 are r:inf, r:-1, r:0
    want = separate_distinct_pair(chords, Interval(INF, fr(-1)), Interval(fr(-1), fr(0)))
    got = separate_distinct_pair(chords, Interval(_ang(0), _ang(6)), Interval(_ang(6), _ang(12)))
    assert got == want and got.witness is fr(1)
    with pytest.raises(NotADistinctPair):  # converted, they are a leaf's two sides
        separate_distinct_pair(chords, Interval(_ang(0), _ang(6)), Interval(fr(-1), INF))


def test_transversality_refuses_chord_sets_in_two_charts():
    theta, r = Chord(_ang(0), _ang(12)), chord_er(0, "inf")  # one leaf, given in two charts
    for pair in (([theta], [r]), ([theta, r], [r])):
        for fn in (transverse, strongly_transverse):
            with pytest.raises(ChartMismatch, match="mixed charts disk_angle and ext_real"):
                fn(*pair)


def test_transversality_helpers():
    a = farey_tessellation(2)
    assert not transverse(a, a)
    shifted = [chord_er((1, 7), (2, 7))]
    ok, common = strongly_transverse(a, shifted)
    assert ok and common == set()
    ok, common = strongly_transverse(a, [chord_er(1, (1, 7))])
    assert not ok and common == {fr(1)}


def test_duality_is_an_involution():
    rng = random.Random(71)
    for _ in range(100):
        chords = _random_truncation(rng)
        for ch in chords:
            a, b = ch.sides()
            assert a.dual == b and b.dual == a
            assert a.dual.dual == a


def test_gaps_match_independent_face_oracle():
    # Independent region oracle: midpoints of consecutive-endpoint arcs lie in
    # the same complementary region iff no chord separates them (parity of
    # membership in one chord side).  The grouping must match gap ownership.
    rng = random.Random(404)
    for _ in range(60):
        chords = _random_truncation(rng, grid=60, max_pts=12)
        gs = gaps(chords)
        eps_sorted = sorted(
            {p for c in chords for p in (c.lo, c.hi)}, key=lambda p: p.linear_key()
        )
        m = len(eps_sorted)
        probes = []
        for i in range(m):
            a = eps_sorted[i].x.a
            b = eps_sorted[(i + 1) % m].x.a
            if (b - a) % 1 == 0:
                continue
            mid = a + Fraction(int(((b - a) % 1).numerator), int(((b - a) % 1).denominator)) / 2
            probes.append(_ang(int((mid % 1).numerator), int((mid % 1).denominator)))

        def separated(p, q):
            for ch in chords:
                side = ch.sides()[0]
                if side.contains(p) != side.contains(q):
                    return True
            return False

        def owner(p):
            hits = [k for k, g in enumerate(gs) if not any(iv.contains(p) for iv in g.intervals)]
            assert len(hits) == 1
            return hits[0]

        owners = [owner(p) for p in probes]
        for i in range(len(probes)):
            for j in range(i + 1, len(probes)):
                assert (owners[i] == owners[j]) == (not separated(probes[i], probes[j]))


def test_separation_finds_gap_whenever_a_witness_exists():
    rng = random.Random(606)
    tried = 0
    for _ in range(80):
        chords = _random_truncation(rng, grid=60, max_pts=12)
        if len(chords) < 3:
            continue
        c1, c2 = rng.sample(chords, 2)
        sides1 = [s for s in c1.sides() if not s.contains(c2.lo) and not s.contains(c2.hi)]
        sides2 = [s for s in c2.sides() if not s.contains(c1.lo) and not s.contains(c1.hi)]
        if not sides1 or not sides2:
            continue
        first, second = sides1[0], sides2[0]
        if second == first.dual:
            continue
        tried += 1
        sep = separate_distinct_pair(chords, first, second)
        d1, d2 = first.dual, second.dual
        witness_exists = False
        for p in endpoints_set(chords):
            if p in (first.start, first.end, second.start, second.end):
                continue
            if not (d1.contains(p) and d2.contains(p)):
                continue
            if any(
                side.contains(p) and interval_subset(side, d1) and interval_subset(side, d2)
                for ch in chords
                for side in ch.sides()
            ):
                witness_exists = True
                break
        if witness_exists:
            assert sep is not None
        if sep is not None:
            assert interval_subset(first, sep.container_of_first)
            assert interval_subset(second, sep.container_of_second)
    assert tried > 30


# -- ranked truncations ------------------------------------------------------------


def _off_point(rng):
    return _ang(rng.randrange(719) + 1, 719)  # never an endpoint of a grid-60 truncation


def test_rank_predicates_agree_with_exact_predicates():
    rng = random.Random(2024)
    for _ in range(60):
        chords = _random_truncation(rng)
        t = Truncation(chords)
        m = t.modulus
        pts = list(dict.fromkeys([*t.points, *(_off_point(rng) for _ in range(8))]))
        sides = [s for ch in chords for s in ch.sides()]
        for _ in range(100):
            iv, jv, p = rng.choice(sides), rng.choice(sides), rng.choice(pts)
            (a, b), (c, d), (x,) = t.ranks(iv.start, iv.end), t.ranks(jv.start, jv.end), t.ranks(p)
            assert rank_inside(a, x, b, m) == iv.contains(p)
            assert rank_within(a, b, c, d, m) == interval_subset(iv, jv)
        for _ in range(100):
            u, v, p, q = rng.sample(pts, 4)
            a, b, x, y = ranks = t.ranks(u, v, p, q)
            if len(set(ranks)) < 4:  # two distinct off points in one slot: ranks cannot decide
                continue
            assert rank_inside(a, x, b, m) == Interval(u, v).contains(p)
            assert rank_within(a, b, x, y, m) == interval_subset(Interval(u, v), Interval(p, q))
            assert rank_within(x, y, a, b, m) == interval_subset(Interval(p, q), Interval(u, v))


def test_points_in_one_slot_share_its_rank():
    chords = [chord_er(0, 1), chord_er(2, 3)]
    t = Truncation(chords)
    p, q = fr(5, 4), fr(3, 2)  # both between the endpoints 1 and 2
    assert t.ranks(p) == t.ranks(q) == [3] and t.ranks(p, q) == [3, 3]
    assert t.ranks(p, p) == t.ranks(p) * 2
    # another chart: theta 1/3 is r:-1/sqrt3, in the wrap slot below 0; theta 1/7 has no real image
    assert t.ranks(_ang(1, 3), fr(-1)) == [7, 7]
    with pytest.raises(IncomparableCharts):
        t.ranks(_ang(1, 7))
    # the chains still come out right
    for outer in (Interval(p, fr(7, 4)), Interval(fr(7, 4), p), Interval(p, fr(-1)), Interval(fr(7, 4), fr(6, 5))):
        assert c_p_I(chords, q, outer) == _oracle_chain(chords, q, outer)
    # outer runs from q almost all the way round to p
    assert c_p_I(chords, fr(1, 2), Interval(q, p)) == [Interval(fr(0), fr(1))]


def _in_slot(t, k, rng):
    """A point strictly inside slot k of t, the ccw gap from endpoint k - 1 to
    endpoint k (slot 0 is the wrap slot), in t's chart."""
    lo, hi = t.points[k - 1], t.points[k]
    f = FieldElem((rng.randint(1, 99), 100))
    if t.chart == Chart.DISK_ANGLE:
        return BoundaryPoint.disk_angle(lo.x + ((hi.x + 1 if k == 0 else hi.x) - lo.x) * f)
    up = None if lo is INF else BoundaryPoint.ext_real(lo.x + rng.randint(1, 9) * f)
    if k > 0:
        return up if hi is INF else BoundaryPoint.ext_real(lo.x + (hi.x - lo.x) * f)
    below = BoundaryPoint.ext_real(hi.x - rng.randint(1, 9) * f)  # slot 0 holds inf unless inf is lo
    return below if up is None else rng.choice([below, INF, up])


def _slot_queries(rng):
    """(chords, t, p, outer) on random truncations whose endpoints are all
    shared points theta k/24, half of them given as reals: p and the ends of
    outer mostly in one slot, sometimes in the other chart."""
    charts = (Chart.DISK_ANGLE, Chart.EXT_REAL)
    shared = {chart: [chart_convert(_ang(k), chart) for k in range(24)] for chart in charts}
    for n in range(120):
        chords = _random_truncation(rng, grid=24, max_pts=10)
        if n % 2:
            chords = [Chord(*(chart_convert(q, Chart.EXT_REAL) for q in (ch.lo, ch.hi))) for ch in chords]
        t = Truncation(chords)
        here, other = shared[t.chart], shared[charts[1 - n % 2]]
        slots = len(t.points)
        for _ in range(20):
            k, elsewhere = rng.choice([0, rng.randrange(slots)]), rng.randrange(slots)
            s = _in_slot(t, k, rng)
            e = rng.choice([_in_slot(t, k, rng), _in_slot(t, k, rng), rng.choice(t.points)])
            e = _in_slot(t, elsewhere, rng) if rng.random() < 0.25 else e
            if rng.random() < 0.25:
                s, e = rng.sample(other, 2)
            if rng.random() < 0.5:
                s, e = e, s
            p = rng.choice([_in_slot(t, k, rng), rng.choice(here), rng.choice(other), _in_slot(t, elsewhere, rng)])
            if s != e:
                yield chords, t, p, Interval(s, e)


def test_c_p_I_in_shared_slots_and_across_charts_against_oracle():
    """Every chain on ranks: p in one slot with an end of outer, both ends of
    outer in one slot (the short arc inside it and the long arc round the
    circle, wrap slot included), and p or outer in the other chart of the 24
    shared points theta k/24 <-> r:-cot(pi k/24), in both directions.  The
    oracle reads p and outer in the chords' chart."""
    seen = dict.fromkeys(("queries", "p_slot", "short", "long", "wrap", "p_chart", "outer_chart"), 0)
    for chords, t, p, outer in _slot_queries(random.Random(22)):
        P, S, E = (chart_convert(q, t.chart) for q in (p, outer.start, outer.end))
        (x,), (c,), (d,) = t.ranks(P), t.ranks(S), t.ranks(E)
        seen["queries"] += 1
        seen["p_slot"] += x % 2 == 1 and x in (c, d) and P not in (S, E)
        if c == d:
            seen["long" if Interval(S, E).contains(t.points[0]) else "short"] += 1
            seen["wrap"] += c == t.modulus - 1
        seen["p_chart"] += p.chart != t.chart
        seen["outer_chart"] += outer.start.chart != t.chart
        assert c_p_I(chords, p, outer) == _oracle_chain(chords, P, Interval(S, E)), (p, outer)
    assert seen["queries"] > 2000 and min(seen.values()) > 150, seen


def test_c_p_I_converts_an_outer_that_ends_on_a_chord_endpoint_in_another_chart():
    chords = [chord_er(-1, 1), chord_er(0, 1)]
    outer = Interval(_ang(6), _ang(18))  # r:-1 to r:1, given as angles
    assert c_p_I(chords, fr(1, 2), outer) == [Interval(fr(0), fr(1)), Interval(fr(-1), fr(1))]
    assert c_p_I(chords, fr(-1, 2), outer) == [Interval(fr(-1), fr(1))]


def test_c_p_I_raises_on_an_outer_with_no_image_in_the_chords_chart():
    # outer is converted into the chords' chart, never the chords into outer's,
    # also where no side holding p could lie in outer
    outer = Interval(fr(7, 3), fr(5))  # no disk_angle image
    shared_ends = [Chord(_ang(0), _ang(6)), Chord(_ang(12), _ang(18))]
    for chords, p in ((shared_ends, _ang(3)), (shared_ends, _ang(0)), ([Chord(_ang(1, 7), _ang(3, 7))], _ang(1, 7))):
        with pytest.raises(IncomparableCharts):
            c_p_I(chords, p, outer)
    with pytest.raises(IncomparableCharts):
        c_p_I(shared_ends, fr(7, 3), Interval(_ang(1), _ang(2)))  # nor has this p an image
    assert c_p_I([], fr(7, 3), Interval(_ang(1), _ang(2))) == []  # no chords, nothing to compare


def test_arc_predicates_across_charts_against_rational_angle_model():
    """Every arc predicate converts a point from another chart as
    ``circular_order`` does: on intervals between the 24 shared points
    theta k/24 <-> r:-cot(pi k/24), each query is asked with ``outer`` in r
    and the rest in theta, then the other way round, against the one-chart
    rational-angle model.  Five points per query make shared ends common."""
    rng, grid, mismatches, shared = random.Random(23), 24, [], 0
    for _ in range(1500):
        ks = [Fraction(k, grid) for k in rng.sample(range(grid), 5)]
        a, b, c, d, p = (rng.choice(ks) for _ in range(5))
        if a == b or c == d:
            continue
        shared += len({a, b} & {c, d}) > 0
        want = {
            "subset": o_subset(a, b, c, d, grid),
            "lies_on": o_subset(a, b, c, d, grid) or o_subset(b, a, c, d, grid),
            "properly": o_in(a, c, d) and o_in(b, c, d),
            "closed": p in (c, d) or o_in(p, c, d),
            "unlinked": o_unlinked(a, b, c, d),
        }
        for inner_chart, outer_chart in ((Chart.DISK_ANGLE, Chart.EXT_REAL), (Chart.EXT_REAL, Chart.DISK_ANGLE)):
            A, B, P = (chart_convert(_ang(x.numerator, x.denominator), inner_chart) for x in (a, b, p))
            C, D = (chart_convert(_ang(x.numerator, x.denominator), outer_chart) for x in (c, d))
            inner, outer = Interval(A, B), Interval(C, D)
            got = {
                "subset": interval_subset(inner, outer),
                "lies_on": lies_on(inner.chord(), outer),
                "properly": properly_lies_on(inner.chord(), outer),
                "closed": outer.contains_closed(P),
                "unlinked": unlinked(inner.chord(), outer.chord()),
            }
            mismatches += [(name, inner, outer, P) for name in want if got[name] != want[name]]
    assert mismatches == []
    assert shared > 500, shared


def test_rainbow_probe_converts_a_point_from_another_chart():
    farey = farey_system()
    for k in range(24):
        p = _ang(k)
        assert rainbow_probe(farey, p, 3) == rainbow_probe(farey, chart_convert(p, Chart.EXT_REAL), 3), p
    assert repr(rainbow_probe(farey, _ang(3), 3)) == "NestedDepth(6)"  # theta 1/8 is r:-1-sqrt2
    assert rainbow_probe(farey, _ang(6), 3).endpoint  # theta 1/4 is r:-1
    with pytest.raises(IncomparableCharts):
        rainbow_probe(farey, _ang(1, 7), 3)


def _old_violations(chords):
    chords = list(dict.fromkeys(chords))
    return [
        (chords[a], chords[b])
        for a in range(len(chords))
        for b in range(a + 1, len(chords))
        if not unlinked(chords[a], chords[b])
    ]


def test_validate_lists_linked_pairs_in_caller_order():
    rng = random.Random(8)
    grid = [_ang(k, 24) for k in range(24)]
    inputs = []
    for _ in range(80):
        chords = [Chord(*rng.sample(grid, 2)) for _ in range(rng.randint(2, 12))]
        inputs.append(chords + rng.sample(chords, 2))  # duplicates are ignored
    # crossing-heavy sets, where chords sharing an endpoint or an end are common
    inputs += [[Chord(*rng.sample(grid, 2)) for _ in range(rng.randint(20, 60))] for _ in range(40)]
    # one crossing pair, each chord of it repeated: listed once
    inputs.append([chord_er(0, 2), chord_er(1, 3), chord_er(0, 2), chord_er(5, 6), chord_er(1, 3)])
    crossing = 0
    for chords in inputs:
        rep = validate_truncation(chords)
        want = _old_violations(chords)
        assert [data for _, data in rep.violations] == want
        assert all(kind == "linked-pair" for kind, _ in rep.violations)
        crossing += bool(want)
        if want:
            with pytest.raises(InvalidLamination, match="linked-pair"):
                gaps(chords)
    assert crossing > 100


def test_a_chord_crossing_a_deep_system_is_listed_and_raised_without_a_pair_scan():
    # the depth-7 dihedral system 0 (7,681 chords) plus the chord from its
    # first endpoint in rank to its middle one, placed mid-list so that it is
    # the later chord of some linked pairs and the earlier one of the others
    chords = list(elementary_col3("dihedral").systems[0].chords(7))
    points = Truncation(chords).points
    planted = Chord(points[0], points[len(points) // 2])
    chords.insert(len(chords) // 2, planted)
    at = chords.index(planted)
    want = [(ch, planted) if k < at else (planted, ch) for k, ch in enumerate(chords) if not unlinked(planted, ch)]
    t0 = time.perf_counter()
    rep = validate_truncation(chords)
    with pytest.raises(InvalidLamination) as raised:
        gaps(chords)
    seconds = time.perf_counter() - t0
    assert len(want) > 20 and [data for _, data in rep.violations] == want
    assert str(raised.value) == rep.describe()
    assert seconds < 2.0, seconds


def test_c_p_I_rejects_crossing_sets():
    rng = random.Random(8)
    grid = [_ang(k, 24) for k in range(24)]
    crossing = 0
    for _ in range(300):
        chords = [Chord(*rng.sample(grid, 2)) for _ in range(rng.randint(2, 12))]
        if validate_truncation(chords).ok:
            continue
        crossing += 1
        outer = rng.choice(rng.choice(chords).sides())
        with pytest.raises(InvalidLamination, match="linked-pair"):
            c_p_I(chords, rng.choice(grid), outer)
    assert crossing > 200
    assert c_p_I([], grid[0], Interval(grid[1], grid[2])) == []  # no chords, no chain


def test_memo_answers_equal_for_permuted_chord_lists():
    rng = random.Random(12)
    for _ in range(30):
        chords = _random_truncation(rng)
        perm = rng.sample(chords, len(chords))
        assert truncation_of(perm) is truncation_of(chords)
        assert gaps(perm) == gaps(chords)
        assert validate_truncation(perm).ok
        outer = rng.choice([s for c in chords for s in c.sides()])
        p = _off_point(rng)
        assert c_p_I(perm, p, outer) == c_p_I(chords, p, outer) == _oracle_chain(chords, p, outer)
        assert rainbow_probe(perm, p, 0) == rainbow_probe(chords, p, 0)
        c1, c2 = rng.sample(chords, 2)
        first = next(s for s in c1.sides() if not s.contains(c2.lo) and not s.contains(c2.hi))
        second = next(s for s in c2.sides() if not s.contains(c1.lo) and not s.contains(c1.hi))
        if second != first.dual:
            assert separate_distinct_pair(perm, first, second) == separate_distinct_pair(chords, first, second)


def test_memo_tells_equal_length_sets_apart():
    a = [chord_er(0, 1), chord_er(2, 3)]
    b = [chord_er(0, 1), chord_er(2, 4)]
    ta, tb = truncation_of(a), truncation_of(b)
    assert ta is not tb
    assert ta.node_of.keys() == set(a) and tb.node_of.keys() == set(b)
    assert truncation_of(list(a)) is ta and truncation_of(b[::-1]) is tb


def test_memo_returns_the_callers_set_across_threads():
    rng = random.Random(30)
    sets = []
    while len(sets) < 6:  # more sets than the memo holds
        chords = _random_truncation(rng)
        if all(set(chords) != set(s) for s in sets):
            sets.append(chords)
    barrier, wrong = threading.Barrier(8), []

    def query(seed):
        r = random.Random(seed)
        barrier.wait()
        for _ in range(300):
            chords = r.choice(sets)
            if r.random() < 0.5:
                chords = r.sample(chords, len(chords))
            if truncation_of(chords).node_of.keys() != set(chords):
                wrong.append(chords)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the memo too
    try:
        threads = [threading.Thread(target=query, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not wrong


def _oracle_nesting(chords, p):
    """Longest chain of chord sides around p, by exact inclusion."""
    around = sorted(
        (s for ch in chords for s in ch.sides() if s.contains(p)),
        key=lambda s: sum(1 for q in endpoints_set(chords) if s.contains(q)),
    )
    best = {}
    for s in around:
        best[s] = 1 + max((best[t] for t in best if interval_subset(t, s)), default=0)
    return max(best.values(), default=0)


def test_rainbow_nesting_against_longest_chain_oracle():
    rng = random.Random(21)
    for _ in range(80):
        chords = _random_truncation(rng)
        for p in [_off_point(rng) for _ in range(6)]:
            assert rainbow_probe(chords, p, 0).nesting == _oracle_nesting(chords, p)
        assert rainbow_probe(chords, chords[0].lo, 0).endpoint


def _exhaustive_refined(fine, g, coarse):
    return [c for c in coarse.gaps() if gap_refines(fine.gaps()[g], c)]


def test_every_gap_refines_a_gap_of_any_subset_of_its_chords():
    # the property check_coherence rests on: a valid truncation's gaps each
    # lie inside some gap of any nonempty subset of its chords
    rng = random.Random(5)
    for _ in range(40):
        chords = _random_truncation(rng)
        fine = Truncation(chords)
        coarse = Truncation(rng.sample(chords, rng.randint(1, len(chords))))
        for g in range(len(fine.gaps())):
            assert _exhaustive_refined(fine, g, coarse), (chords, g)


def _flipped_half_farey():
    """Half-Farey depth 2 with the diagonal {0, 1} of the square 0, 1/2, 1,
    inf flipped to {1/2, inf}: valid, but not a subset of depth 3."""
    hf = half_farey_system()
    return [c for c in hf.chords(2) if c != chord_er(0, 1)] + [chord_er((1, 2), "inf")], hf


def test_a_pair_that_is_not_monotone_can_fail_to_refine():
    flipped, hf = _flipped_half_farey()
    coarse, fine = Truncation(flipped), hf.truncation(3)
    assert coarse.ok and not all(ch in fine.node_of for ch in flipped)
    assert any(not _exhaustive_refined(fine, g, coarse) for g in range(len(fine.gaps())))


def _coherence(builder):
    result = CheckSuiteResult()
    check_coherence(result, "s", LaminationSystem("s", Chart.EXT_REAL, builder), (1, 2, 3))
    (entry,) = result.entries
    return entry.status, entry.details


def test_check_coherence_on_systems():
    flipped, hf = _flipped_half_farey()
    assert _coherence(hf.chords) == ("pass", {"depths": [1, 2, 3]})
    assert _coherence(lambda d: flipped if d == 2 else hf.chords(d)) == (
        "fail",
        {"depths": [1, 2], "reason": "not monotone"},
    )
    # depth 3 adds a chord crossing {0, 1}: depths 1 and 2 pass, the pair (2, 3) fails on validity
    crossing = [*hf.chords(3), chord_er((1, 2), 2)]
    want = InvalidLamination(validate_truncation(Truncation(crossing).chords).describe())
    assert _coherence(lambda d: crossing if d == 3 else hf.chords(d)) == ("fail", {"error": repr(want)})


def test_chords_are_unordered_pairs_and_reject_bad_endpoints():
    u, v = fr(1, 3), fr(-2)
    a, b = Chord(u, v), Chord(v, u)
    assert a == b and hash(a) == hash(b) and (a.lo, a.hi) == (b.lo, b.hi) == (v, u)
    assert Chord(fr(-2), fr(1, 3)) == a  # from points made again
    assert Interval(u, v) != Interval(v, u) and Interval(u, v) == Interval(fr(1, 3), fr(-2))
    disk = BoundaryPoint.disk_angle(FieldElem((1, 2)))
    for bad, err in (((u, fr(1, 3)), ValueError), ((INF, INF), ValueError), ((fr(0), disk), ChartMismatch)):
        with pytest.raises(err):
            Chord(*bad)
        with pytest.raises(err):
            Interval(*bad)


def test_value_types_and_reports_keep_their_contract():
    """Value types compare and hash by their fields and refuse assignment;
    reports are mutable and never share a default list or dict."""
    g = gaps(farey_tessellation(1))[0]
    iv = g.intervals[0]
    one, two = FieldElem(1), FieldElem(2)
    values = {
        Gap: ((g.intervals, g.vertices, g.arcs), "arcs"),
        ProbeOutcome: ((False, 2), "nesting"),
        Separation: ((g, fr(0), iv, iv, iv), "witness"),
        SymbolicRoot: ((one, two, -one, 1), "branch"),
        Wing: ((1, iv, iv, iv), "k"),
        RenderSpec: ((400, 2.0), "size"),
        Col3Collection: (("trivial", (), (), (), {}), "kind"),
    }
    for cls, (args, name) in values.items():
        a, b = cls(*args), cls(*args)
        assert a == b, cls
        if cls is not Col3Collection:  # its params dict is unhashable
            assert hash(a) == hash(b), cls
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert RenderSpec() == RenderSpec(720, 1.4) and RenderSpec(size=400).stroke_width == 1.4
    chords = [chord_er(0, "inf")]
    assert repr(rainbow_probe(chords, fr(0), 0)) == "Endpoint"
    assert repr(rainbow_probe(chords, fr(1, 2), 0)) == "NestedDepth(1)"

    v1, v2 = ValidationReport(), ValidationReport()
    v1.violations.append(("empty-family", None))
    assert v2.violations == [] and v2.ok and not v1.ok
    r1, r2 = CheckSuiteResult(), CheckSuiteResult()
    r1.entries.append(CheckEntry("axioms", "pass"))
    assert r2.entries == [] and r1.ok
    e1, e2 = CheckEntry("a", "fail"), CheckEntry("b", "fail")
    e1.details["x"] = 1
    assert e2.details == {}
    e1.seconds += 0.5
    assert e1.seconds == 0.5 and e1.line() == "[   fail] a (0.50s)  {'x': 1}"
    s1, s2 = SequenceReport("inconclusive"), SequenceReport("inconclusive")
    s1.witness["a"], s1.params["b"] = 1, 2
    assert s2.to_json() == {"verdict": "inconclusive", "witness": {}, "params": {}}
