import random
from fractions import Fraction

import pytest

from laminar.checks import refined_gap
from laminar.circle import BoundaryPoint
from laminar.constructions import farey_tessellation, half_farey_system
from laminar.errors import InvalidLamination, NotADistinctPair
from laminar.field import FieldElem
from laminar.lamination import (
    Chord,
    Interval,
    Truncation,
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

from conftest import INF, chord_er, fr, gap_refines


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
    for _ in range(60):
        chords = _random_truncation(rng)
        pts = sorted(endpoints_set(chords), key=lambda q: q.encode())
        outer = rng.choice([s for c in chords for s in c.sides()])
        probe = _ang(rng.randrange(719) + 1, 719)  # never an endpoint (prime grid)
        assert c_p_I(chords, probe, outer) == _oracle_chain(chords, probe, outer)


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
            ranks = t.ranks(u, v, p, q)
            if ranks is None:  # two off points in one slot: ranks cannot decide
                continue
            a, b, x, y = ranks
            assert rank_inside(a, x, b, m) == Interval(u, v).contains(p)
            assert rank_within(a, b, x, y, m) == interval_subset(Interval(u, v), Interval(p, q))
            assert rank_within(x, y, a, b, m) == interval_subset(Interval(p, q), Interval(u, v))


def test_ranks_defer_to_exact_predicates_within_one_slot():
    chords = [chord_er(0, 1), chord_er(2, 3)]
    t = Truncation(chords)
    p, q = fr(5, 4), fr(3, 2)  # both between the endpoints 1 and 2
    assert t.ranks(p) == t.ranks(q) and t.ranks(p, q) is None
    assert t.ranks(p, p) == t.ranks(p) * 2
    assert t.ranks(_ang(1, 3)) is None  # another chart
    # the chains still come out right, through the exact predicates
    for outer in (Interval(p, fr(7, 4)), Interval(fr(7, 4), p), Interval(p, fr(-1)), Interval(fr(7, 4), fr(6, 5))):
        assert c_p_I(chords, q, outer) == _oracle_chain(chords, q, outer)
    # outer runs from q almost all the way round to p
    assert c_p_I(chords, fr(1, 2), Interval(q, p)) == [Interval(fr(0), fr(1))]


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
    crossing = 0
    for _ in range(80):
        chords = [Chord(*rng.sample(grid, 2)) for _ in range(rng.randint(2, 12))]
        chords += rng.sample(chords, 2)  # duplicates are ignored
        rep = validate_truncation(chords)
        want = _old_violations(chords)
        assert [data for _, data in rep.violations] == want
        assert all(kind == "linked-pair" for kind, _ in rep.violations)
        crossing += bool(want)
        if want:
            with pytest.raises(InvalidLamination, match="linked-pair"):
                gaps(chords)
    assert crossing > 40


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


def test_coherence_candidate_agrees_with_exhaustive_scan():
    rng = random.Random(5)
    for _ in range(40):
        chords = _random_truncation(rng)
        fine = Truncation(chords)
        coarse = Truncation(rng.sample(chords, rng.randint(1, len(chords))))
        for g in range(len(fine.gaps())):
            got = refined_gap(fine, g, coarse)
            assert got is not None and got in _exhaustive_refined(fine, g, coarse)


def test_coherence_candidate_is_none_on_pairs_that_do_not_refine():
    hf = half_farey_system()
    # half-Farey depth 2 with the diagonal {0, 1} of the square 0, 1/2, 1, inf
    # flipped to {1/2, inf}: the depth-3 gaps do not all refine its gaps
    flipped = [c for c in hf.chords(2) if c != chord_er(0, 1)] + [chord_er((1, 2), "inf")]
    coarse, fine = Truncation(flipped), hf.truncation(3)
    assert coarse.ok
    misses = 0
    for g in range(len(fine.gaps())):
        got, want = refined_gap(fine, g, coarse), _exhaustive_refined(fine, g, coarse)
        if want:
            assert got is None or got in want
        else:
            assert got is None
            misses += 1
    assert misses > 0
