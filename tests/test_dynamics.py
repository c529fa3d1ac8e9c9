import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from laminar.circle import BoundaryPoint
from laminar.dynamics import (
    TripleRegion,
    _angle_to_real,
    _circ_dist,
    _min_gap,
    _real_to_angle,
    angel_wings,
    approximation_sequence_check,
    cusp_points,
    monotone_convergence_check,
    quasi_rainbow_check,
    sample_triples,
    triple_escape_sampler,
)
from laminar.errors import (
    BadIntervalChoice,
    DegenerateSample,
    LeafNotAtFixedPoint,
    NotParabolic,
)
from laminar.field import SQRT2, SQRT3, FieldElem
from laminar.lamination import Chord, Interval, interval_subset, interval_subset_closed
from laminar.mobius import AngleShift, ExpAffine, MobiusMap

from conftest import INF, chord_er, float_act, fr, sampler_reference

T = MobiusMap(1, 1, 0, 1)
S = MobiusMap(0, -1, 1, 0)
DIAG = MobiusMap(2, 0, 0, FieldElem((1, 2)))


def test_cusp_point_examples():
    found = set(cusp_points([S, T], 3))
    assert {INF, fr(0), fr(-1), fr(1)} <= found
    assert cusp_points([DIAG], 4) == []
    assert cusp_points([T], 2) == [INF]
    assert cusp_points([], 6) == []


def test_cusp_points_of_chart_action_groups(collections):
    for kind, col in collections.items():
        found = set(cusp_points(col.generators, 6))
        assert found == set(col.cusps), (kind, found)


def test_angel_wings_translation_example():
    wings = angel_wings(T, chord_er(0, "inf"), 20)
    for k, w in enumerate(wings, start=1):
        assert w.u == Interval(fr(k), fr(-k))
        assert w.inner == Interval(fr(k), INF)
        assert w.outer == Interval(INF, fr(-k))
    # closure nesting: [2,-2] through inf sits inside (1,-1) through inf
    for a, b in zip(wings, wings[1:]):
        assert interval_subset_closed(b.u, a.u)
        assert interval_subset(b.inner, a.inner)
        assert interval_subset(b.outer, a.outer)


def test_angel_wings_errors():
    with pytest.raises(NotParabolic):
        angel_wings(DIAG, chord_er(0, "inf"), 3)
    with pytest.raises(LeafNotAtFixedPoint):
        angel_wings(T, chord_er(0, 1), 3)
    leaf = chord_er(0, "inf")
    bad_side = Interval(INF, fr(0))  # does not contain T(0) = 1
    with pytest.raises(BadIntervalChoice):
        angel_wings(T, leaf, 3, interval=bad_side)
    with pytest.raises(BadIntervalChoice):
        angel_wings(T, leaf, 3, interval=Interval(fr(5), fr(6)))
    good = angel_wings(T, leaf, 3, interval=Interval(fr(0), INF))
    assert good[0].u == Interval(fr(1), fr(-1))


def test_angel_wings_of_conjugated_parabolic():
    g = S.compose(T).compose(S.inverse())  # parabolic fixing 0
    pts, _ = g.fixed_points()
    assert pts == [fr(0)]
    wings = angel_wings(g, Chord(fr(0), fr(1)), 8)
    for a, b in zip(wings, wings[1:]):
        assert interval_subset_closed(b.u, a.u)
        assert a.u.contains(fr(0))


def test_quasi_rainbow_checks():
    wings = angel_wings(T, chord_er(0, "inf"), 30)
    assert quasi_rainbow_check([w.inner for w in wings], tol=0.1)
    assert not quasi_rainbow_check([w.inner for w in reversed(wings)], tol=0.1)
    assert not quasi_rainbow_check([wings[0].inner], tol=0.1)
    # nested but too wide for the tolerance
    assert not quasi_rainbow_check([w.inner for w in wings[:3]], tol=1e-4)


def test_monotone_convergence_examples():
    seq = [fr(1, k) for k in range(1, 12)]
    assert monotone_convergence_check(seq, fr(0))
    alt = [fr((-1) ** k, k) for k in range(1, 12)]
    assert not monotone_convergence_check(alt, fr(0))
    assert not monotone_convergence_check(seq[:1], fr(0))


def test_approximation_sequence_examples():
    powers = [DIAG]
    for _ in range(6):
        powers.append(powers[-1].compose(DIAG))
    assert approximation_sequence_check(powers, (fr(0), INF))
    # subsequence stability
    assert approximation_sequence_check(powers[::2], (fr(0), INF))
    assert approximation_sequence_check(powers[1:], (fr(0), INF))

    trans = [T]
    for _ in range(5):
        trans.append(trans[-1].compose(T))
    assert not approximation_sequence_check(trans, (fr(0), INF))

    other = T.compose(DIAG.compose(T.inverse()))  # axis {1, inf}
    mixed = [DIAG, other, DIAG.compose(DIAG), other.compose(other)]
    assert not approximation_sequence_check(mixed, (fr(0), INF))

    with pytest.raises(ValueError):
        approximation_sequence_check([T, T], (fr(0), INF))


def test_approximation_sequence_on_a_symbolic_fixed_pair():
    g = MobiusMap(2, 1, 1, 1)  # fixes (1 +- sqrt5)/2, outside the field
    pts, sym = g.fixed_points()
    assert pts == [] and len(sym) == 2
    powers = [g]
    for _ in range(5):
        powers.append(powers[-1].compose(g))
    assert approximation_sequence_check(powers, tuple(sym))
    assert not approximation_sequence_check(powers, (fr(0), INF))


def test_float_matrix_action_matches_exact_apply():
    rng = random.Random(8)

    def elem():
        return FieldElem((rng.randint(-30, 30), rng.randint(1, 7)), (rng.randint(-3, 3), rng.randint(1, 4)))

    ext = [INF, fr(0)] + [BoundaryPoint.ext_real(elem()) for _ in range(20)]
    disk = [BoundaryPoint.disk_angle(x) for x in [0] + [elem() for _ in range(20)]]
    exp = [BoundaryPoint.exp_zero(), BoundaryPoint.exp_inf()] + [
        BoundaryPoint.signed_exp(rng.choice((1, -1)), elem() / 8) for _ in range(20)
    ]
    cases = [
        (S, ext),  # sends inf to 0 and 0 to inf
        (T, ext),
        (MobiusMap(2, 1, 1, 1), ext),
        (MobiusMap(1, SQRT3, SQRT3, 4), ext),
        (AngleShift(FieldElem((1, 4))), disk),  # theta = 0 goes to 1/4, not 3/4
        (AngleShift(SQRT2 * 3), disk),
        (ExpAffine(False, SQRT2), exp),
        (ExpAffine(False, FieldElem(-2)), exp),
        (ExpAffine(True, FieldElem((3, 2))), exp),
        (ExpAffine(True, -SQRT3), exp),
    ]
    for g, pts in cases:
        m = g.to_float_matrix()
        for p in pts:
            got = _real_to_angle(float_act(m, _angle_to_real(p.to_angle())))
            assert _circ_dist(got, g.apply(p).to_angle()) < 1e-9, (g, p)


def test_min_gap_collapses_exactly_when_some_pair_is_within_eps():
    # on sorted triples in [0, 1), random, wrapping round 0 and dyadic (ties
    # and repeated angles), against eps values that include every pairwise
    # distance and its float neighbours
    rng = random.Random(5)
    below_one = math.nextafter(1.0, 0.0)
    triples = []
    for _ in range(4000):
        triples.append(sorted(rng.random() for _ in range(3)))
        triples.append(sorted([rng.uniform(0.0, 1e-6), min(1.0 - rng.uniform(0.0, 1e-6), below_one), rng.random()]))
        triples.append(sorted(rng.randrange(4096) / 4096 for _ in range(3)))
    for s in triples:
        dists = [_circ_dist(x, y) for x, y in itertools.combinations(s, 2)]
        near = [math.nextafter(d, t) for d in dists for t in (0.0, 1.0)]
        for eps in (0.0, 1e-6, 0.05, 1 / 4096, 2 / 4096, *dists, *near):
            assert (_min_gap(s) <= eps) == any(d <= eps for d in dists), (s, eps)


def test_sampler_north_south_dynamics():
    powers = [DIAG]
    for _ in range(399):
        powers.append(powers[-1].compose(DIAG))
    k = TripleRegion(0.05, windows=[(0.06, 0.44)])
    l = TripleRegion(0.05, windows=[(0.56, 0.94)])
    rep = triple_escape_sampler(powers, k, l, horizon=400, samples=60, seed=1)
    assert rep.verdict == "convergence_like"
    assert rep.witness["hit_count"] == 0


def test_sampler_rotation_recurrence_and_replay():
    rots = [AngleShift(SQRT2 * n) for n in range(1, 401)]
    rep = triple_escape_sampler(rots, horizon=400, samples=60, seed=2)
    assert rep.verdict == "violation"
    assert rep.witness["tail_hits"] > 0
    again = triple_escape_sampler(rots, horizon=400, samples=60, seed=2)
    assert again.to_json() == rep.to_json()


def test_sampler_small_inputs_and_errors():
    assert triple_escape_sampler([DIAG, DIAG.compose(DIAG)]).verdict == "inconclusive"
    with pytest.raises(DegenerateSample):
        triple_escape_sampler(
            [DIAG, DIAG, DIAG],
            k_sample=[(0.0, 0.001, 0.5)],
        )
    # a caller's probe is reduced and sorted before the region test, and the
    # error still names the triple as given
    with pytest.raises(DegenerateSample, match=re.escape("(0.5, 1.0, 0.001)")):
        triple_escape_sampler([DIAG, DIAG, DIAG], k_sample=[(0.5, 1.0, 0.001)])
    rots = [AngleShift(SQRT2 * n) for n in range(1, 41)]
    raw = triple_escape_sampler(rots, k_sample=[(0.5, 1.1, 0.3)], horizon=40)
    reduced = triple_escape_sampler(rots, k_sample=[tuple(sorted(x % 1.0 for x in (0.5, 1.1, 0.3)))], horizon=40)
    assert raw.witness["hit_count"] > 0
    assert raw.to_json() == reduced.to_json()
    with pytest.raises(DegenerateSample, match=re.escape("angular gap 0.3 in the windows [(0.1, 0.11)]")):
        sample_triples(5, random.Random(0), windows=[(0.1, 0.11)], min_gap=0.3)
    # without windows no triple has every gap above 1/3: it raises before drawing
    rng = random.Random(0)
    with pytest.raises(DegenerateSample, match="angular gap 0.4: three gaps summing to 1"):
        sample_triples(5, rng, min_gap=0.4)
    assert rng.getstate() == random.Random(0).getstate()


def _powers(g, count: int) -> list:
    out = [g]
    for _ in range(count - 1):
        out.append(out[-1].compose(g))
    return out


def test_sampler_matches_the_reference_loop():
    # the single pass per probe against one call per point and per test, on
    # every action class, the point at infinity and both of its branches (a
    # probe at angle 0 and a map with r == 0), a zero denominator, and a visit
    # floor that an image triple's gap meets exactly
    hyp = _powers(MobiusMap(1, SQRT3, SQRT3, 4), 240)  # rescaled from power 222 on
    rots = [AngleShift(SQRT2 * n) for n in range(1, 121)]
    flow = [ExpAffine(False, n * SQRT2) for n in range(1, 61)]
    flipped = [ExpAffine(True, FieldElem((n, 3))) for n in range(1, 61)]
    south = TripleRegion(0.05, windows=[(0.06, 0.44)])
    north = TripleRegion(0.05, windows=[(0.56, 0.94)])
    split = TripleRegion(0.05, windows=[(0.5, 0.7), (0.1, 0.2)])
    w = _angle_to_real(0.2)
    pole = MobiusMap(1, 0, 1, FieldElem(Fraction(-w)))
    assert float_act(pole.to_float_matrix(), w) == math.inf  # r*w + s == 0.0
    probe = (0.1, 0.4, 0.7)
    first = sorted(_real_to_angle(float_act(rots[0].to_float_matrix(), _angle_to_real(a))) for a in probe)
    cases = [
        (hyp, {}),
        (hyp, {"k_region": south, "l_region": split}),
        (_powers(MobiusMap(2, 1, 1, 1), 60), {"k_region": south, "l_region": north}),
        (rots, {}),
        (rots, {"k_region": south, "l_region": north}),
        (flow, {}),
        (flipped, {"k_region": south, "l_region": north}),
        (_powers(DIAG, 60), {}),
        (_powers(DIAG, 60), {"k_sample": [(0.0, 0.3, 0.6), (0.25, 0.5, 0.0)]}),
        (rots, {"k_sample": [(0.0, 0.3, 0.6), (0.1, 0.45, 0.8)]}),
        (hyp[:40], {"k_sample": [(0.0, 0.35, 0.7)]}),
        ([pole] * 4, {"k_sample": [(0.2, 0.5, 0.8), (0.1, 0.2, 0.6)]}),
        (rots, {"k_sample": [probe], "l_region": TripleRegion(_min_gap(first)), "eps": 0.0}),
    ]
    for maps, extra in cases:
        for seed in (0, 1):
            kw = {"horizon": len(maps), "samples": 40, "seed": seed, **extra}
            assert triple_escape_sampler(maps, **kw).to_json() == sampler_reference(maps, **kw), (maps[0], kw)


def test_sampler_with_no_probes_is_inconclusive():
    rots = [AngleShift(SQRT2 * n) for n in range(1, 11)]
    for kw in ({"k_sample": []}, {"samples": 0}):
        rep = triple_escape_sampler(rots, horizon=10, **kw)
        assert rep.verdict == "inconclusive"
        assert rep.witness == {"reason": "no probe triples"}


def test_sampler_windows_that_reach_past_0_or_1():
    # windows are read mod 1, as the sampler reads its draws: every probe lies
    # in its region, and the report is that of the same windows split by hand
    wrapped = [(0.9, 1.1), (-0.1, 0.1), (0.95, 1.0)]
    by_hand = [(0.9, 1.0), (0.0, 0.1), (0.95, 1.0)]
    cases = [
        ([AngleShift(SQRT2 * n) for n in range(1, 201)], "violation"),
        (_powers(MobiusMap(2, 1, 1, 1), 60), "convergence_like"),
    ]
    for maps, verdict in cases:
        for windows in ([w] for w in wrapped[:2]):
            region = TripleRegion(0.05, windows=windows)
            rep = triple_escape_sampler(maps, region, region, horizon=len(maps), samples=20, seed=4)
            assert rep.verdict == verdict and rep.params["k_region"]["windows"] == windows
        region = TripleRegion(0.02, windows=wrapped)
        split = TripleRegion(0.02, windows=by_hand)
        probes = region.sample(30, random.Random(4))
        for tr in probes:
            assert all(any((a - lo) % 1.0 <= hi - lo + 1e-12 for lo, hi in wrapped) for a in tr), tr
            assert region.contains(tr) and split.contains(tr), tr
        kw = {"k_sample": probes, "horizon": len(maps)}
        rep = triple_escape_sampler(maps, region, region, **kw)
        assert rep.verdict == verdict
        assert rep.witness == triple_escape_sampler(maps, split, split, **kw).witness
        assert rep.params["k_region"]["windows"] == wrapped


def test_a_window_given_high_end_first_is_rejected_by_name():
    # the sampler would draw between the bounds, but no angle lies in [0.6, 0.1]
    with pytest.raises(ValueError, match=re.escape("(0.6, 0.1)")):
        TripleRegion(0.05, windows=[(0.2, 0.3), (0.6, 0.1)])
    rotations = [AngleShift(SQRT2 * n) for n in range(1, 21)]
    with pytest.raises(ValueError, match="high end first"):
        triple_escape_sampler(rotations, k_region=TripleRegion(0.05, windows=[(0.6, 0.1)]), samples=5)
    assert TripleRegion(0.05, windows=[(0.4, 0.4)]).to_json()["windows"] == [(0.4, 0.4)]  # one angle wide


def test_sampler_exp_affine_actions():
    flow = [ExpAffine(False, n) for n in range(1, 200)]
    k = TripleRegion(0.05, windows=[(0.06, 0.44)])
    l = TripleRegion(0.05, windows=[(0.06, 0.44)])
    rep = triple_escape_sampler(flow, k, l, horizon=199, samples=40, seed=3)
    assert rep.verdict == "convergence_like"


def test_angel_wings_clause_structure():
    # each wing is exactly inner u {p} u outer with disjoint halves
    wings = angel_wings(T, chord_er(0, "inf"), 12)
    for w in wings:
        assert w.inner.end == INF and w.outer.start == INF
        assert w.inner.start == w.u.start and w.outer.end == w.u.end
        assert not w.inner.contains(w.outer.start)
        assert not w.outer.contains(w.inner.start)
        assert w.u.contains(INF)
