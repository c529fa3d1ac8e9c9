import random
from fractions import Fraction

import pytest

from laminar.circle import BoundaryPoint
from laminar.constructions import (
    ELEMENTARY_KINDS,
    ChordImages,
    DenseSpec,
    elementary_col3,
    farey_system,
    farey_tessellation,
    half_farey,
    half_farey_system,
    orbit_closure,
    simplest_between,
    square_system,
    square_triangulation,
)
from laminar.checks import CheckSuiteResult, check_invariance
from laminar.errors import BadSeed, OverlappingArcs, UnsupportedKind
from laminar.field import FieldElem, SQRT2
from laminar.lamination import (
    Chord,
    LaminationSystem,
    endpoints_set,
    gaps,
    strongly_transverse,
    transverse,
    validate_truncation,
)
from laminar.mobius import AngleShift, ExpAffine, MobiusMap, apply_to_chord, ball_enumerate

from conftest import INF, chord_er, fr, gap_refines

S_EXP = BoundaryPoint.signed_exp


def test_simplest_between():
    q = Fraction
    assert simplest_between(q(0), None) == 1
    assert simplest_between(q(0), q(1)) == q(1, 2)
    assert simplest_between(q(1), None) == 2
    assert simplest_between(q(0), q(1, 5)) == q(1, 6)
    assert simplest_between(q(1, 5), q(2, 5)) == q(1, 3)
    assert simplest_between(q(-3, 2), q(-1, 2)) == -1
    rng = random.Random(3)
    for _ in range(500):
        a = q(rng.randint(-50, 50), rng.randint(1, 30))
        b = a + q(rng.randint(1, 9), rng.randint(1, 30))
        m = simplest_between(a, b)
        assert a < m < b
        # nothing simpler fits: every rational with a smaller denominator
        # (and no larger numerator span) misses the interval
        for den in range(1, m.denominator):
            k = (a * den).numerator // (a * den).denominator
            for num in (k, k + 1):
                assert not (a < q(num, den) < b)


def test_simplest_between_deep_near_sqrt2():
    # Descending the Stern-Brocot tree toward sqrt(2): the bounds are always
    # Stern-Brocot neighbours, whose simplest rational in between is the mediant.
    lo, hi = Fraction(1), Fraction(2)
    for _ in range(80):
        m = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        assert simplest_between(lo, hi) == m
        lo, hi = (m, hi) if m * m < 2 else (lo, m)
    assert hi - lo < Fraction(1, 10**20) and lo * lo < 2 < hi * hi


def test_half_farey_examples():
    spec = DenseSpec.ext_rationals(0, seeds=(fr(0), INF))
    assert set(half_farey(spec, fr(0), INF, 0)) == {chord_er(0, "inf")}
    lvl1 = set(half_farey(spec, fr(0), INF, 1))
    assert lvl1 == {chord_er(0, "inf"), chord_er(0, 1), chord_er(1, "inf")}
    lvl2 = set(half_farey(spec, fr(0), INF, 2))
    assert lvl2 == lvl1 | {
        chord_er(0, (1, 2)),
        chord_er((1, 2), 1),
        chord_er(1, 2),
        chord_er(2, "inf"),
    }
    assert len(lvl2) == 7
    with pytest.raises(BadSeed):
        half_farey(spec, fr(0), fr(0), 1)
    with pytest.raises(BadSeed):
        half_farey(spec, fr(0), BoundaryPoint.ext_real(SQRT2), 1)
    # a rejected seed pair leaves no fill behind to be extended
    with pytest.raises(BadSeed):
        half_farey(spec, fr(0), BoundaryPoint.ext_real(SQRT2), 0)
    # the kept fill answers shallower and deeper calls like a fresh spec
    fresh = DenseSpec.ext_rationals(0, seeds=(fr(0), INF))
    for d in (5, 0, 3, -1, 6):
        assert half_farey(spec, fr(0), INF, d) == half_farey(fresh, fr(0), INF, d) == half_farey(
            DenseSpec.ext_rationals(0, seeds=(fr(0), INF)), fr(0), INF, d
        )


def test_half_farey_gaps_are_triangles_or_pending(standalone_systems):
    hf = standalone_systems["half_farey"]
    for d in (1, 2, 3, 4):
        for g in gaps(hf.chords(d)):
            if g.is_polygon:
                assert len(g.intervals) == 3
    # endpoints live in the dense set and are counted exactly
    spec = DenseSpec.ext_rationals(0, seeds=(fr(0), INF))
    for d in (0, 1, 2, 3, 4):
        eps = endpoints_set(hf.chords(d))
        assert len(eps) == 2**d + 1
        assert all(spec.contains(p) for p in eps)
        assert eps <= endpoints_set(hf.chords(d + 1))


def test_square_triangulation_examples(standalone_systems):
    sq = standalone_systems["square"]
    base = sq.chords(0)
    assert len(base) == 5
    # the four 4-gon sides plus the diagonal at the enumeration-least vertex
    assert Chord(S_EXP(1, 0), S_EXP(-1, 1)) in set(base)
    assert len(sq.chords(1)) == 9
    for d in range(4):
        assert validate_truncation(sq.chords(d)).ok
    spec = DenseSpec.exp_rationals(0)
    with pytest.raises(OverlappingArcs):
        square_triangulation(
            spec, (S_EXP(-1, 1), S_EXP(-1, 0)), (S_EXP(-1, FieldElem((1, 2))), S_EXP(1, 1)), 0
        )


def test_farey_tessellation_examples():
    assert set(farey_tessellation(1)) == {
        chord_er(0, "inf"),
        chord_er(0, 1),
        chord_er(1, "inf"),
    }
    lvl2 = set(farey_tessellation(2))
    for pair in (((0, 1), (1, 2)), ((1, 2), (1, 1))):
        assert Chord(fr(*pair[0]), fr(*pair[1])) in lvl2
    assert chord_er(1, 2) in lvl2  # T({0,1}) = {1,2}
    assert chord_er("inf", -1) in lvl2 and chord_er(-1, 0) in lvl2
    # mediant structure: all pairs are unimodular
    for ch in farey_tessellation(4):
        def nd(p):
            return (1, 0) if p.is_infinity else (int(p.x.a.numerator), int(p.x.a.denominator))
        (a, b), (c, d) = nd(ch.lo), nd(ch.hi)
        assert abs(a * d - b * c) == 1


def test_farey_invariance_with_depth_slack():
    T = MobiusMap(1, 1, 0, 1)
    S = MobiusMap(0, -1, 1, 0)
    for d in (1, 2, 3):
        cur = farey_tessellation(d)
        nxt = set(farey_tessellation(d + 1))
        for g in (T, T.inverse(), S):
            for ch in cur:
                assert apply_to_chord(g, ch) in nxt, (d, g, ch)


def test_orbit_closure_examples():
    T = MobiusMap(1, 1, 0, 1)
    chords = orbit_closure([chord_er(0, "inf")], ball_enumerate([T], 2))
    assert validate_truncation(chords).ok and set(chords) == {Chord(fr(k), INF) for k in range(-2, 3)}
    empty = orbit_closure([], ball_enumerate([T], 2))
    assert empty == [] and not validate_truncation(empty).ok
    # an explicit element list, not a ball: its order, first occurrences kept
    shifts = [MobiusMap(1, k, 0, 1) for k in (2, -1, 0, 2)]
    assert orbit_closure([chord_er(0, "inf")], shifts) == [chord_er(k, "inf") for k in (2, -1, 0)]


def test_chord_images_keep_one_memo_for_equal_maps():
    images, g, h = ChordImages(), ExpAffine(True, 1), ExpAffine(True, 1)
    chords = [Chord(S_EXP(1, 0), S_EXP(1, 1)), Chord(S_EXP(-1, 0), S_EXP(1, 1))]
    assert g is not h
    assert all(a is b for a, b in zip(images(g, chords), images(h, chords)))


def _systems(kind):
    if kind in ELEMENTARY_KINDS:
        return elementary_col3(kind, n=5 if kind == "finite_cyclic" else None).systems
    return ({"farey": farey_system, "half_farey": half_farey_system, "square": square_system}[kind](),)


@pytest.mark.parametrize("kind", [*ELEMENTARY_KINDS, "farey", "half_farey", "square"])
def test_extending_builders_match_fresh_builds(kind):
    depths = list(range(8))
    fresh = {d: tuple(s.chords(d) for s in _systems(kind)) for d in depths}
    shuffled = depths[:]
    random.Random(kind).shuffle(shuffled)
    for order in (depths, depths[::-1], shuffled):
        systems = _systems(kind)
        for d in order:
            # tuples, not sets: Truncation is built in the caller's chord order
            assert tuple(s.chords(d) for s in systems) == fresh[d], (kind, order, d)


def test_invariance_reports_a_dropped_image(collections):
    col = collections["parabolic"]
    source, depth, g = col.systems[1], 2, col.generators[0]
    preimage = source.chords(depth)[5]
    dropped = apply_to_chord(g, preimage)
    assert dropped in source.chords(depth + 1)

    def build(d):
        return [ch for ch in source.chords(d) if d != depth + 1 or ch != dropped]

    broken = LaminationSystem("broken", source.chart, build)
    result = CheckSuiteResult()
    check_invariance(result, "parabolic", [broken], col.generators, depth)
    (entry,) = result.entries
    assert entry.status == "fail" and entry.details["misses"] >= 1
    assert entry.details["first"] == ["broken", repr(g), preimage.encode()]
    # the same system without the drop passes
    whole = CheckSuiteResult()
    check_invariance(whole, "parabolic", [source], col.generators, depth)
    assert whole.ok


def test_point_memo_matches_plain_apply_to_chord(collections):
    for kind, col in collections.items():
        for s in col.systems:
            chords = s.chords(3)
            for g in col.generators:
                for h in (g, g.inverse()):
                    points = {}
                    for ch in chords:
                        assert apply_to_chord(h, ch, points) == apply_to_chord(h, ch), (kind, s.name, h, ch)
                    assert len(points) == len(endpoints_set(chords)), (kind, s.name, h)
                    assert set(points) == endpoints_set(chords), (kind, s.name, h)


def _reference_invariance(systems, generators, depth):
    """``check_invariance``'s details, from plain ``apply_to_chord``."""
    maps = [m for g in generators for m in (g, g.inverse())]
    misses = []
    for s in systems:
        nxt = set(s.chords(depth + 1))
        misses += [(s.name, g, ch) for g in maps for ch in s.chords(depth) if apply_to_chord(g, ch) not in nxt]
    if misses:
        s, g, ch = misses[0]
        return {"misses": len(misses), "first": [s, repr(g), ch.encode()]}
    return {"depth": depth, "generators": len(maps)}


def _dropping(source, depth, image):
    """``source`` whose depth ``depth + 1`` lacks the chord ``image``."""

    def build(d):
        return [ch for ch in source.chords(d) if d != depth + 1 or ch != image]

    return LaminationSystem("broken", source.chart, build)


def _invariance_details(systems, generators, depth):
    result = CheckSuiteResult()
    check_invariance(result, "kind", systems, generators, depth)
    (entry,) = result.entries
    return entry.details


@pytest.mark.parametrize("kind", ELEMENTARY_KINDS)
def test_invariance_matches_a_plain_reference_loop(kind):
    col = elementary_col3(kind, n=5 if kind == "finite_cyclic" else None)
    cases = [(col.systems, 2), (col.systems, 3)]
    if kind in ("parabolic", "dihedral"):
        # drop an image under the last map that the first map does not reach,
        # so a memo that leaks the first map's images into the others misses
        # it; dihedral flips reverse the endpoint order of the image chord
        source, depth = col.systems[1], 2
        maps = [m for g in col.generators for m in (g, g.inverse())]
        chords, nxt = source.chords(depth), set(source.chords(depth + 1))
        first = {apply_to_chord(maps[0], ch) for ch in chords}
        image = next(im for ch in chords if (im := apply_to_chord(maps[-1], ch)) in nxt and im not in first)
        cases.append(([col.systems[0], _dropping(source, depth, image), col.systems[2]], depth))
    for systems, depth in cases:
        details = _invariance_details(systems, col.generators, depth)
        assert details == _reference_invariance(systems, col.generators, depth), (kind, depth)
    if len(cases) == 3:
        assert details["first"][:2] == ["broken", repr(maps[-1])]


def test_elementary_kind_errors():
    with pytest.raises(UnsupportedKind):
        elementary_col3("finite_cyclic", n=1)
    with pytest.raises(UnsupportedKind):
        elementary_col3("banana")


def test_parabolic_common_endpoints_is_the_cusp(collections):
    col = collections["parabolic"]
    for i in range(3):
        for j in range(i + 1, 3):
            _, common = strongly_transverse(col.systems[i].chords(3), col.systems[j].chords(3))
            assert common == {INF}
    assert col.cusps == (INF,)


def test_finite_cyclic_pentagon_gap(collections):
    col = collections["finite_cyclic"]
    gs = gaps(col.systems[0].chords(2))
    pent = [g for g in gs if g.is_polygon and len(g.intervals) == 5]
    assert len(pent) == 1
    assert set(pent[0].vertices) == {
        BoundaryPoint.disk_angle(FieldElem((k, 5))) for k in range(5)
    }
    # the rotated copies carry the rotated polygon
    gs2 = gaps(col.systems[1].chords(2))
    assert sum(1 for g in gs2 if g.is_polygon and len(g.intervals) == 5) == 1


def test_hyperbolic_endpoint_sets_disjoint(collections):
    col = collections["hyperbolic"]
    for i in range(3):
        for j in range(i + 1, 3):
            ok, w = strongly_transverse(col.systems[i].chords(2), col.systems[j].chords(2))
            assert ok, w


def test_trivial_three_disjoint_dense_sets(collections):
    col = collections["trivial"]
    assert col.generators == ()
    for i in range(3):
        for j in range(i + 1, 3):
            ok, _ = strongly_transverse(col.systems[i].chords(2), col.systems[j].chords(2))
            assert ok


def test_dihedral_orbit_is_valid_invariant_family(collections):
    col = collections["dihedral"]
    for s in col.systems:
        assert validate_truncation(s.chords(3)).ok
    for g in col.generators:
        for s in col.systems:
            nxt = set(s.chords(3))
            for ch in s.chords(2):
                assert apply_to_chord(g, ch) in nxt


def test_all_constructions_validate_and_are_monotone(collections, standalone_systems):
    everything = [s for col in collections.values() for s in col.systems]
    everything += list(standalone_systems.values())
    for s in everything:
        for d in (1, 2, 3):
            assert validate_truncation(s.chords(d)).ok, (s.name, d)
            assert set(s.chords(d)) <= set(s.chords(d + 1)), (s.name, d)


def test_invariance_with_depth_slack_small(collections):
    for kind, col in collections.items():
        for g in col.generators:
            for s in col.systems:
                for d in (1, 2):
                    nxt = set(s.chords(d + 1))
                    for ch in s.chords(d):
                        assert apply_to_chord(g, ch) in nxt, (kind, s.name, d)
                        assert apply_to_chord(g.inverse(), ch) in nxt, (kind, s.name, d)


def test_gap_refinement_coherence(collections, standalone_systems):
    probes = [collections["parabolic"].systems[0], standalone_systems["half_farey"], standalone_systems["farey"]]
    for s in probes:
        coarse = gaps(s.chords(1))
        fine = gaps(s.chords(2))
        for g in fine:
            assert any(gap_refines(g, c) for c in coarse), (s.name, g)


def test_very_fullness_surrogate_small(collections, standalone_systems):
    for kind, col in collections.items():
        for s in col.systems:
            for g in gaps(s.chords(3)):
                if g.is_polygon:
                    if kind == "finite_cyclic":
                        assert len(g.intervals) in (3, 5)
                    else:
                        assert len(g.intervals) == 3, (kind, s.name, g)
    for name, s in standalone_systems.items():
        for g in gaps(s.chords(3)):
            if g.is_polygon:
                assert len(g.intervals) == 3, (name, g)


def test_rotation_exactness_of_angle_constructions(collections):
    # rotating the finite_cyclic base system by 1/5 is a bijection of chords
    col = collections["finite_cyclic"]
    rot = AngleShift(FieldElem((1, 5)))
    chords = set(col.systems[0].chords(2))
    assert {apply_to_chord(rot, c) for c in chords} == chords
