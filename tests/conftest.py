import math
import random

import pytest

from laminar import elementary_col3, farey_system, half_farey_system, square_system
from laminar.circle import BoundaryPoint
from laminar.field import FieldElem
from laminar.lamination import interval_subset, rank_inside, rank_within


def fr(n, d=1):
    return BoundaryPoint.ext_real(FieldElem((n, d)))


INF = BoundaryPoint.ext_inf()


def chord_er(a, b):
    from laminar.lamination import Chord

    def pt(x):
        if x == "inf":
            return INF
        if isinstance(x, tuple):
            return fr(*x)
        return fr(x)

    return Chord(pt(a), pt(b))


def gap_refines(fine, coarse) -> bool:
    """Whether the fine gap's region sits inside the coarse gap's region: the
    oracle for the refinement that ``checks.check_coherence`` relies on."""
    return all(any(interval_subset(u, w) for w in fine.intervals) for u in coarse.intervals)


def rank_sides(t) -> list:
    """Both sides (i, j) and (j, i) of every chord of truncation t, as ranks."""
    return [s for i, j in t.segs for s in ((i, j), (j, i))]


def chain_scan(t, x, c, d) -> list:
    """The sides (a, b) of truncation t that hold rank x and lie within the
    rank arc (c, d), ascending by inclusion, by a scan of all 2n sides: the
    oracle that ``Truncation.chain`` is tested against."""
    m = t.modulus
    found = [(a, b) for a, b in rank_sides(t) if rank_inside(a, x, b, m) and rank_within(a, b, c, d, m)]
    return sorted(found, key=lambda s: (s[1] - s[0]) % m)


def separation_top_scan(t, x, f1, f0, s1, s0):
    """(a, b, gap) of the longest side around rank x inside both rank arcs
    (f1, f0) and (s1, s0), or None, by a scan of every chord: the oracle for
    the witness step of ``separate_distinct_pair``."""
    m, top = t.modulus, None
    for k, (i, j) in enumerate(t.segs):
        if i < x < j:
            a, b, g = i, j, t.parent[k] + 1
        elif x != i and x != j:
            a, b, g = j, i, k + 1
        else:
            continue
        if rank_within(a, b, f1, f0, m) and rank_within(a, b, s1, s0, m):
            if top is None or (b - a) % m > (top[1] - top[0]) % m:
                top = (a, b, g)
    return top


def farey_mediants(depth: int) -> list:
    """The Farey tessellation by mediant subdivision: the oracle that
    ``farey_tessellation``'s two half-Farey fills are tested against.

    Depth 1 splits the positive arc only (three chords); later rounds split
    every pending arc, negative side included.
    """
    from laminar.lamination import Chord

    def pt(frac):
        n, d = frac
        return INF if d == 0 else fr(n, d)

    chords = [Chord(pt((0, 1)), pt((1, 0)))]
    pending = []
    if depth >= 1:
        chords += [Chord(pt((0, 1)), pt((1, 1))), Chord(pt((1, 1)), pt((1, 0)))]
        pending = [((0, 1), (1, 1)), ((1, 1), (1, 0)), ((-1, 0), (0, 1))]
    for _ in range(max(0, depth - 1)):
        nxt = []
        for a, b in pending:
            m = (a[0] + b[0], a[1] + b[1])
            chords += [Chord(pt(a), pt(m)), Chord(pt(m), pt(b))]
            nxt += [(a, m), (m, b)]
        pending = nxt
    return list(dict.fromkeys(chords))


def float_act(m, w: float) -> float:
    """w -> (p*w + q) / (r*w + s) for the float matrix m = (p, q, r, s), with
    inf for a zero denominator and p/r (inf when r is 0) at w = inf."""
    p, q, r, s = m
    if math.isinf(w):
        return math.inf if r == 0.0 else p / r
    den = r * w + s
    if den == 0.0:
        return math.inf
    return (p * w + q) / den


def sampler_reference(
    maps, k_region=None, l_region=None, k_sample=None, horizon=1000, eps=1e-6, delta=0.05, samples=200, seed=0
) -> dict:
    """The report of ``triple_escape_sampler`` as JSON, by one call per point
    and per test (``float_act``, ``_real_to_angle``, ``_min_gap`` and
    ``TripleRegion.contains``): the oracle that the sampler's single pass per
    probe is tested against."""
    from laminar.dynamics import SequenceReport, TripleRegion, _angle_to_real, _min_gap, _real_to_angle

    k_region = k_region or TripleRegion(delta)
    l_region = l_region or TripleRegion(delta)
    params = {
        "horizon": horizon,
        "eps": eps,
        "delta": delta,
        "samples": samples,
        "seed": seed,
        "k_region": k_region.to_json(),
        "l_region": l_region.to_json(),
    }
    if k_sample is None:
        k_sample = k_region.sample(samples, random.Random(seed))
    maps = list(maps)
    n_steps = min(horizon, len(maps))
    tail_start = n_steps - max(1, n_steps // 4)
    probes = [tuple(_angle_to_real(a) for a in tr) for tr in k_sample]
    last_uncollapsed = [0] * len(k_sample)
    hits = []
    hit_count = tail_hits = 0
    for n, g in enumerate(maps[:n_steps], start=1):
        m = g.to_float_matrix()
        for ki, ws in enumerate(probes):
            s = sorted([_real_to_angle(float_act(m, w)) for w in ws])
            if _min_gap(s) > eps:
                last_uncollapsed[ki] = n
            if l_region.contains(s, slack=eps):
                hit_count += 1
                if n > tail_start:
                    tail_hits += 1
                if len(hits) < 50:
                    hits.append((n, ki, tuple(round(a, 9) for a in s)))
    if tail_hits and hit_count >= 10:
        return SequenceReport(
            "violation", {"hits": hits, "hit_count": hit_count, "tail_hits": tail_hits}, params
        ).to_json()
    all_collapse = all(last < n_steps for last in last_uncollapsed)
    if all_collapse and not tail_hits:
        return SequenceReport(
            "convergence_like", {"max_collapse_step": max(last_uncollapsed) + 1, "hit_count": hit_count}, params
        ).to_json()
    return SequenceReport("inconclusive", {"collapsed": all_collapse, "hit_count": hit_count}, params).to_json()


def random_field_elem(rng: random.Random, span=30, den=8, irrational=True) -> FieldElem:
    def q():
        return (rng.randint(-span, span), rng.randint(1, den))

    if irrational and rng.random() < 0.5:
        return FieldElem(q(), q(), q(), q())
    return FieldElem(q())


@pytest.fixture(scope="session")
def collections():
    return {
        kind: elementary_col3(kind, n=5 if kind == "finite_cyclic" else None)
        for kind in ("trivial", "finite_cyclic", "parabolic", "hyperbolic", "dihedral")
    }


@pytest.fixture(scope="session")
def standalone_systems():
    return {
        "half_farey": half_farey_system(),
        "square": square_system(),
        "farey": farey_system(),
    }
