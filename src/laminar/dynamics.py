"""Dynamical detectors: cusp points, angel wings, monotone and approximation
sequences, and the desk-scale properly-discontinuous-on-triples sampler.

Everything that can be exact is exact (cusp points, nesting, hyperbolicity of
quotients); only the triple sampler and the width/distance tails evaluate in
floating point, with the tolerances below and replayable seeds.

Float coordinate: an angle theta in turns stands for w = -cot(pi*theta) on the
extended real line (theta = 0 is w = inf), the Cayley convention of
``BoundaryPoint.to_complex``, and comes back as (1/2 + atan(w)/pi) mod 1.
Every group element acts on w by its ``to_float_matrix()`` (p, q, r, s), as
w -> (p*w + q) / (r*w + s):

* ``MobiusMap``: its own matrix, projectively rescaled into float range;
* ``AngleShift(delta)``: (cos pi*delta, sin pi*delta, -sin pi*delta, cos pi*delta);
* ``ExpAffine(False, tau)``: diag(e^(tau/2), e^(-tau/2)); with the flip,
  (0, -e^(tau/2), e^(-tau/2), 0).

Sampler tolerances: one rule measures a triple, the least circular gap of its
angles sorted in [0, 1).  A probe is sampled when that gap is at least the
region's ``min_gap``; an image triple has collapsed when it is at most ``eps``,
which is exactly "two of its angles lie within ``eps`` in circular distance";
it visits the target region when it is in the region with every bound relaxed
by ``eps``.  Each image triple is sorted once, and region membership takes it
sorted.  Its least gap is computed once and serves both the collapse test and
the visit test; the windows are tested only when the region has some.  Witness
angles are reported rounded to 9 digits.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .circle import BoundaryPoint, circular_order
from .errors import (
    BadIntervalChoice,
    DegenerateSample,
    LeafNotAtFixedPoint,
    NotParabolic,
)
from .lamination import Chord, Interval, interval_subset
from .mobius import ElementType, ball_enumerate


def cusp_points(generators, radius: int) -> list:
    """Fixed points of all parabolic elements in the generator ball."""
    found = {}
    for g in ball_enumerate(generators, radius):
        if g.element_type() == ElementType.PARABOLIC:
            pts, sym = g.fixed_points()
            assert not sym  # a parabolic fixed point is always a field point
            for p in pts:
                found[p] = None
    return sorted(found.keys(), key=lambda p: p.encode())


class Wing(namedtuple("Wing", "k u inner outer")):
    """One angel-wing neighborhood U_k = I_k u {p} u J_k around the cusp p."""

    __slots__ = ()


def angel_wings(g, leaf: Chord, count: int, interval: Interval | None = None) -> list:
    """Nested two-leaf neighborhoods of a parabolic fixed point.

    ``leaf`` must have the fixed point p as an endpoint; the side I is chosen
    (or checked) so that it contains the image of the other endpoint, and the
    k-th wing is g^k(I) u {p} u g^{-k}(I*).
    """
    if g.element_type() != ElementType.PARABOLIC:
        raise NotParabolic(f"{g!r} is not parabolic")
    pts, _ = g.fixed_points()
    p = pts[0]
    if p not in (leaf.lo, leaf.hi):
        raise LeafNotAtFixedPoint(f"{p!r} is not an endpoint of {leaf!r}")
    q = leaf.hi if leaf.lo == p else leaf.lo
    gq = g.apply(q)
    side_a, side_b = leaf.sides()
    chosen = side_a if side_a.contains(gq) else side_b
    if interval is not None:
        if interval not in (side_a, side_b):
            raise BadIntervalChoice("interval is not a side of the leaf")
        if not interval.contains(gq):
            raise BadIntervalChoice("g(q) does not lie in the chosen side")
        chosen = interval
    ginv = g.inverse()
    wings = []
    e, f = q, q
    toward_p = chosen.end == p  # I = (q, p) as a ccw arc
    for k in range(1, count + 1):
        e = g.apply(e)
        f = ginv.apply(f)
        if toward_p:
            wings.append(Wing(k, Interval(e, f), Interval(e, p), Interval(p, f)))
        else:
            wings.append(Wing(k, Interval(f, e), Interval(p, e), Interval(f, p)))
    return wings


# -- sequence detectors ---------------------------------------------------------


def _width(iv: Interval) -> float:
    a = iv.start.to_angle()
    b = iv.end.to_angle()
    return (b - a) % 1.0


def quasi_rainbow_check(intervals, tol: float = 0.1) -> bool:
    """Prefix test: nested intervals whose widths decrease below ``tol``.

    Nesting is exact; widths are evaluated in 64-bit floats on the disk.
    """
    if len(intervals) < 2:
        return False
    for a, b in zip(intervals, intervals[1:]):
        if not interval_subset(b, a):
            return False
    widths = [_width(iv) for iv in intervals]
    for a, b in zip(widths, widths[1:]):
        if b > a + 1e-12:
            return False
    return widths[-1] < tol


def monotone_convergence_check(points, p: BoundaryPoint) -> bool:
    """Exact test that the prefix spirals one way toward p."""
    if len(points) < 2:
        return False
    first = circular_order(p, points[0], points[1])
    if first == 0:
        return False
    for a, b in zip(points, points[1:]):
        if circular_order(p, a, b) != first:
            return False
    return True


def _angle_to_real(theta: float) -> float:
    t = theta % 1.0
    if t == 0.0:
        return math.inf
    return -1.0 / math.tan(math.pi * t)


def _real_to_angle(w: float) -> float:
    # atan(+-inf) = +-pi/2, so the point at infinity lands on 0
    return (0.5 + math.atan(w) / math.pi) % 1.0


def _point_angle(x) -> float:
    if isinstance(x, BoundaryPoint):
        return x.to_angle()
    return _real_to_angle(float(x))


def _fix_angles(g) -> list:
    pts, sym = g.fixed_points()
    return [p.to_angle() for p in pts] + [_real_to_angle(float(s)) for s in sym]


def _circ_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def approximation_sequence_check(maps, pair, tol: float = 1e-6) -> bool:
    """Finite-prefix test for an approximation sequence to the pair {p, q}.

    All pairwise quotients must be exactly hyperbolic; the fixed sets of the
    consecutive quotients must approach the pair, measured numerically.
    """
    maps = list(maps)
    if len(maps) < 2:
        return False
    keys = {g.key() for g in maps}
    if len(keys) != len(maps):
        raise ValueError("maps must be pairwise distinct")
    for m in range(len(maps)):
        for k in range(m + 1, len(maps)):
            comp = maps[k].compose(maps[m].inverse())
            if comp.element_type() != ElementType.HYPERBOLIC:
                return False
    target = sorted(_point_angle(x) for x in pair)
    dists = []
    for a, b in zip(maps, maps[1:]):
        fix = sorted(_fix_angles(b.compose(a.inverse())))
        d1 = max(_circ_dist(fix[0], target[0]), _circ_dist(fix[1], target[1]))
        d2 = max(_circ_dist(fix[0], target[1]), _circ_dist(fix[1], target[0]))
        dists.append(min(d1, d2))
    for a, b in zip(dists, dists[1:]):
        if b > a + 1e-12:
            return False
    return dists[-1] <= tol


# -- triple escape sampler --------------------------------------------------------


class SequenceReport:
    def __init__(self, verdict: str, witness: dict | None = None, params: dict | None = None):
        self.verdict = verdict  # "convergence_like" | "violation" | "inconclusive"
        self.witness = {} if witness is None else witness
        self.params = {} if params is None else params

    def to_json(self):
        return {"verdict": self.verdict, "witness": self.witness, "params": self.params}


def _min_gap(s) -> float:
    """The least circular gap of a sorted triple in [0, 1)."""
    a, b, c = s
    return min(b - a, c - b, 1.0 - (c - a))


def sample_triples(count: int, rng: random.Random, windows=None, min_gap: float = 0.05):
    """Deterministic sample of compact-triple-set points: pairwise gap >= min_gap."""
    if not windows and min_gap > 1 / 3:
        raise DegenerateSample(f"cannot satisfy the angular gap {min_gap}: three gaps summing to 1 cannot all exceed 1/3")
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 200 * count:
            where = f" in the windows {windows}" if windows else ""
            raise DegenerateSample(f"cannot satisfy the angular gap {min_gap}{where}")
        if windows:
            tr = sorted(rng.uniform(*windows[i % len(windows)]) % 1.0 for i in range(3))
        else:
            tr = sorted(rng.random() for _ in range(3))
        if _min_gap(tr) >= min_gap:
            out.append(tuple(tr))
    return out


def _window_arcs(lo: float, hi: float) -> list:
    """The window [lo, hi] as arcs of [0, 1]: reduced mod 1, and split in two
    where it reaches 1.  A window given high end first is a ValueError."""
    if hi < lo:
        raise ValueError(f"angle window {(lo, hi)} has its high end first; write one that wraps with hi > 1")
    if hi - lo >= 1.0:
        return [(0.0, 1.0)]
    start = lo % 1.0
    end = start + (hi - lo)
    return [(start, end)] if end < 1.0 else [(start, 1.0), (0.0, end - 1.0)]


class TripleRegion:
    """Compact set of triples: pairwise angular gap >= min_gap, coordinates in
    the given angle windows.  The finite sample drawn from it parametrizes the
    probes; membership of image triples is tested against the region itself.
    A window may reach past 0 or 1; it is read mod 1, as the sampler reads
    its draws, while ``to_json`` echoes the windows as given."""

    def __init__(self, min_gap: float = 0.05, windows=None):
        self.min_gap = float(min_gap)
        self.windows = [tuple(w) for w in windows] if windows else None
        self._arcs = [arc for w in self.windows for arc in _window_arcs(*w)] if windows else None

    def _in_windows(self, a: float, slack: float) -> bool:
        if not self._arcs:
            return True
        return any(lo - slack <= a <= hi + slack for lo, hi in self._arcs)

    def contains(self, s, slack: float = 0.0) -> bool:
        """Membership of ``s``, a sorted triple in [0, 1), with every bound
        relaxed by ``slack``."""
        if _min_gap(s) < self.min_gap - slack:
            return False
        return all(self._in_windows(a, slack) for a in s)

    def sample(self, count: int, rng: random.Random):
        return sample_triples(count, rng, self.windows, self.min_gap)

    def to_json(self):
        return {"min_gap": self.min_gap, "windows": self.windows}


def triple_escape_sampler(
    maps,
    k_region: TripleRegion | None = None,
    l_region: TripleRegion | None = None,
    k_sample=None,
    horizon: int = 1000,
    eps: float = 1e-6,
    delta: float = 0.05,
    samples: int = 200,
    seed: int = 0,
) -> SequenceReport:
    """Empirical properly-discontinuous-on-triples test; not a decision procedure.

    Probe triples are sampled from the source region K; each step checks
    whether any image lies in the target region L (exact region membership
    with eps slack).  ConvergenceLike: every probe collapses (two coordinates
    within eps) from some step on and visits to L die out.  Violation: visits
    to L recur into the final quarter of the horizon, with a replayable
    witness.  Everything else is Inconclusive.
    """
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
    # the probes are drawn and checked first, so a region that cannot be
    # sampled is an error however short the sequence
    if k_sample is None:
        k_sample = k_region.sample(samples, random.Random(seed))
    for tr in k_sample:
        if not k_region.contains(sorted(x % 1.0 for x in tr), slack=1e-12):
            raise DegenerateSample(f"probe triple {tr} outside the source region")
    maps = list(maps)
    if len(maps) < 3:
        return SequenceReport("inconclusive", {"reason": "fewer than 3 maps"}, params)
    if not k_sample:
        return SequenceReport("inconclusive", {"reason": "no probe triples"}, params)
    n_steps = min(horizon, len(maps))
    tail_start = n_steps - max(1, n_steps // 4)
    probes = [tuple(_angle_to_real(a) for a in tr) for tr in k_sample]
    last_uncollapsed = [0] * len(k_sample)
    hits = []  # the first 50 witnesses
    hit_count = tail_hits = 0
    floor = l_region.min_gap - eps
    inf, isinf, atan, pi = math.inf, math.isinf, math.atan, math.pi
    for n, g in enumerate(maps[:n_steps], start=1):
        p, q, r, s = g.to_float_matrix()
        at_inf = inf if r == 0.0 else p / r
        for ki, ws in enumerate(probes):
            t = []
            for w in ws:
                if isinf(w):
                    v = at_inf
                else:
                    den = r * w + s
                    v = inf if den == 0.0 else (p * w + q) / den
                t.append((0.5 + atan(v) / pi) % 1.0)
            t.sort()
            a, b, c = t
            gap = min(b - a, c - b, 1.0 - (c - a))  # _min_gap(t)
            if gap > eps:
                last_uncollapsed[ki] = n
            # a NaN gap is not below the floor, as in ``TripleRegion.contains``
            if not gap < floor and (not l_region.windows or l_region.contains(t, slack=eps)):
                hit_count += 1
                if n > tail_start:
                    tail_hits += 1
                if len(hits) < 50:
                    hits.append((n, ki, tuple(round(x, 9) for x in t)))

    if tail_hits and hit_count >= 10:
        return SequenceReport(
            "violation",
            {"hits": hits, "hit_count": hit_count, "tail_hits": tail_hits},
            params,
        )
    all_collapse = all(last < n_steps for last in last_uncollapsed)
    if all_collapse and not tail_hits:
        return SequenceReport(
            "convergence_like",
            {"max_collapse_step": max(last_uncollapsed) + 1, "hit_count": hit_count},
            params,
        )
    return SequenceReport(
        "inconclusive",
        {"collapsed": all_collapse, "hit_count": hit_count},
        params,
    )
