"""Dynamical detectors: cusp points, angel wings, monotone and approximation
sequences, and the desk-scale properly-discontinuous-on-triples sampler.

Everything that can be exact is exact (cusp points, nesting, hyperbolicity of
quotients); only the triple sampler and the width/distance tails evaluate in
floating point, with documented tolerances and replayable seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .circle import BoundaryPoint, circular_order
from .errors import (
    BadIntervalChoice,
    DegenerateSample,
    LeafNotAtFixedPoint,
    NotParabolic,
)
from .lamination import Chord, Interval, interval_subset
from .mobius import AngleShift, ElementType, ExpAffine, MobiusMap, ball_enumerate


def cusp_points(generators, radius: int) -> list:
    """Fixed points of all parabolic elements in the generator ball."""
    found = {}
    for g in ball_enumerate(generators, radius):
        if g.is_identity:
            continue
        if g.element_type() == ElementType.PARABOLIC:
            pts, sym = g.fixed_points()
            assert not sym  # a parabolic fixed point is always a field point
            for p in pts:
                found[p] = None
    return sorted(found.keys(), key=lambda p: p.encode())


@dataclass(frozen=True)
class Wing:
    """One angel-wing neighborhood U_k = I_k u {p} u J_k around the cusp p."""

    k: int
    u: Interval
    inner: Interval
    outer: Interval


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


def _point_angle(x) -> float:
    if isinstance(x, BoundaryPoint):
        return x.to_angle()
    return float(x) % 1.0


def _fix_angles(g) -> list:
    pts, sym = g.fixed_points()
    out = [p.to_angle() for p in pts]
    for s in sym:
        w = float(s)
        z = (complex(w, 0) - 1j) / (complex(w, 0) + 1j)
        out.append((math.atan2(z.imag, z.real) / (2 * math.pi)) % 1.0)
    return out


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


@dataclass
class SequenceReport:
    verdict: str  # "convergence_like" | "violation" | "inconclusive"
    witness: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def to_json(self):
        return {"verdict": self.verdict, "witness": self.witness, "params": self.params}


def _float_action(g):
    if isinstance(g, MobiusMap):
        p, q, r, s = g.to_float_matrix()

        def act(w):
            if math.isinf(w):
                return math.inf if r == 0.0 else p / r
            den = r * w + s
            if den == 0.0:
                return math.inf
            return (p * w + q) / den

        return act
    if isinstance(g, AngleShift):
        d = float(g.delta)
        return ("angle", d)
    if isinstance(g, ExpAffine):
        t = math.exp(float(g.tau))
        if g.flip:
            return lambda w: math.inf if w == 0.0 else -t / w
        return lambda w: w * t
    raise TypeError(f"unsupported map {g!r}")


def _angle_to_real(theta: float) -> float:
    # boundary coordinate w = -cot(pi * theta); theta = 0 is the point at infinity
    t = theta % 1.0
    if t == 0.0:
        return math.inf
    return -1.0 / math.tan(math.pi * t)


def _real_to_angle(w: float) -> float:
    if math.isinf(w):
        return 0.0
    z = (complex(w, 0.0) - 1j) / (complex(w, 0.0) + 1j)
    return (math.atan2(z.imag, z.real) / (2 * math.pi)) % 1.0


def _apply_angle(action, theta: float) -> float:
    if isinstance(action, tuple) and action[0] == "angle":
        return (theta + action[1]) % 1.0
    return _real_to_angle(action(_angle_to_real(theta)))


def _triple_gap_ok(tr, delta: float) -> bool:
    a, b, c = sorted(tr)
    return (b - a) >= delta and (c - b) >= delta and (1.0 - (c - a)) >= delta


def sample_triples(count: int, rng: random.Random, windows=None, min_gap: float = 0.05):
    """Deterministic sample of compact-triple-set points: pairwise gap >= min_gap."""
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 200 * count:
            raise DegenerateSample("cannot satisfy the angular gap in the windows")
        if windows:
            tr = tuple(rng.uniform(*windows[i % len(windows)]) % 1.0 for i in range(3))
        else:
            tr = tuple(rng.random() for _ in range(3))
        if _triple_gap_ok(tr, min_gap):
            out.append(tuple(sorted(tr)))
    return out


class TripleRegion:
    """Compact set of triples: pairwise angular gap >= min_gap, coordinates in
    the given angle windows.  The finite sample drawn from it parametrizes the
    probes; membership of image triples is tested against the region itself."""

    def __init__(self, min_gap: float = 0.05, windows=None):
        self.min_gap = float(min_gap)
        self.windows = [tuple(w) for w in windows] if windows else None

    def _in_windows(self, a: float, slack: float) -> bool:
        if not self.windows:
            return True
        return any(lo - slack <= a <= hi + slack for lo, hi in self.windows)

    def contains(self, tr, slack: float = 0.0) -> bool:
        s = tuple(sorted(x % 1.0 for x in tr))
        if not _triple_gap_ok(s, self.min_gap - slack):
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
    maps = list(maps)
    if len(maps) < 3:
        return SequenceReport("inconclusive", {"reason": "fewer than 3 maps"}, params)
    rng = random.Random(seed)
    if k_sample is None:
        k_sample = k_region.sample(samples, rng)
    for tr in k_sample:
        if not k_region.contains(tr, slack=1e-12):
            raise DegenerateSample(f"probe triple {tr} outside the source region")
    n_steps = min(horizon, len(maps))
    actions = [_float_action(g) for g in maps[:n_steps]]
    last_uncollapsed = [0] * len(k_sample)
    hits = []
    for n, act in enumerate(actions, start=1):
        for ki, tr in enumerate(k_sample):
            img = tuple(_apply_angle(act, a) for a in tr)
            s = sorted(img)
            collapsed = (
                _circ_dist(s[0], s[1]) <= eps
                or _circ_dist(s[1], s[2]) <= eps
                or _circ_dist(s[0], s[2]) <= eps
            )
            if not collapsed:
                last_uncollapsed[ki] = n
            if l_region.contains(img, slack=eps):
                hits.append((n, ki, tuple(round(a, 9) for a in s)))

    tail_start = n_steps - max(1, n_steps // 4)
    tail_hits = [h for h in hits if h[0] > tail_start]
    if tail_hits and len(hits) >= 10:
        return SequenceReport(
            "violation",
            {"hits": hits[:50], "hit_count": len(hits), "tail_hits": len(tail_hits)},
            params,
        )
    all_collapse = all(last < n_steps for last in last_uncollapsed)
    if all_collapse and not tail_hits:
        return SequenceReport(
            "convergence_like",
            {"max_collapse_step": max(last_uncollapsed) + 1, "hit_count": len(hits)},
            params,
        )
    return SequenceReport(
        "inconclusive",
        {"collapsed": all_collapse, "hit_count": len(hits)},
        params,
    )
