"""Chord systems on the circle: predicates, validation, gaps, separation.

A finite truncation is a set of pairwise-unlinked chords.  Gaps are the
complementary regions of the chords in the disk; each gap is reported as the
cyclic family of far-side intervals of its bounding chords, together with its
vertex set.  Gaps whose vertex set is infinite (they still touch the circle
along whole arcs) are flagged provisional.

The predicates on single intervals and chords are exact and stand alone.  The
queries that ask many of them about one chord set (validation, gaps, chains,
rainbows, separation) go through a ``Truncation``: the chord set with its
endpoints sorted once by exact key, so that every later comparison is one on
integer ranks.  Functions taking a chord list find their ``Truncation`` in a
small memo keyed by the chord set; ``LaminationSystem.truncation`` keeps one per
depth.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache

from .circle import BoundaryPoint, Chart, circular_order, require_same_chart
from .errors import ChartMismatch, InvalidLamination, NotADistinctPair


class Interval:
    """Nondegenerate open interval (start, end): the ccw arc from start to end."""

    __slots__ = ("start", "end", "_h")

    def __init__(self, start: BoundaryPoint, end: BoundaryPoint):
        require_same_chart(start, end)
        if start == end:
            raise ValueError("degenerate interval")
        self.start = start
        self.end = end
        self._h = None

    @property
    def dual(self) -> "Interval":
        return Interval(self.end, self.start)

    def contains(self, p: BoundaryPoint) -> bool:
        return circular_order(self.start, p, self.end) == 1

    def contains_closed(self, p: BoundaryPoint) -> bool:
        return p == self.start or p == self.end or self.contains(p)

    def chord(self) -> "Chord":
        return Chord(self.start, self.end)

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.start == other.start and self.end == other.end

    def __hash__(self):
        if self._h is None:
            self._h = hash((self.start, self.end))
        return self._h

    def encode(self) -> str:
        return f"({self.start.encode()},{self.end.encode()})"

    def __repr__(self):
        return f"I{self.encode()}"


class Chord:
    """Unordered pair of distinct boundary points; the leaf {I, I*}."""

    __slots__ = ("lo", "hi", "_h")

    def __init__(self, u: BoundaryPoint, v: BoundaryPoint):
        require_same_chart(u, v)
        if u == v:
            raise ValueError("degenerate chord")
        if v.linear_key() < u.linear_key():
            u, v = v, u
        self.lo = u
        self.hi = v
        self._h = None

    def sides(self) -> tuple[Interval, Interval]:
        return Interval(self.lo, self.hi), Interval(self.hi, self.lo)

    def side_containing(self, p: BoundaryPoint) -> Interval:
        a, b = self.sides()
        if a.contains(p):
            return a
        if b.contains(p):
            return b
        raise ValueError(f"{p!r} is an endpoint of {self!r}")

    @property
    def chart(self) -> Chart:
        return self.lo.chart

    def __eq__(self, other):
        if not isinstance(other, Chord):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        if self._h is None:
            self._h = hash((self.lo, self.hi))
        return self._h

    def encode(self) -> list[str]:
        return sorted((self.lo.encode(), self.hi.encode()))

    def __repr__(self):
        return f"Chord{{{self.lo.encode()}, {self.hi.encode()}}}"


# -- elementary predicates ---------------------------------------------------


def unlinked(c1: Chord, c2: Chord) -> bool:
    """True iff the chords do not cross; sharing an endpoint counts as unlinked."""
    if c1.chart != c2.chart:
        raise ChartMismatch("chords live in different charts")
    if c1.lo in (c2.lo, c2.hi) or c1.hi in (c2.lo, c2.hi):
        return True
    s1 = circular_order(c1.lo, c2.lo, c1.hi)
    s2 = circular_order(c1.lo, c2.hi, c1.hi)
    return s1 == s2


def interval_subset(inner: Interval, outer: Interval) -> bool:
    """Exact test for (a,b) being a subset of (c,d) as open circle arcs."""
    a, b = inner.start, inner.end
    c, d = outer.start, outer.end
    if a == c:
        return b == d or circular_order(c, b, d) == 1
    if b == c:
        return False
    if circular_order(c, a, b) != 1:
        return False
    return b == d or circular_order(c, b, d) == 1


def interval_subset_closed(inner: Interval, outer: Interval) -> bool:
    """True iff the closure of ``inner`` is contained in the open ``outer``."""
    return (
        outer.contains(inner.start)
        and outer.contains(inner.end)
        and interval_subset(inner, outer)
    )


def lies_on(leaf: Chord, j: Interval) -> bool:
    """The leaf {I, I*} lies on J iff I or its dual is contained in J."""
    a, b = leaf.sides()
    return interval_subset(a, j) or interval_subset(b, j)


def properly_lies_on(leaf: Chord, j: Interval) -> bool:
    a, b = leaf.sides()
    return interval_subset_closed(a, j) or interval_subset_closed(b, j)


# -- truncation validation ---------------------------------------------------


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first(self):
        return self.violations[0] if self.violations else None

    def describe(self) -> str:
        if self.ok:
            return "valid"
        kind, data = self.violations[0]
        return f"{len(self.violations)} violation(s), first: {kind}: {data}"


def validate_truncation(chords) -> ValidationReport:
    """Check the finite truncation axioms; violations are data, not errors.

    Dual closure holds structurally for chord sets, so the checked content is
    nonemptiness plus pairwise unlinkedness.  The ranked truncation certifies
    valid inputs; when a crossing exists, every violating pair is listed in
    the caller's chord order, decided on ranks.
    """
    chords = list(dict.fromkeys(chords))
    report = ValidationReport()
    if not chords:
        report.violations.append(("empty-family", None))
        return report
    t = truncation_of(chords)
    if not t.ok:
        segs = [(t.rank[ch.lo], t.rank[ch.hi]) for ch in chords]
        for a, (i, j) in enumerate(segs):
            for b in range(a + 1, len(segs)):
                k, l = segs[b]
                if len({i, j, k, l}) == 4 and (i < k < j) != (i < l < j):
                    report.violations.append(("linked-pair", (chords[a], chords[b])))
    return report


# -- gaps (complementary regions) --------------------------------------------


@dataclass(frozen=True)
class Gap:
    """Complementary region: far-side intervals in ccw cyclic order.

    ``vertices`` are the isolated points of the complement of the interval
    union; ``arcs`` are its nondegenerate arcs.  A gap with arcs has an
    infinite vertex set and is flagged provisional.
    """

    intervals: tuple
    vertices: tuple
    arcs: tuple

    @property
    def provisional(self) -> bool:
        return bool(self.arcs)

    @property
    def is_polygon(self) -> bool:
        return not self.arcs

    @property
    def is_leaf(self) -> bool:
        return len(self.intervals) == 2 and self.intervals[0] == self.intervals[1].dual

    def key(self) -> frozenset:
        return frozenset((iv.start, iv.end) for iv in self.intervals)

    def __repr__(self):
        kind = "polygon" if self.is_polygon else "provisional"
        return f"Gap({kind}, {[iv.encode() for iv in self.intervals]})"


def _face_gap(cyclic_intervals) -> Gap:
    vertices = []
    arcs = []
    n = len(cyclic_intervals)
    for k in range(n):
        a = cyclic_intervals[k].end
        b = cyclic_intervals[(k + 1) % n].start
        if a == b:
            vertices.append(a)
        else:
            arcs.append(Interval(a, b))
    return Gap(tuple(cyclic_intervals), tuple(vertices), tuple(arcs))


# -- ranked truncations --------------------------------------------------------


def rank_inside(a: int, x: int, b: int, m: int) -> bool:
    """Rank x lies strictly inside the ccw arc from rank a to rank b, mod m."""
    return 0 < (x - a) % m < (b - a) % m


def rank_within(a: int, b: int, c: int, d: int, m: int) -> bool:
    """The open arc (a, b) is a subset of the open arc (c, d), ranks mod m."""
    return (a - c) % m < (b - c) % m <= (d - c) % m


class Truncation:
    """One chord set, sorted once, with every per-truncation query on ranks.

    The m distinct endpoints are sorted by exact ``linear_key``; endpoint k
    has rank 2k and a point off the truncation the odd rank 2*bisect - 1, so
    ranks modulo ``modulus`` = 2m are the circular order.  Chord k of
    ``chords`` is the segment ``segs[k]`` = (i, j), i < j, in (i, -j) order.
    One stack sweep over the segments decides validity (``ok``) and builds the
    nesting forest: ``parent[k]`` is -1 for a root, and ``kids[-1]`` lists the
    roots.  Gap 0 is the region around the chart basepoint and gap k + 1 the
    region just inside chord k; gaps are built on first use.
    """

    def __init__(self, chords):
        chords = tuple(dict.fromkeys(chords))
        ends = dict.fromkeys(p for ch in chords for p in (ch.lo, ch.hi))
        self.chart = require_same_chart(*ends) if ends else None
        keyed = sorted(((p.linear_key(), p) for p in ends), key=lambda e: e[0])
        self.keys = tuple(key for key, _ in keyed)
        self.points = tuple(p for _, p in keyed)
        self.rank = {p: 2 * k for k, p in enumerate(self.points)}
        self.modulus = 2 * len(self.points)
        segs = sorted(((self.rank[ch.lo], self.rank[ch.hi], ch) for ch in chords), key=lambda s: (s[0], -s[1]))
        self.chords = tuple(ch for _, _, ch in segs)
        self.segs = tuple((i, j) for i, j, _ in segs)
        self.node_of = {ch: k for k, ch in enumerate(self.chords)}
        self.parent = [-1] * len(chords)
        self.kids = [[] for _ in range(len(chords) + 1)]
        self.ok, stack = bool(chords), []
        for k, (i, j) in enumerate(self.segs):
            while stack and self.segs[stack[-1]][1] <= i:
                stack.pop()
            if stack and self.segs[stack[-1]][1] < j:
                self.ok = False
                break
            self.parent[k] = stack[-1] if stack else -1
            self.kids[self.parent[k]].append(k)
            stack.append(k)
        self._gaps = self._heights = self._by_encoding = None

    def ranks(self, *points):
        """Ranks of the points, or None where only exact predicates decide:
        a point in another chart, or two distinct points off the truncation
        that share a rank (the same slot between consecutive endpoints)."""
        out, seen = [], {}
        for p in points:
            if p.chart != self.chart:
                return None
            r = self.rank.get(p)
            if r is None:
                r = (2 * bisect_left(self.keys, p.linear_key()) - 1) % self.modulus
            if seen.setdefault(r, p) != p:
                return None
            out.append(r)
        return out

    def interval(self, a: int, b: int) -> Interval:
        return Interval(self.points[a >> 1], self.points[b >> 1])

    def sides(self) -> list:
        return [s for i, j in self.segs for s in ((i, j), (j, i))]

    def members(self, g: int) -> list:
        """Gap g's far-side intervals as rank pairs, in ccw order."""
        inner = [self.segs[c] for c in self.kids[g - 1]]
        return inner if g == 0 else inner + [self.segs[g - 1][::-1]]

    def valid(self, chords=None) -> "Truncation":
        """Self if valid; else InvalidLamination, naming the first violating
        pair in the order of ``chords`` (default: this truncation's)."""
        if not self.ok:
            raise InvalidLamination(validate_truncation(chords or self.chords).describe())
        return self

    def gaps(self) -> list:
        if self.valid()._gaps is None:
            self._gaps = [
                _face_gap([self.interval(a, b) for a, b in self.members(g)]) for g in range(len(self.segs) + 1)
            ]
        return self._gaps

    def by_encoding(self) -> list:
        if self._by_encoding is None:
            self._by_encoding = sorted(self.points, key=BoundaryPoint.encode)
        return self._by_encoding

    def nesting(self, x: int) -> int:
        """Most chords separating the odd rank x from some gap.

        Gaps and chords form a tree (the forest under the root region), and
        the chords that separate x from a gap are the edges of the tree path
        between them, so this is the eccentricity of x's gap in that tree.
        """
        if self.valid()._heights is None:
            self._heights = h = [0] * (len(self.segs) + 1)
            for k in range(len(self.segs) - 1, -1, -1):
                h[self.parent[k]] = max(h[self.parent[k]], h[k] + 1)
        path = [-1]  # the root region, then each chord around x, outermost first
        while inner := [c for c in self.kids[path[-1]] if self.segs[c][0] < x < self.segs[c][1]]:
            path.append(inner[0])
        best, below = 0, None
        for d, node in enumerate(reversed(path)):
            best = max(best, d, *(d + 1 + self._heights[c] for c in self.kids[node] if c != below))
            below = node
        return best


class _ChordSet(frozenset):
    """The memo's key: a chord set that keeps the caller's order in ``chords``.

    The Truncation is built in that order, since it is often close to sorted
    and the exact sort then needs fewer comparisons.
    """

    def __new__(cls, chords):
        chords = tuple(chords)
        self = super().__new__(cls, chords)
        self.chords = chords
        return self


@lru_cache(maxsize=4)
def _memo(chordset: _ChordSet) -> Truncation:
    return Truncation(chordset.chords)


def truncation_of(chords) -> Truncation:
    """The Truncation of a chord collection, from a memo of the last few sets."""
    return _memo(_ChordSet(chords))


def gaps(chords) -> list[Gap]:
    """All complementary regions of a valid truncation, root region first."""
    chords = list(dict.fromkeys(chords))
    return list(truncation_of(chords).valid(chords).gaps())


# -- representation equivalence ----------------------------------------------


def chords_to_intervals(chords) -> set:
    out = set()
    for ch in chords:
        a, b = ch.sides()
        out.add(a)
        out.add(b)
    return out


def intervals_to_chords(intervals) -> set:
    intervals = set(intervals)
    out = set()
    for iv in intervals:
        if iv.dual not in intervals:
            raise InvalidLamination(f"family not closed under duals near {iv!r}")
        out.add(iv.chord())
    return out


# -- ordered chains C_p^I -----------------------------------------------------


def c_p_I(chords, p: BoundaryPoint, outer: Interval) -> list[Interval]:
    """The chain {J in the interval family : p in J, J a subset of outer}.

    Returned ascending by inclusion, so the last element is the maximum.
    Membership is decided on ranks unless ``Truncation.ranks`` defers to the
    exact predicates; nested intervals have strictly growing rank length.
    """
    t = truncation_of(chords)
    m, ranks = t.modulus, t.ranks(p, outer.start, outer.end)
    if ranks is None:
        found = [s for s in t.sides() if t.interval(*s).contains(p) and interval_subset(t.interval(*s), outer)]
    else:
        x, c, d = ranks
        found = [(a, b) for a, b in t.sides() if rank_inside(a, x, b, m) and rank_within(a, b, c, d, m)]
    found.sort(key=lambda s: (s[1] - s[0]) % m)
    if not all(rank_within(*u, *v, m) for u, v in zip(found, found[1:])):
        raise InvalidLamination("C_p^I is not totally ordered: invalid truncation")
    return [t.interval(*s) for s in found]


# -- rainbows ------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeOutcome:
    endpoint: bool
    nesting: int | None

    def __repr__(self):
        return "Endpoint" if self.endpoint else f"NestedDepth({self.nesting})"


def rainbow_probe(system, p: BoundaryPoint, depth: int) -> ProbeOutcome:
    """Endpoint membership or the maximal nesting depth around p."""
    t = system.truncation(depth) if hasattr(system, "truncation") else truncation_of(system)
    if t.points:
        require_same_chart(p, t.points[0])
    if p in t.rank:
        return ProbeOutcome(True, None)
    if not t.chords:
        return ProbeOutcome(False, 0)
    return ProbeOutcome(False, t.nesting(t.ranks(p)[0]))


# -- endpoint sets and transversality ------------------------------------------


def endpoints_set(chords) -> set:
    out = set()
    for ch in chords:
        out.add(ch.lo)
        out.add(ch.hi)
    return out


def transverse(chords1, chords2) -> bool:
    """No common leaf (interval sets intersect iff a chord is shared)."""
    return set(chords1).isdisjoint(set(chords2))


def strongly_transverse(chords1, chords2) -> tuple[bool, set]:
    common = endpoints_set(chords1) & endpoints_set(chords2)
    return (not common, common)


# -- separation of distinct pairs ----------------------------------------------


@dataclass(frozen=True)
class Separation:
    gap: Gap
    witness: BoundaryPoint
    chain_max: Interval
    container_of_first: Interval
    container_of_second: Interval


def separate_distinct_pair(chords, first: Interval, second: Interval):
    """Find a non-leaf gap separating a distinct pair, or None if no witness.

    Witness points are tried in the deterministic encoding order of the
    truncation's endpoint set; for each witness p the chain maximum of
    C_p^{I*} ∩ C_p^{J*} names the gap, which is then verified to contain both
    intervals inside members.  The witness search runs on ranks; the members
    holding the two intervals are found with the exact ``interval_subset``.
    """
    t = truncation_of(chords)
    if first.chord() not in t.node_of or second.chord() not in t.node_of:
        raise NotADistinctPair("intervals are not sides of the truncation")
    if second == first.dual or second == first:
        raise NotADistinctPair("pair is a leaf or a single interval")
    m = t.modulus
    (f0, f1), (s0, s1) = t.ranks(first.start, first.end), t.ranks(second.start, second.end)
    if any(rank_inside(a, x, b, m) for a, b, xs in ((f0, f1, (s0, s1)), (s0, s1, (f0, f1))) for x in xs):
        raise NotADistinctPair("intervals are not disjoint")
    all_gaps = gaps(chords)
    for p in t.by_encoding():
        x = t.rank[p]
        if x in (f0, f1, s0, s1) or not (rank_inside(f1, x, f0, m) and rank_inside(s1, x, s0, m)):
            continue
        top = None  # (a, b, gap) of the longest side around x inside both duals
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
        if top is None:
            continue
        gap, members = all_gaps[top[2]], t.members(top[2])
        if gap.is_leaf or len(gap.intervals) < 2:
            continue
        u1 = next((iv for iv in gap.intervals if interval_subset(first, iv)), None)
        u2 = next((iv for iv in gap.intervals if interval_subset(second, iv)), None)
        if u1 is not None and u2 is not None:
            return Separation(gap, p, gap.intervals[members.index(top[:2])], u1, u2)
    return None


# -- depth-parametrized systems --------------------------------------------------


class LaminationSystem:
    """Depth-parametrized generator of finite truncations (pure in depth)."""

    def __init__(self, name, chart: Chart, builder):
        self.name = name
        self.chart = Chart(chart)
        self._builder = builder
        self._cache = {}
        self._truncations = {}

    def chords(self, depth: int) -> tuple:
        if depth not in self._cache:
            built = tuple(dict.fromkeys(self._builder(depth)))
            self._cache[depth] = built
        return self._cache[depth]

    def truncation(self, depth: int) -> Truncation:
        """The ranked truncation at ``depth``, built on first use."""
        if depth not in self._truncations:
            self._truncations[depth] = truncation_of(self.chords(depth))
        return self._truncations[depth]

    def __repr__(self):
        return f"LaminationSystem({self.name!r}, {self.chart.value})"


@dataclass(frozen=True)
class Col3Collection:
    """Three invariant systems with their group generators and declared cusps."""

    kind: str
    systems: tuple
    generators: tuple
    cusps: tuple
    params: dict
