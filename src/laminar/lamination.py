"""Chord systems on the circle: predicates, validation, gaps, separation.

A finite truncation is a set of pairwise-unlinked chords.  Gaps are the
complementary regions of the chords in the disk; each gap is reported as the
cyclic family of far-side intervals of its bounding chords, together with its
vertex set.  Gaps whose vertex set is infinite (they still touch the circle
along whole arcs) are flagged provisional.

The predicates on single intervals and chords are exact and stand alone; like
``circular_order``, each converts a point from another chart first.  The
queries that ask many of them about one chord set (validation, gaps, chains,
rainbows, separation) go through a ``Truncation``: the chord set with its
endpoints sorted once by exact key, so that every later comparison is one on
integer ranks, and one stack sweep over its chords that lists every crossing
pair and builds the nesting forest.  Functions taking a chord list find their
``Truncation`` in a memo of the last four sets, matched by tuple and only then
by set (``truncation_of``); ``LaminationSystem.truncation`` keeps one per
depth.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .circle import BoundaryPoint, Chart, circular_order, comparable, require_one_chart, require_same_chart
from .errors import InvalidLamination, NotADistinctPair


class Interval:
    """Nondegenerate open interval (start, end): the ccw arc from start to end."""

    __slots__ = ("start", "end")

    def __init__(self, start: BoundaryPoint, end: BoundaryPoint):
        require_same_chart(start, end)
        if start == end:
            raise ValueError("degenerate interval")
        self.start = start
        self.end = end

    @property
    def dual(self) -> "Interval":
        return Interval(self.end, self.start)

    def contains(self, p: BoundaryPoint) -> bool:
        return circular_order(self.start, p, self.end) == 1

    def contains_closed(self, p: BoundaryPoint) -> bool:
        return circular_order(self.start, p, self.end) >= 0

    def chord(self) -> "Chord":
        return Chord(self.start, self.end)

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.start is other.start and self.end is other.end

    def __hash__(self):
        return hash((self.start, self.end))

    def encode(self) -> str:
        return f"({self.start.encode()},{self.end.encode()})"

    def __repr__(self):
        return f"I{self.encode()}"


class Chord:
    """Unordered pair of distinct boundary points; the leaf {I, I*}."""

    __slots__ = ("lo", "hi", "_h")

    def __init__(self, u: BoundaryPoint, v: BoundaryPoint):
        require_same_chart(u, v)
        if u is v:  # one object per point
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
        return self.lo is other.lo and self.hi is other.hi

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
    return circular_order(c1.lo, c2.lo, c1.hi) * circular_order(c1.lo, c2.hi, c1.hi) >= 0


def interval_subset(inner: Interval, outer: Interval) -> bool:
    """Exact test for (a,b) being a subset of (c,d) as open circle arcs."""
    a, b = inner.start, inner.end
    c, d = outer.start, outer.end
    if a.chart != c.chart:
        a, b = comparable(a, c.chart), comparable(b, c.chart)
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
    nonemptiness plus pairwise unlinkedness.  The ranked truncation's sweep
    lists every crossing pair (``Truncation.linked``); here they are put in
    the caller's chord order, repeats dropped: each pair as (earlier, later),
    the pairs sorted by their earlier, then their later chord.
    """
    chords = list(chords)
    if not chords:
        return ValidationReport([("empty-family", None)])
    t = truncation_of(chords)
    if t.ok:
        return ValidationReport()
    chords = list(dict.fromkeys(chords))
    pos = {ch: n for n, ch in enumerate(chords)}
    pairs = sorted(sorted((pos[t.chords[a]], pos[t.chords[b]])) for a, b in t.linked)
    return ValidationReport([("linked-pair", (chords[a], chords[b])) for a, b in pairs])


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
    One stack sweep over the segments lists every crossing pair and builds the
    nesting forest.  The open chords stay on a stack by end, innermost on top;
    a segment (i, j) pops those ending at or before i, and the run left on top
    that ends strictly inside (i, j) is exactly what it crosses.  ``linked``
    holds each such pair (c, k) of chord indices, c < k, and ``ok`` holds when
    there are chords and no pair.  In a valid set ``parent[k]`` is -1 for a
    root, and ``kids[-1]`` lists the roots; a chain, witness or rainbow depth
    is one bisect plus a tree path in it.  Gap 0 is the region around the
    chart basepoint and gap k + 1 the region just inside chord k; gaps are
    built on first use.
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
        self.linked, stack = [], []  # open chords by end, innermost on top
        for k, (i, j) in enumerate(self.segs):
            while stack and self.segs[stack[-1]][1] <= i:
                stack.pop()
            n = len(stack)  # below n: ends at or past j; from n up: ends inside (i, j), so crossing
            while n and self.segs[stack[n - 1]][1] < j:
                n -= 1
            if n < len(stack):
                self.linked += [(c, k) for c in stack[n:]]
            self.parent[k] = stack[n - 1] if n else -1
            self.kids[self.parent[k]].append(k)
            stack.insert(n, k)
        self.ok = bool(chords) and not self.linked
        self._gaps = self._heights = self._by_encoding = None

    def ranks(self, *points) -> list:
        """Ranks of the points, each first converted into this chart
        (IncomparableCharts where it has no exact image there).  Distinct
        points off the truncation in one slot, the gap between two
        consecutive endpoints, share its odd rank."""
        out = []
        for p in points:
            if p.chart != self.chart:
                p = comparable(p, self.chart)
            r = self.rank.get(p)
            out.append((2 * bisect_left(self.keys, p.linear_key()) - 1) % self.modulus if r is None else r)
        return out

    def interval(self, a: int, b: int) -> Interval:
        return Interval(self.points[a >> 1], self.points[b >> 1])

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

    def around(self, a: int, b: int) -> int:
        """The innermost chord (i, j) with i < a and b < j, or -1, in a valid
        forest: one bisect for the last chord starting before a, then up to j > b."""
        k = bisect_left(self.segs, (a,)) - 1
        while k >= 0 and self.segs[k][1] <= b:
            k = self.parent[k]
        return k

    def chain(self, x: int, c: int, d: int) -> list:
        """(a, b, gap) for each side around rank x within (c, d), ascending by
        inclusion.  Inner sides (i, j) are around(x, x) and its ancestors, up
        to the first outside (c, d); an outer side (j, i) fits only if c > d,
        when its chord holds [d, c] (so is around(d + 1, c - 1) or above) and
        x is off [i, j].  Walking up, inner sides widen and outer ones narrow.
        """
        segs, parent, inner, outer, k = self.segs, self.parent, [], [], self.around(x, x)
        while k >= 0 and rank_within(*segs[k], c, d, self.modulus):
            inner.append((*segs[k], parent[k] + 1))
            k = parent[k]
        k = self.around(d + 1, c - 1) if c > d else -1
        while k >= 0 and not segs[k][0] <= x <= segs[k][1]:
            outer.append((segs[k][1], segs[k][0], k + 1))
            k = parent[k]
        return inner + outer[::-1]

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
        path = [self.around(x, x)]  # each chord around x, innermost first, then the root region
        while path[-1] != -1:
            path.append(self.parent[path[-1]])
        best, below = 0, None
        for d, node in enumerate(path):
            best = max(best, d, *(d + 1 + self._heights[c] for c in self.kids[node] if c != below))
            below = node
        return best


_MEMO = []  # (a caller's chord tuple, its Truncation), newest first, at most four


def truncation_of(chords) -> Truncation:
    """The Truncation of a chord collection, from a memo of the last four sets.

    An equal remembered tuple hits first (chords compare by identity, so none
    is hashed), then an equal set.  A miss builds in the caller's order, often
    close to sorted.  Racing threads may build one twice, but every entry pairs
    a tuple with the Truncation of its own set."""
    key, memo = tuple(chords), _MEMO[:]
    t = next((t for k, t in memo if k == key), None)
    if t is None:
        chordset = set(key)
        t = next((t for _, t in memo if t.node_of.keys() == chordset), None)
    if t is None:
        t = Truncation(key)
    _MEMO[:] = [(key, t), *[e for e in memo if e[1] is not t][:3]]
    return t


def gaps(chords) -> list[Gap]:
    """All complementary regions of a valid truncation, root region first."""
    chords = list(chords)
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

    Returned ascending by inclusion, so the last element is the maximum.  A
    crossing chord set raises InvalidLamination, and a point with no exact
    image in the chords' chart IncomparableCharts.  The chain is one walk in
    the nesting forest (``Truncation.chain``, already in that order).  When
    both ends of ``outer`` lie in one slot r, ``outer`` is either the short
    arc inside the slot, which holds no side, or the long arc round the rest
    of the circle: the rank arc (r, r - 1), which holds every endpoint.
    """
    chords = list(chords)
    t = truncation_of(chords)
    if not t.chords:
        return []
    x, c, d = t.valid(chords).ranks(p, outer.start, outer.end)
    if c == d:
        if circular_order(comparable(outer.start, t.chart), t.points[0], comparable(outer.end, t.chart)) != 1:
            return []
        d = c - 1
    return [t.interval(a, b) for a, b, _ in t.chain(x, c, d)]


# -- rainbows ------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeOutcome:
    endpoint: bool
    nesting: int | None

    def __repr__(self):
        return "Endpoint" if self.endpoint else f"NestedDepth({self.nesting})"


def rainbow_probe(system, p: BoundaryPoint, depth: int) -> ProbeOutcome:
    """Endpoint membership or the maximal nesting depth around p, read off
    p's rank: even on an endpoint, odd in a slot.  A point from another chart
    is converted as in ``c_p_I``."""
    t = system.truncation(depth) if hasattr(system, "truncation") else truncation_of(system)
    if not t.chords:
        return ProbeOutcome(False, 0)
    x = t.ranks(p)[0]
    return ProbeOutcome(False, t.nesting(x)) if x % 2 else ProbeOutcome(True, None)


# -- endpoint sets and transversality ------------------------------------------


def endpoints_set(chords) -> set:
    out = set()
    for ch in chords:
        out.add(ch.lo)
        out.add(ch.hi)
    return out


def transverse(chords1, chords2) -> bool:
    """No common leaf (interval sets intersect iff a chord is shared); ChartMismatch across charts."""
    chords1, chords2 = set(chords1), set(chords2)
    require_one_chart([*chords1, *chords2])
    return chords1.isdisjoint(chords2)


def strongly_transverse(chords1, chords2) -> tuple[bool, set]:
    ends1, ends2 = endpoints_set(chords1), endpoints_set(chords2)
    require_one_chart([*ends1, *ends2])
    common = ends1 & ends2
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
    C_p^{I*} ∩ C_p^{J*}, one walk in the nesting forest (``Truncation.chain``),
    names the gap, which is then verified to contain both intervals inside
    members, found with the exact ``interval_subset``.  A side from another
    chart is converted as in ``c_p_I``.
    """
    t = truncation_of(chords)
    if first.start.chart != t.chart and t.chords:
        first = Interval(comparable(first.start, t.chart), comparable(first.end, t.chart))
    if second.start.chart != t.chart and t.chords:
        second = Interval(comparable(second.start, t.chart), comparable(second.end, t.chart))
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
        top = next((s for s in reversed(t.chain(x, f1, f0)) if rank_within(*s[:2], s1, s0, m)), None)
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
        """The builder's chords at ``depth``, as built: a builder owns
        duplicate-freedom and must return a list with no repeats."""
        if depth not in self._cache:
            self._cache[depth] = tuple(self._builder(depth))
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
