"""Builders for the invariant chord systems.

Dense subsets are enumerated adaptively: the next point inserted in an arc is
the Stern-Brocot simplest rational of the unshifted arc, which makes every
builder deterministic, injective and dense.  Depth semantics are unified: one
depth unit is one insertion round in every recursive arc plus one orbit shell.

Builders extend instead of rebuilding: a ``DenseSpec`` keeps each half-Farey
fill and adds only the rounds a deeper call needs.  Every orbit builder is
``orbit_closure`` of a base piece under a list of group elements, and maps
each boundary point once per group element (one point memo per element),
whatever the order in which depths are asked for.  ``orbit_closure`` returns
the union of the orbit images only; callers that want it validated call
``validate_truncation`` themselves.  Every builder returns a list with no
repeats, and ``LaminationSystem`` trusts that.
"""

from __future__ import annotations

import threading

from .circle import BoundaryPoint, Chart, circular_order
from .errors import BadSeed, OverlappingArcs, UnsupportedKind
from .field import _Q, FieldElem, SQRT2, SQRT3
from .lamination import Chord, Col3Collection, Interval, LaminationSystem
from .lamination import validate_truncation  # noqa: F401  (re-exported, read by perfbench/test_perfbench.py)
from .mobius import AngleShift, ExpAffine, MobiusMap, apply_to_chord, ball_enumerate


def simplest_between(lo, hi):
    """Simplest rational in the open interval (lo, hi); hi None means +inf.

    Continued-fraction descent on integers: while the interval (p/q, r/s)
    holds no integer above floor(p/q), the answer is fl + 1/z with z the
    simplest rational in (s/(r - fl*s), q/(p - fl*q)), a zero denominator
    standing for +inf.  The matrix (h1 h0; k1 k0) composes the steps.
    """
    p, q = lo.numerator, lo.denominator
    r, s = (1, 0) if hi is None else (hi.numerator, hi.denominator)
    if hi is not None and not p * s < r * q:
        raise ValueError(f"empty interval ({lo}, {hi})")
    h1, h0, k1, k0 = 1, 0, 0, 1
    while True:
        fl = p // q
        if s == 0 or (fl + 1) * s < r:
            return _Q(h1 * (fl + 1) + h0, k1 * (fl + 1) + k0)
        p, q, r, s = s, r - fl * s, q, p - fl * q
        h1, h0, k1, k0 = h1 * fl + h0, h1, k1 * fl + k0, k1


class DenseSpec:
    """Deterministic enumeration of a countable dense subset of an arc family.

    ``ext_rationals``: points shift + q on the extended real line (inf included
    when seeded).  ``disk_angles``: angles shift + q mod 1.  ``exp_rationals``:
    exponents plus_shift + q on the positive ray and minus_shift + q on the
    negative ray.  Every chart reads a point through ``_offset``, its
    coordinate less the shift of its ray, and the set is the points whose
    offset is rational.

    The spec also keeps the half-Farey fill of each seed pair it has filled,
    so that ``half_farey`` extends a fill instead of recomputing it.
    """

    def __init__(self, chart: Chart, seeds=(), shift=0, minus_shift=None):
        self.chart = Chart(chart)
        self.shift = FieldElem(0) + shift
        self.minus_shift = self.shift if minus_shift is None else FieldElem(0) + minus_shift
        self.seeds = tuple(seeds)
        self._fills = {}  # (q1, q2) -> _Fill
        self._lock = threading.Lock()

    @staticmethod
    def ext_rationals(shift=0, seeds=()) -> "DenseSpec":
        return DenseSpec(Chart.EXT_REAL, seeds, shift)

    @staticmethod
    def disk_angles(shift=0, seeds=()) -> "DenseSpec":
        return DenseSpec(Chart.DISK_ANGLE, seeds, shift)

    @staticmethod
    def exp_rationals(plus_shift=0, minus_shift=None, seeds=()) -> "DenseSpec":
        return DenseSpec(Chart.SIGNED_EXP, seeds, plus_shift, minus_shift)

    def seed_index(self, pt: BoundaryPoint) -> int:
        try:
            return self.seeds.index(pt)
        except ValueError:
            return len(self.seeds)

    def _offset(self, pt: BoundaryPoint):
        """The coordinate of ``pt`` less the shift of its ray, mod 1 on the
        angle chart; None for a limit symbol (inf, e:0, e:inf)."""
        if pt.x is None:
            return None
        diff = pt.x - (self.minus_shift if pt.ray < 0 else self.shift)
        return diff - diff.floor() if self.chart is Chart.DISK_ANGLE else diff

    def contains(self, pt: BoundaryPoint) -> bool:
        if pt.chart != self.chart:
            return False
        if pt.is_infinity:
            return pt in self.seeds
        offset = self._offset(pt)
        return offset is not None and offset.is_rational()

    def first_interior(self, start: BoundaryPoint, end: BoundaryPoint) -> BoundaryPoint:
        """The enumeration-first point strictly inside the ccw arc (start, end):
        the simplest rational between the offsets of its ends, shifted back."""
        a, b = self._offset(start), self._offset(end)
        if self.chart is Chart.SIGNED_EXP and (a is None or b is None or start.ray != end.ray):
            raise ValueError("exp enumeration fills arcs within a single ray")
        if a is None:  # from inf on the real line: (-inf, b)
            return BoundaryPoint.ext_real(self.shift - simplest_between(-b.rational(), None))
        a = a.rational()
        if b is None:  # to inf on the real line
            return BoundaryPoint.ext_real(self.shift + simplest_between(a, None))
        b = b.rational()
        if self.chart is Chart.DISK_ANGLE:
            return BoundaryPoint.disk_angle(self.shift + simplest_between(a, b if b > a else b + 1))
        if start.ray < 0:  # ccw on the minus ray descends
            return BoundaryPoint.signed_exp(-1, self.minus_shift + simplest_between(b, a))
        t = self.shift + simplest_between(a, b)
        return BoundaryPoint.ext_real(t) if self.chart is Chart.EXT_REAL else BoundaryPoint.signed_exp(1, t)


class _Fill:
    """The half-Farey fill of one seed arc, as far as it has been computed:
    its chords in insertion order, the seed chord first and no repeats (so a
    builder that has the seed chord already drops it with ``[1:]``), the arcs
    the next round divides, and ends[d], the number of chords after d rounds."""

    __slots__ = ("chords", "arcs", "ends")

    def __init__(self, q1: BoundaryPoint, q2: BoundaryPoint):
        self.chords = [Chord(q1, q2)]
        self.arcs = [(q1, q2)]
        self.ends = [1]


def half_farey(spec: DenseSpec, q1: BoundaryPoint, q2: BoundaryPoint, depth: int) -> list:
    """Recursive triangulation of the arc [q1, q2]: each round inserts the
    enumeration-first interior point of every undivided sub-arc.

    Each round appends to the chords of the rounds before it, so depth d is a
    prefix of every deeper fill; ``spec`` keeps the fill and computes only
    the rounds no earlier call reached.
    """
    with spec._lock:
        fill = spec._fills.get((q1, q2))
        if fill is None:
            if q1 == q2:
                raise BadSeed("seed endpoints coincide")
            if not (spec.contains(q1) and spec.contains(q2)):
                raise BadSeed("seed endpoints are not in the dense set")
            try:
                spec.first_interior(q1, q2)
            except ValueError as exc:
                raise BadSeed(f"seed arc ({q1.encode()}, {q2.encode()}) cannot be filled: {exc}") from exc
            fill = spec._fills[(q1, q2)] = _Fill(q1, q2)
        chords = fill.chords
        while len(fill.ends) <= depth:
            nxt = []
            for u, v in fill.arcs:
                w = spec.first_interior(u, v)
                chords.append(Chord(u, w))
                chords.append(Chord(w, v))
                nxt.append((u, w))
                nxt.append((w, v))
            fill.arcs = nxt
            fill.ends.append(len(chords))
        return chords[: fill.ends[max(depth, 0)]]


def square_triangulation(spec: DenseSpec, i_arc, j_arc, depth: int) -> list:
    """Ideal 4-gon on two disjoint closed arcs, one diagonal, Farey fills.

    The diagonal is the one incident to the enumeration-least vertex.
    """
    i1, i2 = i_arc
    j1, j2 = j_arc
    closed_i = Interval(i1, i2)
    closed_j = Interval(j1, j2)
    if (
        closed_i.contains_closed(j1)
        or closed_i.contains_closed(j2)
        or closed_j.contains_closed(i1)
        or closed_j.contains_closed(i2)
    ):
        raise OverlappingArcs("arc closures intersect")
    if circular_order(i1, i2, j1) != 1 or circular_order(i2, j1, j2) != 1:
        raise OverlappingArcs("arcs are not in ccw position")
    cyc = [i1, i2, j1, j2]
    least = min(cyc, key=lambda p: (spec.seed_index(p), p.encode()))
    opposite = cyc[(cyc.index(least) + 2) % 4]
    chords = [
        Chord(i1, i2),
        Chord(i2, j1),
        Chord(j1, j2),
        Chord(j2, i1),
        Chord(least, opposite),
    ]
    chords += half_farey(spec, i1, i2, depth)[1:]  # its seed chord is the side {i1, i2}
    chords += half_farey(spec, j1, j2, depth)[1:]
    return chords


def orbit_closure(seed, elements, images: dict | None = None) -> list:
    """The images of the seed chords under each of ``elements`` in list
    order, first occurrence kept.

    The union is not validated.  ``images`` maps each group element to its
    ``apply_to_chord`` point memo; pass one dict to map each boundary point
    once per element across calls.  Equal elements share one memo.
    """
    images = {} if images is None else images
    chords = []
    for g in elements:
        points = images.setdefault(g, {})
        chords += [apply_to_chord(g, ch, points) for ch in seed]
    return list(dict.fromkeys(chords))


def _orbit_system(name, chart, base, elements) -> LaminationSystem:
    """The system whose depth-d chords are ``orbit_closure(base(d),
    elements(d))``.  The element list is made on each build call, and one
    ``images`` dict maps each boundary point once per element across depths."""
    images = {}
    return LaminationSystem(name, chart, lambda depth: orbit_closure(base(depth), elements(depth), images))


def _farey_builder():
    """The depth -> Farey tessellation builder with its own spec."""
    zero = BoundaryPoint.ext_real(0)
    inf = BoundaryPoint.ext_inf()
    spec = DenseSpec.ext_rationals(0, seeds=(zero, inf))

    def build(depth):
        return half_farey(spec, zero, inf, depth) + half_farey(spec, inf, zero, max(depth - 1, 0))[1:]

    return build


def farey_tessellation(depth: int) -> list:
    """The modular group's Farey tessellation as two half-Farey fills.

    The simplest rational between two Farey neighbours is their mediant, so
    depth d is the fill of [0, inf] to depth d and of [inf, 0] to depth d - 1:
    depth 1 splits the positive arc only (three chords), and later rounds
    split every pending arc, negative side included.
    """
    return _farey_builder()(depth)


# -- elementary collections ----------------------------------------------------

_SHIFTS = (("rational", FieldElem(0)), ("sqrt2", SQRT2), ("sqrt3", SQRT3))
HALF = FieldElem((1, 2))


def _trivial_system(name, shift) -> LaminationSystem:
    p1 = BoundaryPoint.disk_angle(shift)
    p2 = BoundaryPoint.disk_angle(shift + HALF)
    spec = DenseSpec.disk_angles(shift, seeds=(p1, p2))

    def build(depth):
        return half_farey(spec, p1, p2, depth) + half_farey(spec, p2, p1, depth)[1:]

    return LaminationSystem(name, Chart.DISK_ANGLE, build)


def _finite_cyclic_system(name, shift, n) -> LaminationSystem:
    p0 = BoundaryPoint.disk_angle(0)
    p1 = BoundaryPoint.disk_angle(FieldElem((1, n)))
    spec = DenseSpec.disk_angles(0, seeds=(p0, p1))
    return _orbit_system(
        name,
        Chart.DISK_ANGLE,
        lambda depth: half_farey(spec, p0, p1, depth),
        lambda depth: [AngleShift(shift + FieldElem((k, n))) for k in range(n)],
    )


def _parabolic_system(name, shift) -> LaminationSystem:
    zero = BoundaryPoint.ext_real(0)
    one = BoundaryPoint.ext_real(1)
    inf = BoundaryPoint.ext_inf()
    spec = DenseSpec.ext_rationals(0, seeds=(zero, one))
    return _orbit_system(
        name,
        Chart.EXT_REAL,
        lambda depth: half_farey(spec, zero, one, depth) + [Chord(zero, inf)],
        lambda depth: [MobiusMap(1, shift + k, 0, 1) for k in range(-depth, depth + 1)],
    )


def _square_base():
    """The depth -> square triangulation builder on exponents [0, 1] of
    both rays, with its own spec."""
    i1 = BoundaryPoint.signed_exp(-1, 1)
    i2 = BoundaryPoint.signed_exp(-1, 0)
    j1 = BoundaryPoint.signed_exp(1, 0)
    j2 = BoundaryPoint.signed_exp(1, 1)
    spec = DenseSpec.exp_rationals(0, seeds=(j1, j2, i1, i2))
    return lambda depth: square_triangulation(spec, (i1, i2), (j1, j2), depth)


def _hyperbolic_system(name, shift) -> LaminationSystem:
    return _orbit_system(
        name,
        Chart.SIGNED_EXP,
        _square_base(),
        lambda depth: [ExpAffine(False, shift + k) for k in range(-depth, depth + 1)],
    )


def _dihedral_system(name, shift, generators) -> LaminationSystem:
    j1 = BoundaryPoint.signed_exp(1, shift)
    j2 = BoundaryPoint.signed_exp(1, shift + HALF)
    i1 = BoundaryPoint.signed_exp(-1, HALF - shift)
    i2 = BoundaryPoint.signed_exp(-1, -shift)
    spec = DenseSpec.exp_rationals(shift, -shift, seeds=(j1, j2, i1, i2))
    return _orbit_system(
        name,
        Chart.SIGNED_EXP,
        lambda depth: square_triangulation(spec, (i1, i2), (j1, j2), depth),
        lambda depth: ball_enumerate(generators, depth),
    )


def require_cyclic_order(n: int | None) -> None:
    """The order of a finite_cyclic collection is an integer n >= 2."""
    if n is None or n < 2:
        raise UnsupportedKind(f"finite_cyclic requires order n >= 2, not {n!r}")


def elementary_col3(kind: str, n: int | None = None) -> Col3Collection:
    """The elementary invariant triples: trivial, finite_cyclic(n), parabolic,
    hyperbolic (unit translation length) and dihedral."""
    if kind == "trivial":
        systems = tuple(_trivial_system(nm, sh) for nm, sh in _SHIFTS)
        return Col3Collection(kind, systems, (), (), {})
    if kind == "finite_cyclic":
        require_cyclic_order(n)
        gen = AngleShift(FieldElem((1, n)))
        systems = tuple(_finite_cyclic_system(nm, sh, n) for nm, sh in _SHIFTS)
        return Col3Collection(kind, systems, (gen,), (), {"n": n})
    if kind == "parabolic":
        gen = MobiusMap(1, 1, 0, 1)
        systems = tuple(_parabolic_system(nm, sh) for nm, sh in _SHIFTS)
        return Col3Collection(kind, systems, (gen,), (BoundaryPoint.ext_inf(),), {})
    if kind == "hyperbolic":
        gen = ExpAffine(False, 1)
        systems = tuple(_hyperbolic_system(nm, sh) for nm, sh in _SHIFTS)
        return Col3Collection(kind, systems, (gen,), (), {})
    if kind == "dihedral":
        gens = (ExpAffine(True, 0), ExpAffine(True, 1))
        systems = tuple(_dihedral_system(nm, sh, gens) for nm, sh in _SHIFTS)
        return Col3Collection(kind, systems, gens, (), {})
    raise UnsupportedKind(f"unknown elementary kind: {kind!r}")


ELEMENTARY_KINDS = ("trivial", "finite_cyclic", "parabolic", "hyperbolic", "dihedral")


def half_farey_system() -> LaminationSystem:
    """The canonical standalone fill of [0, inf] over the rationals."""
    zero = BoundaryPoint.ext_real(0)
    inf = BoundaryPoint.ext_inf()
    spec = DenseSpec.ext_rationals(0, seeds=(zero, inf))
    return LaminationSystem(
        "half_farey",
        Chart.EXT_REAL,
        lambda depth: half_farey(spec, zero, inf, depth),
    )


def square_system() -> LaminationSystem:
    """The canonical standalone square triangulation in the exponent chart."""
    return LaminationSystem("square", Chart.SIGNED_EXP, _square_base())


def farey_system() -> LaminationSystem:
    return LaminationSystem("farey", Chart.EXT_REAL, _farey_builder())


# the standalone systems, by the builder name their documents carry
SYSTEM_BUILDERS = {"farey": farey_system, "half_farey": half_farey_system, "square": square_system}
