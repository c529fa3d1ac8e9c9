import random

import pytest

from laminar import elementary_col3, farey_system, half_farey_system, square_system
from laminar.circle import BoundaryPoint
from laminar.field import FieldElem
from laminar.lamination import interval_subset


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
    oracle that ``checks.refined_gap`` is tested against."""
    return all(any(interval_subset(u, w) for w in fine.intervals) for u in coarse.intervals)


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
