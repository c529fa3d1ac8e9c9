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
