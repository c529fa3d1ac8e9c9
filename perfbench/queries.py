"""Truncation queries: fixtures, inputs and answer digests.

Shared by the query child (timed runs) and make_refs.py (reference answers),
so both compute answers the same way.  Imports laminar lazily: the caller
decides which laminar is on sys.path.
"""

from __future__ import annotations

import hashlib
import json


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def build_truncation(kind: str, index: int, depth: int):
    """(system, depth, chords sorted by encoding) for one collection system."""
    from laminar import elementary_col3

    system = elementary_col3(kind).systems[index]
    chords = sorted(system.chords(depth), key=lambda c: c.encode())
    return system, depth, chords


def away_side(c1, c2):
    """The side of c1 that holds neither endpoint of c2."""
    for side in c1.sides():
        if not side.contains(c2.lo) and not side.contains(c2.hi):
            return side
    raise ValueError("chords are linked")


def resolve(qtype: str, entry, fixture):
    """Turn a pool entry into the arguments of one query."""
    from laminar import BoundaryPoint

    system, depth, chords = fixture
    if qtype == "separate":
        c1, c2 = chords[entry[0]], chords[entry[1]]
        return (chords, away_side(c1, c2), away_side(c2, c1))
    if qtype == "probe":
        return (system, BoundaryPoint.parse(entry), depth)
    p = BoundaryPoint.parse(entry[0])
    return (chords, p, chords[entry[1]].side_containing(p))


def function(qtype: str):
    from laminar import c_p_I, rainbow_probe, separate_distinct_pair

    return {"separate": separate_distinct_pair, "probe": rainbow_probe, "chain": c_p_I}[qtype]


def answer(qtype: str, result) -> str:
    """A digest of a query result, compared against the recorded reference."""
    if qtype == "separate":
        if result is None:
            return "none"
        return digest(
            [
                result.witness.encode(),
                result.chain_max.encode(),
                result.container_of_first.encode(),
                result.container_of_second.encode(),
            ]
        )
    if qtype == "probe":
        return repr(result)
    return digest([iv.encode() for iv in result])
