"""Workload definitions and the seeded plan of one benchmark round.

A round is one user session over a workload's inputs:

* the CLI pipeline: ``build elementary`` -> ``check`` (all five suites) ->
  ``render`` for every collection kind of the workload, each command in a
  fresh child process;
* truncation queries: ``separate_distinct_pair``, ``rainbow_probe`` and
  ``c_p_I`` on fixed truncations, in QUERY_CHILDREN child processes that each
  build their truncations once (their set-up);
* group dynamics: ``laminar dynamics --test cusps`` on each group and
  ``--test triples`` on a hyperbolic map, each in a fresh child process.

The query inputs come from fixed pools recorded with their reference answers
in ``refs.json`` (see ``make_refs.py``); the seed picks which pool entries a
round uses and in which order the documents are processed.  The plan is a pure
function of (workload, seed).
"""

from __future__ import annotations

import math
import random

DOC_DEPTH = 4
CUSP_RADIUS = 10
TRIPLES_HORIZON = 200
TRIPLES_SEEDS = 16  # sampler seeds 0..15 have reference verdicts
QUERY_CHILDREN = 3
TRIPLES_RUNS = 3
# queries per round; separate p90 needs at least 100 samples
QUERIES = {"separate": 100, "probe": 60, "chain": 40}
# A query pool holds 4/3 of the entries a round takes from it, so rounds of
# different seeds share most of their queries and their medians stay close.
POOL_FACTOR = 4 / 3

# Truncations the queries run on: name -> (kind, system index, depth).  The
# sizes are close (288 / 225 / 225 chords) so per-query costs compare.
TRUNCATIONS = {
    "parabolic:rational": ("parabolic", 0, 4),
    "hyperbolic:sqrt2": ("hyperbolic", 1, 3),
    "dihedral:sqrt3": ("dihedral", 2, 3),
}

_ONE = "1/1,0/1,0/1,0/1"
_ZERO = "0/1,0/1,0/1,0/1"
_S = {"matrix": [_ZERO, "-1/1,0/1,0/1,0/1", _ONE, _ZERO]}

# Group files as the CLI reads them: {"generators": [...]}.
GROUPS = {
    "psl2z": [_S, {"matrix": [_ONE, _ONE, _ZERO, _ONE]}],
    "hecke_sqrt2": [_S, {"matrix": [_ONE, "0/1,1/1,0/1,0/1", _ZERO, _ONE]}],
    "hecke_sqrt3": [_S, {"matrix": [_ONE, "0/1,0/1,1/1,0/1", _ZERO, _ONE]}],
    # hyperbolic maps whose powers feed the triple sampler
    "hyp_rational": [{"matrix": ["2/1,0/1,0/1,0/1", _ONE, _ONE, _ONE]}],
    "hyp_sqrt3": [{"matrix": [_ONE, "0/1,0/1,1/1,0/1", "0/1,0/1,1/1,0/1", "4/1,0/1,0/1,0/1"]}],
}

WORKLOADS = {
    "rational": {
        "kinds": [("trivial", None), ("finite_cyclic", 5), ("parabolic", None), ("dihedral", None)],
        "truncations": {"parabolic:rational": 1},
        "cusp_groups": ["psl2z"],
        "triples_group": "hyp_rational",
    },
    "irrational": {
        "kinds": [("parabolic", None), ("hyperbolic", None), ("dihedral", None)],
        # uneven, so that medians fall inside one truncation's cost cluster
        "truncations": {"hyperbolic:sqrt2": 2, "dihedral:sqrt3": 1},
        "cusp_groups": ["hecke_sqrt2", "hecke_sqrt3"],
        "triples_group": "hyp_sqrt3",
    },
}


def doc_name(kind: str, n) -> str:
    return f"{kind}{n or ''}-d{DOC_DEPTH}"


def shares(workload: str, qtype: str) -> dict:
    """Queries of one type per round, per truncation, by the workload's weights."""
    weights = WORKLOADS[workload]["truncations"]
    total, left = QUERIES[qtype], QUERIES[qtype]
    out = {}
    for k, (name, w) in enumerate(weights.items()):
        out[name] = left if k == len(weights) - 1 else round(total * w / sum(weights.values()))
        left -= out[name]
    return out


def pool_size(trunc: str, qtype: str) -> int:
    workload = next(w for w, spec in WORKLOADS.items() if trunc in spec["truncations"])
    return math.ceil(POOL_FACTOR * shares(workload, qtype)[trunc])


def make_plan(workload: str, seed: int, refs: dict) -> dict:
    """The inputs of one round: a pure function of (workload, seed, refs)."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    kinds = list(spec["kinds"])
    rng.shuffle(kinds)
    queries = {}
    for qtype in QUERIES:
        picks = []
        for trunc, share in shares(workload, qtype).items():
            picks += [(trunc, i) for i in rng.sample(range(len(refs["queries"][trunc][qtype])), share)]
        rng.shuffle(picks)
        # deal the picks round-robin to the query children
        queries[qtype] = [picks[c::QUERY_CHILDREN] for c in range(QUERY_CHILDREN)]
    return {
        "workload": workload,
        "seed": seed,
        "docs": [{"kind": k, "n": n, "name": doc_name(k, n)} for k, n in kinds],
        "queries": [
            {qtype: queries[qtype][c] for qtype in queries} for c in range(QUERY_CHILDREN)
        ],
        "cusp_groups": list(spec["cusp_groups"]),
        "triples": {
            "group": spec["triples_group"],
            "seeds": rng.sample(range(TRIPLES_SEEDS), TRIPLES_RUNS),
        },
    }
