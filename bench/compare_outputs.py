"""Byte-comparison guard: digests of every CLI output a refactor must keep.

Usage (from a checkout):

    python3 bench/compare_outputs.py --out before.json        # on the parent
    python3 bench/compare_outputs.py --root OTHER --out after.json
    python3 bench/compare_outputs.py --diff before.json after.json

For every elementary kind (finite_cyclic with n=5), farey, half_farey and
square at depths 1-6 it records the sha256 of ``laminar build`` JSON and of
``laminar render`` SVG and ``--format json`` arcs; at depths 2 and 4 it records
the exit code of ``laminar check`` and its report with the timings removed.  It
records both renders also for two sets of depth-3 files whose layers share
points: farey with half_farey, and the parabolic collection (which adds cusps)
with farey.  It also records the sha256 of ``laminar dynamics`` output: cusps
at radius 8 and wings on PSL(2,Z) and the Hecke sqrt2 and sqrt3 groups, and
triples at horizon 200 with seeds 0-3 on two hyperbolic matrices, a rotation
and an exponent translation, and at horizon 1000 with seed 0 on the two
hyperbolic matrices, whose powers ``to_float_matrix`` rescales from power 362
(rational) and 222 (sqrt3) on.  For every system of each elementary kind and for farey, at depth
3, it records the sha256 of the answers to a fixed seeded sample of queries:
``separate_distinct_pair`` on 50 chord pairs (witness, chain maximum and both
containers), ``c_p_I`` on 30 chains and ``rainbow_probe`` on 30 points.  Build
JSON is sorted, so it cannot show chord order: for each of those systems and
for half_farey and square it records the sha256 of the encoded
``system.chords(d)`` tuples for d = 1-6, in order.  The laminar under
``ROOT/src`` is imported (default: the checkout holding this script).
``--diff`` prints every key whose value differs and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
KINDS = ["trivial", "finite_cyclic", "parabolic", "hyperbolic", "dihedral", "farey", "half_farey", "square"]
BUILD_DEPTHS = range(1, 7)
CHECK_DEPTHS = (2, 4)
QUERY_DEPTH = 3
QUERY_KINDS = KINDS[:5]  # elementary; farey is queried as its own system
MULTI_RENDERS = (("farey", "half_farey"), ("parabolic", "farey"))  # layers that share points
MULTI_DEPTH = 3

_ONE, _ZERO = "1/1,0/1,0/1,0/1", "0/1,0/1,0/1,0/1"
_S = {"matrix": [_ZERO, "-1/1,0/1,0/1,0/1", _ONE, _ZERO]}
GROUPS = {
    "psl2z": [_S, {"matrix": [_ONE, _ONE, _ZERO, _ONE]}],
    "hecke_sqrt2": [_S, {"matrix": [_ONE, "0/1,1/1,0/1,0/1", _ZERO, _ONE]}],
    "hecke_sqrt3": [_S, {"matrix": [_ONE, "0/1,0/1,1/1,0/1", _ZERO, _ONE]}],
    "hyp_rational": [{"matrix": ["2/1,0/1,0/1,0/1", _ONE, _ONE, _ONE]}],
    "hyp_sqrt3": [{"matrix": [_ONE, "0/1,0/1,1/1,0/1", "0/1,0/1,1/1,0/1", "4/1,0/1,0/1,0/1"]}],
    "angle_sqrt3_7": [{"action": "angle_shift", "delta": "0/1,0/1,1/7,0/1"}],
    "exp_sqrt2": [{"action": "exp_affine", "flip": False, "tau": "0/1,1/1,0/1,0/1"}],
}
CUSP_GROUPS = ("psl2z", "hecke_sqrt2", "hecke_sqrt3")
TRIPLE_GROUPS = ("hyp_rational", "hyp_sqrt3", "angle_sqrt3_7", "exp_sqrt2")
RESCALED_GROUPS = ("hyp_rational", "hyp_sqrt3")  # triples at horizon 1000


def _build_argv(kind: str, depth: int, out: str) -> list:
    if kind in ("farey", "half_farey", "square"):
        return ["build", kind, "--depth", str(depth), "--out", out]
    extra = ["--n", "5"] if kind == "finite_cyclic" else []
    return ["build", "elementary", "--kind", kind, *extra, "--depth", str(depth), "--out", out]


def _sha(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _strip_seconds(report: dict) -> dict:
    for entry in report["reports"]:
        for check in entry["checks"]:
            check.pop("seconds", None)
        entry.pop("file", None)
    return report


def _dynamics(main, tmp: str, group: str, test: list) -> str:
    path = os.path.join(tmp, f"{group}.group.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"generators": GROUPS[group]}, f)
    out = os.path.join(tmp, "dynamics.json")
    assert main(["dynamics", "--group", path, *test, "--out", out]) == 0, (group, test)
    return _sha(out)


def _away_side(c1, c2):
    """The side of chord c1 that holds neither endpoint of c2."""
    return next(s for s in c1.sides() if not s.contains(c2.lo) and not s.contains(c2.hi))


def _queries(system) -> dict:
    """Seeded separation, chain and probe answers on one system."""
    from laminar import c_p_I, rainbow_probe, separate_distinct_pair

    rng = random.Random(0)
    chords = sorted(system.chords(QUERY_DEPTH), key=lambda c: c.encode())
    points = sorted({p for c in system.chords(QUERY_DEPTH + 1) for p in (c.lo, c.hi)}, key=lambda p: p.encode())
    pairs = []
    for _ in range(50):
        c1, c2 = rng.sample(chords, 2)
        sep = separate_distinct_pair(chords, _away_side(c1, c2), _away_side(c2, c1))
        if sep is not None:
            sep = [iv.encode() for iv in (sep.witness, sep.chain_max, sep.container_of_first, sep.container_of_second)]
        pairs.append(sep)
    chains = []
    for _ in range(30):
        p, c = rng.choice(points), rng.choice(chords)
        outer = c.side_containing(p) if p not in (c.lo, c.hi) else rng.choice(c.sides())
        chains.append([iv.encode() for iv in c_p_I(chords, p, outer)])
    probes = [repr(rainbow_probe(system, rng.choice(points), QUERY_DEPTH)) for _ in range(30)]
    return {"separate": pairs, "chain": chains, "probe": probes}


def collect(root: str) -> dict:
    sys.path.insert(0, os.path.join(root, "src"))
    from laminar.cli import main

    out = {}
    with tempfile.TemporaryDirectory(prefix="laminar-compare-") as tmp:
        for kind in KINDS:
            for depth in BUILD_DEPTHS:
                doc = os.path.join(tmp, f"{kind}-{depth}.json")
                svg = os.path.join(tmp, f"{kind}-{depth}.svg")
                arcs = os.path.join(tmp, f"{kind}-{depth}.arcs.json")
                assert main(_build_argv(kind, depth, doc)) == 0, (kind, depth)
                assert main(["render", doc, "--out", svg]) == 0, (kind, depth)
                assert main(["render", doc, "--format", "json", "--out", arcs]) == 0, (kind, depth)
                out[f"build:{kind}:{depth}"] = _sha(doc)
                out[f"render:{kind}:{depth}"] = _sha(svg)
                out[f"arcs:{kind}:{depth}"] = _sha(arcs)
                if depth in CHECK_DEPTHS:
                    report = os.path.join(tmp, f"{kind}-{depth}.check.json")
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = main(["check", doc, "--out", report])
                    with open(report, encoding="utf-8") as f:
                        out[f"check:{kind}:{depth}"] = {"exit": code, **_strip_seconds(json.load(f))}
        for kinds in MULTI_RENDERS:
            docs = [os.path.join(tmp, f"{kind}-{MULTI_DEPTH}.json") for kind in kinds]
            name = "+".join(kinds)
            svg = os.path.join(tmp, f"{name}.svg")
            arcs = os.path.join(tmp, f"{name}.arcs.json")
            assert main(["render", *docs, "--out", svg]) == 0, kinds
            assert main(["render", *docs, "--format", "json", "--out", arcs]) == 0, kinds
            out[f"render:{name}:{MULTI_DEPTH}"] = _sha(svg)
            out[f"arcs:{name}:{MULTI_DEPTH}"] = _sha(arcs)
        from laminar import elementary_col3, farey_system, half_farey_system, square_system

        systems = [("farey", farey_system())]
        for kind in QUERY_KINDS:
            col = elementary_col3(kind, n=5 if kind == "finite_cyclic" else None)
            systems += [(kind, system) for system in col.systems]
        for kind, system in [*systems, ("half_farey", half_farey_system()), ("square", square_system())]:
            order = [[c.encode() for c in system.chords(d)] for d in BUILD_DEPTHS]
            out[f"order:{kind}:{system.name}"] = hashlib.sha256(json.dumps(order).encode("utf-8")).hexdigest()
        for kind, system in systems:
            for query, answers in _queries(system).items():
                digest = hashlib.sha256(json.dumps(answers).encode("utf-8")).hexdigest()
                out[f"{query}:{kind}:{system.name}:{QUERY_DEPTH}"] = digest
        for group in CUSP_GROUPS:
            out[f"cusps:{group}:8"] = _dynamics(main, tmp, group, ["--test", "cusps", "--radius", "8"])
            out[f"wings:{group}"] = _dynamics(main, tmp, group, ["--test", "wings"])
        for group in TRIPLE_GROUPS:
            for seed in range(4):
                test = ["--test", "triples", "--horizon", "200", "--seed", str(seed)]
                out[f"triples:{group}:{seed}"] = _dynamics(main, tmp, group, test)
        for group in RESCALED_GROUPS:
            test = ["--test", "triples", "--horizon", "1000", "--seed", "0"]
            out[f"triples:{group}:1000"] = _dynamics(main, tmp, group, test)
    return out


def diff(a_path: str, b_path: str) -> int:
    with open(a_path, encoding="utf-8") as f:
        a = json.load(f)
    with open(b_path, encoding="utf-8") as f:
        b = json.load(f)
    changed = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    for key in changed:
        print(f"differs: {key}")
    print(f"{len(set(a) | set(b)) - len(changed)} identical, {len(changed)} different")
    return 1 if changed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(HERE), help="checkout whose src/laminar is run")
    parser.add_argument("--out", help="write the digests here (default: stdout)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two digest files")
    args = parser.parse_args()
    if args.diff:
        return diff(*args.diff)
    text = json.dumps(collect(os.path.abspath(args.root)), indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
