"""Byte-comparison guard: digests of every CLI output a refactor must keep.

Usage (from a checkout):

    python3 bench/compare_outputs.py --out before.json        # on the parent
    python3 bench/compare_outputs.py --root OTHER --out after.json
    python3 bench/compare_outputs.py --diff before.json after.json

For every elementary kind (finite_cyclic with n=5), farey, half_farey and
square at depths 1-6 it records the sha256 of ``laminar build`` JSON and of
``laminar render`` SVG and ``--format json`` arcs; at depths 2 and 4 it records
the exit code of ``laminar check`` and its report with the timings removed, and
the sha256 of the report file's text, with the temporary directory written as
``<tmp>`` and every ``"seconds"`` value as 0 (``report`` keys), so the writer's
bytes are guarded for reports too.  It
records both renders also for two sets of depth-3 files whose layers share
points: farey with half_farey, and the parabolic collection (which adds cusps)
with farey.  It also records the sha256 of ``laminar dynamics`` output: cusps
at radius 8 and wings on PSL(2,Z) and the Hecke sqrt2 and sqrt3 groups, cusps
at radius 10 on the two Hecke groups and at radius 6 on the group generated by
[[1, sqrt2], [0, 1]] and [[1, 0], [sqrt3, 1]], and
triples at horizon 200 with seeds 0-3 on two hyperbolic matrices, a rotation
and an exponent translation, and at horizon 1000 with seed 0 on the two
hyperbolic matrices, whose powers ``to_float_matrix`` rescales from power 362
(rational) and 222 (sqrt3) on.  For the two Hecke groups and the sqrt2, sqrt3
group it records the sha256 of ``fixed_points()`` of every non-identity map in
the radius-6 word ball, field points encoded and symbolic roots as
(a, b, c, branch): hyperbolic elements reach ``FieldElem.sqrt``, which no CLI
command does (``fixed`` keys).  For every system of each elementary kind and
for farey, at depth 3, it records the sha256 of the answers to a fixed seeded
sample of queries: ``separate_distinct_pair`` on 50 chord pairs (witness,
chain maximum and both containers), ``c_p_I`` on 30 chains, ``rainbow_probe`` on 30 points, and
``c_p_I`` on 30 more chains whose outer arc runs between two depth-5 points off
the depth-3 truncation, mostly two in one slot between consecutive endpoints,
so that the short arc inside a slot, the long arc round the circle and the wrap
slot all occur (``slot_chain`` keys).  Build
JSON is sorted, so it cannot show chord order: for each of those systems and
for half_farey and square it records the sha256 of the encoded
``system.chords(d)`` tuples for d = 1-6, in order.  A chord's ends are held
in identity order, which differs from run to run, and read in linear order
only by ``repr`` and ``sides()``: for every system of each elementary kind and
for farey it records the sha256 of each depth-3 chord's ``repr`` and the
encodings of its two sides, in ``system.chords(3)`` order (``views`` keys).
The laminar under
``ROOT/src`` is imported (default: the checkout holding this script).
For ``check``, ``render`` and ``dynamics`` it records the exit code and the
stderr on seven unreadable inputs, with the temporary directory written as
``<tmp>``: a missing file, a directory, invalid JSON and a document whose chord
has the non-canonical point r:2/4 and whose generator the non-canonical entry
2/4, which share one ``errors:<command>`` key; and, each under its own
``errors:<command>:<input>`` key, spellings that Python's ``int()`` reads but
``encode()`` never writes (the point r:1_0/3,0/1,0/1,0/1 in a chord, the
generator entry " 1/2,0/1,0/1,0/1"), a chord written as a JSON object of
its two point strings, and four header edits: a system named ``{"a": 1}``, two
systems both named ``"rational"``, a collection whose ``kind`` is null and a
lamination whose ``name`` is ``[]``.
For an invalid lamination it records, under ``check:<kind>:4:crossing``, the
exit code of ``laminar check`` and its report with the timings removed, on the
depth-4 parabolic collection and the depth-4 farey file, each with one chord
added to its first system that crosses the set (the chord list kept
canonical), under ``report:<kind>:4:crossing`` that report's text as for the
``report`` keys, and under ``gaps:<kind>:4:crossing`` the ``InvalidLamination``
message that ``gaps`` raises on that system's chords as read from the file.
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
import re
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
    "mixed_sqrt2_sqrt3": [
        {"matrix": [_ONE, "0/1,1/1,0/1,0/1", _ZERO, _ONE]},
        {"matrix": [_ONE, _ZERO, "0/1,0/1,1/1,0/1", _ONE]},
    ],
}
CUSP_GROUPS = ("psl2z", "hecke_sqrt2", "hecke_sqrt3")
# cusps at further radii: perfbench's radius on the Hecke groups, and a group
# whose products mix sqrt2, sqrt3 and sqrt6 terms
CUSP_RADII = (("hecke_sqrt2", 10), ("hecke_sqrt3", 10), ("mixed_sqrt2_sqrt3", 6))
TRIPLE_GROUPS = ("hyp_rational", "hyp_sqrt3", "angle_sqrt3_7", "exp_sqrt2")
RESCALED_GROUPS = ("hyp_rational", "hyp_sqrt3")  # triples at horizon 1000
FIXED_GROUPS, FIXED_RADIUS = ("hecke_sqrt2", "hecke_sqrt3", "mixed_sqrt2_sqrt3"), 6
_SYSTEM = {"chart": "ext_real", "depth": 1, "chords": [["r:0/1,0/1,0/1,0/1", "r:inf"]]}
_OTHER = {**_SYSTEM, "chords": [["r:1/1,0/1,0/1,0/1", "r:2/1,0/1,0/1,0/1"]]}  # no end shared with _SYSTEM
BAD_INPUTS = {  # name -> file content, or None for no file
    "missing": None,
    "directory": "",
    "invalid-json": "{",
    "non-canonical": json.dumps(
        {
            "chart": "ext_real",
            "depth": 1,
            "chords": [["r:0/1,0/1,0/1,0/1", "r:2/4,0/1,0/1,0/1"]],
            "generators": [{"matrix": ["2/4,0/1,0/1,0/1", _ZERO, _ZERO, _ONE]}],
        }
    ),
    "underscore-point": json.dumps(
        {"chart": "ext_real", "depth": 1, "chords": [["r:0/1,0/1,0/1,0/1", "r:1_0/3,0/1,0/1,0/1"]]}
    ),
    "spaced-generator": json.dumps({"generators": [{"matrix": [" 1/2,0/1,0/1,0/1", _ZERO, _ZERO, _ONE]}]}),
    "chord-as-object": json.dumps(
        {"chart": "ext_real", "depth": 1, "chords": [{"r:0/1,0/1,0/1,0/1": 1, "r:1/1,0/1,0/1,0/1": 2}]}
    ),
    "system-name-not-a-string": json.dumps(
        {"kind": "parabolic", "depth": 1, "systems": [{"name": {"a": 1}, **_SYSTEM}]}
    ),
    "system-names-repeat": json.dumps(
        {"kind": "parabolic", "depth": 1, "systems": [{"name": "rational", **_SYSTEM}, {"name": "rational", **_OTHER}]}
    ),
    "collection-kind-null": json.dumps({"kind": None, "depth": 1, "systems": [{"name": "rational", **_SYSTEM}]}),
    "lamination-name-not-a-string": json.dumps({"name": [], **_SYSTEM}),
}
GROUPED_INPUTS = ("missing", "directory", "invalid-json", "non-canonical")  # one errors:<command> key
ERROR_ARGV = {"check": ["check"], "render": ["render"], "dynamics": ["dynamics", "--test", "cusps", "--group"]}
CROSSING_KINDS, CROSSING_DEPTH = ("parabolic", "farey"), 4  # built files given one crossing chord


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


def _report_text(path: str, tmp: str) -> str:
    """sha256 of a check report's text, the temporary directory written as
    ``<tmp>`` and every timing as 0."""
    with open(path, encoding="utf-8") as f:
        text = re.sub(r'"seconds": [^,\n]+', '"seconds": 0', f.read().replace(tmp, "<tmp>"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dynamics(main, tmp: str, group: str, test: list) -> str:
    path = os.path.join(tmp, f"{group}.group.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"generators": GROUPS[group]}, f)
    out = os.path.join(tmp, "dynamics.json")
    assert main(["dynamics", "--group", path, *test, "--out", out]) == 0, (group, test)
    return _sha(out)


def _errors(main, tmp: str) -> dict:
    """{command: {input: [exit code, stderr]}} on each of BAD_INPUTS."""
    paths = {}
    for name, content in BAD_INPUTS.items():
        paths[name] = path = os.path.join(tmp, f"bad-{name}.json")
        if content == "":
            os.mkdir(path)
        elif content is not None:
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
    out = {}
    for command, argv in ERROR_ARGV.items():
        for name, path in paths.items():
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, path])
            out.setdefault(command, {})[name] = [code, err.getvalue().replace(tmp, "<tmp>")]
    return out


def _crossing(main, tmp: str, kind: str) -> dict:
    """``check`` and the ``gaps`` error on the depth-4 file of ``kind`` (built
    above) with one chord added to its first system: the first new chord that
    crosses the set from its first endpoint in rank to an endpoint from the
    middle one on.  The chord list stays canonical, so only the crossing is
    wrong."""
    from laminar.errors import InvalidLamination
    from laminar.jsonio import chords_to_json, dumps, load
    from laminar.lamination import Chord, Truncation, gaps, unlinked

    def first_system(path):
        parsed = load(path)
        return (parsed.systems[0] if hasattr(parsed, "systems") else parsed).chords

    path = os.path.join(tmp, f"{kind}-{CROSSING_DEPTH}.json")
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    chords = first_system(path)
    points = Truncation(chords).points
    planted = next(
        c
        for c in (Chord(points[0], q) for q in points[len(points) // 2 :])
        if c not in chords and not all(unlinked(c, ch) for ch in chords)
    )
    (doc["systems"][0] if "systems" in doc else doc)["chords"] = chords_to_json([*chords, planted])
    path = os.path.join(tmp, f"{kind}-{CROSSING_DEPTH}.crossing.json")
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(doc))
    report = os.path.join(tmp, f"{kind}-{CROSSING_DEPTH}.crossing.check.json")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["check", path, "--out", report])
    with open(report, encoding="utf-8") as f:
        out = {f"check:{kind}:{CROSSING_DEPTH}:crossing": {"exit": code, **_strip_seconds(json.load(f))}}
    out[f"report:{kind}:{CROSSING_DEPTH}:crossing"] = _report_text(report, tmp)
    try:
        gaps(first_system(path))
    except InvalidLamination as exc:
        out[f"gaps:{kind}:{CROSSING_DEPTH}:crossing"] = str(exc)
    return out


def _fixed(group: str) -> str:
    """Digest of the fixed points of every non-identity map in the group's ball."""
    from laminar import ball_enumerate
    from laminar.mobius import map_from_json

    answers = []
    for g in ball_enumerate([map_from_json(m) for m in GROUPS[group]], FIXED_RADIUS):
        if not g.is_identity:
            points, roots = g.fixed_points()
            roots = [[r.a.encode(), r.b.encode(), r.c.encode(), r.branch] for r in roots]
            answers.append([[p.encode() for p in points], roots])
    return hashlib.sha256(json.dumps(answers).encode("utf-8")).hexdigest()


def _away_side(c1, c2):
    """The side of chord c1 that holds neither endpoint of c2."""
    return next(s for s in c1.sides() if not s.contains(c2.lo) and not s.contains(c2.hi))


def _queries(system) -> dict:
    """Seeded separation, chain and probe answers on one system."""
    from laminar import Interval, c_p_I, rainbow_probe, separate_distinct_pair

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
    # outer arcs between two points off the truncation, mostly two in one slot
    # (the gap between consecutive endpoints): depth QUERY_DEPTH + 2 puts at
    # least three points in every slot, where depth QUERY_DEPTH + 1 may put one
    t = system.truncation(QUERY_DEPTH)
    off = {p for c in system.chords(QUERY_DEPTH + 2) for p in (c.lo, c.hi)} - t.rank.keys()
    off = sorted(off, key=lambda p: p.encode())
    slots = {}
    for p in off:
        slots.setdefault(t.ranks(p)[0], []).append(p)
    slot_chains = []
    for _ in range(30):
        start = rng.choice(off)
        near = slots[t.ranks(start)[0]]
        end = rng.choice([q for q in (near if rng.random() < 0.7 else off) if q is not start])
        p = rng.choice(near if rng.random() < 0.3 else points)
        slot_chains.append([iv.encode() for iv in c_p_I(chords, p, Interval(start, end))])
    return {"separate": pairs, "chain": chains, "probe": probes, "slot_chain": slot_chains}


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
                    out[f"report:{kind}:{depth}"] = _report_text(report, tmp)
        for kind in CROSSING_KINDS:
            out.update(_crossing(main, tmp, kind))
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
            views = [[repr(c), *(s.encode() for s in c.sides())] for c in system.chords(QUERY_DEPTH)]
            out[f"views:{kind}:{system.name}"] = hashlib.sha256(json.dumps(views).encode("utf-8")).hexdigest()
            for query, answers in _queries(system).items():
                digest = hashlib.sha256(json.dumps(answers).encode("utf-8")).hexdigest()
                out[f"{query}:{kind}:{system.name}:{QUERY_DEPTH}"] = digest
        for group in CUSP_GROUPS:
            out[f"cusps:{group}:8"] = _dynamics(main, tmp, group, ["--test", "cusps", "--radius", "8"])
            out[f"wings:{group}"] = _dynamics(main, tmp, group, ["--test", "wings"])
        for group, radius in CUSP_RADII:
            out[f"cusps:{group}:{radius}"] = _dynamics(main, tmp, group, ["--test", "cusps", "--radius", str(radius)])
        for group in FIXED_GROUPS:
            out[f"fixed:{group}:{FIXED_RADIUS}"] = _fixed(group)
        for group in TRIPLE_GROUPS:
            for seed in range(4):
                test = ["--test", "triples", "--horizon", "200", "--seed", str(seed)]
                out[f"triples:{group}:{seed}"] = _dynamics(main, tmp, group, test)
        for group in RESCALED_GROUPS:
            test = ["--test", "triples", "--horizon", "1000", "--seed", "0"]
            out[f"triples:{group}:1000"] = _dynamics(main, tmp, group, test)
        for command, answers in _errors(main, tmp).items():
            out[f"errors:{command}"] = {name: answers.pop(name) for name in GROUPED_INPUTS}
            for name, answer in answers.items():
                out[f"errors:{command}:{name}"] = answer
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
