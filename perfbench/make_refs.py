"""Regenerate perfbench/refs.json: the query pools and every reference answer.

Usage: python3 perfbench/make_refs.py   (from the repository root; a few minutes)

The references pin the outputs of the commit they were made at: sha256 of each
build JSON and SVG, each check verdict list, the separation witnesses, probe
and chain answers, the cusp lists and the triple-sampler verdicts.  A later
change that alters any of them fails the benchmark's correctness gate, so run
this only when an output change is intended, and say so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import queries  # noqa: E402
import workloads as W  # noqa: E402

def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_verdicts(report_path: str) -> list:
    with open(report_path, encoding="utf-8") as f:
        doc = json.load(f)
    return [[c["name"], c["status"]] for rep in doc["reports"] for c in rep["checks"]]


def _cli(argv) -> int:
    from laminar import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def doc_refs(workdir: str) -> dict:
    out = {}
    for kind, n in dict.fromkeys(k for spec in W.WORKLOADS.values() for k in spec["kinds"]):
        name = W.doc_name(kind, n)
        doc, report, svg = (os.path.join(workdir, name + ext) for ext in (".json", ".report.json", ".svg"))
        argv = ["build", "elementary", "--kind", kind, "--depth", str(W.DOC_DEPTH), "--out", doc]
        assert _cli(argv + (["--n", str(n)] if n else [])) == 0
        assert _cli(["check", doc, "--out", report]) == 0
        assert _cli(["render", doc, "--out", svg]) == 0
        out[name] = {"build": sha256_file(doc), "check": check_verdicts(report), "render": sha256_file(svg)}
        print("doc", name, flush=True)
    return out


def query_pool(name: str) -> dict:
    from laminar import endpoints_set
    from laminar.errors import NotADistinctPair

    kind, index, depth = W.TRUNCATIONS[name]
    fixture = queries.build_truncation(kind, index, depth)
    system, _, chords = fixture
    rng = random.Random(f"pool:{name}")
    pool = {"separate": [], "probe": [], "chain": []}

    while len(pool["separate"]) < W.pool_size(name, "separate"):
        i, j = rng.sample(range(len(chords)), 2)
        try:
            result = queries.function("separate")(*queries.resolve("separate", [i, j], fixture))
        except NotADistinctPair:
            continue
        pool["separate"].append([[i, j], queries.answer("separate", result)])

    # probe points: endpoints at this depth and points new at the next depth
    here = sorted(p.encode() for p in endpoints_set(chords))
    new = sorted({p.encode() for p in endpoints_set(system.chords(depth + 1))} - set(here))
    want = W.pool_size(name, "probe")
    points = rng.sample(here, want // 2) + rng.sample(new, want - want // 2)
    for pt in points:
        result = queries.function("probe")(*queries.resolve("probe", pt, fixture))
        pool["probe"].append([pt, queries.answer("probe", result)])

    while len(pool["chain"]) < W.pool_size(name, "chain"):
        pt, c = rng.choice(points), rng.randrange(len(chords))
        if pt in (chords[c].lo.encode(), chords[c].hi.encode()):
            continue
        result = queries.function("chain")(*queries.resolve("chain", [pt, c], fixture))
        pool["chain"].append([[pt, c], queries.answer("chain", result)])
    print("queries", name, flush=True)
    return pool


def group_refs(workdir: str) -> tuple:
    cusps, triples = {}, {}
    for spec in W.WORKLOADS.values():
        for group in spec["cusp_groups"]:
            path, out = os.path.join(workdir, group + ".json"), os.path.join(workdir, group + ".cusps.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"generators": W.GROUPS[group]}, f)
            assert _cli(["dynamics", "--group", path, "--test", "cusps", "--radius", str(W.CUSP_RADIUS), "--out", out]) == 0
            with open(out, encoding="utf-8") as f:
                cusps[group] = json.load(f)["cusps"]
            print("cusps", group, len(cusps[group]), flush=True)
        group = spec["triples_group"]
        path = os.path.join(workdir, group + ".json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"generators": W.GROUPS[group]}, f)
        verdicts = {}
        for seed in range(W.TRIPLES_SEEDS):
            out = os.path.join(workdir, f"{group}.triples.json")
            argv = ["dynamics", "--group", path, "--test", "triples", "--horizon", str(W.TRIPLES_HORIZON), "--seed", str(seed), "--out", out]
            assert _cli(argv) == 0
            with open(out, encoding="utf-8") as f:
                verdicts[str(seed)] = json.load(f)["verdict"]
        triples[group] = verdicts
        print("triples", group, flush=True)
    return cusps, triples


def main() -> None:
    from laminar import field

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-refs-") as workdir:
        docs = doc_refs(workdir)
        cusps, triples = group_refs(workdir)
    refs = {
        "backend": field._Q.__module__,
        "docs": docs,
        "queries": {name: query_pool(name) for name in W.TRUNCATIONS},
        "cusps": cusps,
        "triples": triples,
    }
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
