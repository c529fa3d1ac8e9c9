"""Self-tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout (the benchmark writes nowhere else)."""
    path = os.path.join(bench.ROOT, ".perfbench_work", "tests", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def refs():
    return bench.load_json(os.path.join(HERE, "refs.json"))


def _subprocess(code: str, *args: str) -> dict:
    """Run code in a fresh interpreter (fixed hash seed); it prints one JSON line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=bench.ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_plan_is_a_pure_function_of_the_seed(refs, workload):
    a, b = W.make_plan(workload, 7, refs), W.make_plan(workload, 7, refs)
    assert a == b
    assert W.make_plan(workload, 8, refs) != a
    separations = [pick for share in a["queries"] for pick in share["separate"]]
    assert len(separations) == W.QUERIES["separate"] >= 100
    assert len(set(separations)) == len(separations)
    for share in a["queries"]:
        for qtype, picks in share.items():
            assert all(0 <= i < len(refs["queries"][t][qtype]) for t, i in picks)
    assert {d["kind"] for d in a["docs"]} == {k for k, _ in W.WORKLOADS[workload]["kinds"]}


def test_plans_cover_every_kind_and_truncation():
    kinds = {k for spec in W.WORKLOADS.values() for k, _ in spec["kinds"]}
    assert kinds == {"trivial", "finite_cyclic", "parabolic", "hyperbolic", "dihedral"}
    assert {t for spec in W.WORKLOADS.values() for t in spec["truncations"]} == set(W.TRUNCATIONS)


def _gate_run(workdir, refs):
    plan = {"docs": [{"kind": "trivial", "n": None, "name": W.doc_name("trivial", None)}]}
    runner = bench.Runner(workdir, refs, time.monotonic() + 120)
    sample = bench.new_sample()
    for _ in bench.pipeline_steps(runner, plan, False, sample):
        pass
    return runner


def test_gate_passes_on_true_references(workdir, refs):
    runner = _gate_run(workdir, refs)
    # build and render run twice each (best of two), check once
    assert (runner.attempted, runner.failed) == (5, 0), runner.errors


def test_gate_catches_a_wrong_reference(workdir, refs):
    wrong = copy.deepcopy(refs)
    name = W.doc_name("trivial", None)
    wrong["docs"][name]["render"] = "0" * 64
    wrong["docs"][name]["check"][0][1] = "fail"
    runner = _gate_run(workdir, wrong)
    assert (runner.attempted, runner.failed) == (5, 3)
    assert runner.errors == [f"check {name}", f"render {name}", f"render {name}"]


def test_query_gate_catches_a_wrong_reference(workdir, refs):
    plan = W.make_plan("rational", 0, refs)
    trunc, index = plan["queries"][0]["probe"][0]
    wrong = copy.deepcopy(refs)
    wrong["queries"][trunc]["probe"][index][1] = "NestedDepth(-1)"
    short = {"workload": "rational", "queries": [{"probe": plan["queries"][0]["probe"][:5]}]}
    runner = bench.Runner(workdir, wrong, time.monotonic() + 120)
    for _ in bench.query_steps(runner, short, False, bench.new_sample()):
        pass
    assert (runner.attempted, runner.failed) == (5, 1), runner.errors


_REBIND = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import laminar.cli, tracer
origs = tracer.install(tracer.Tracer())
from laminar import checks, cli, constructions, dynamics, lamination
by_value = {
    "lamination.circular_order": lamination.circular_order,
    "constructions.circular_order": constructions.circular_order,
    "dynamics.circular_order": dynamics.circular_order,
    "checks.gaps": checks.gaps,
    "constructions.apply_to_chord": constructions.apply_to_chord,
    "checks.apply_to_chord": checks.apply_to_chord,
    "constructions.validate_truncation": constructions.validate_truncation,
    "checks.validate_truncation": checks.validate_truncation,
    "constructions.ball_enumerate": constructions.ball_enumerate,
    "dynamics.ball_enumerate": dynamics.ball_enumerate,
    "cli.ball_enumerate": cli.ball_enumerate,
    "cli.cusp_points": cli.cusp_points,
    "checks.cusp_points": checks.cusp_points,
    "cli.run_suites": cli.run_suites,
}
flat = {id(f) for fns in origs.values() for f in fns}
print(json.dumps({"stale": tracer.stale_references(origs),
                  "unwrapped": sorted(k for k, v in by_value.items() if id(v) in flat)}))
"""


def test_tracer_rebinds_names_imported_by_value():
    out = _subprocess(_REBIND)
    assert out == {"stale": [], "unwrapped": []}


_COUNT = """
import contextlib, cProfile, io, json, os, pstats, sys
sys.path[:0] = ["src", "perfbench"]
import laminar.cli, queries, tracer, workloads
work = sys.argv[1]
doc, dihedral, svg, group, out = (os.path.join(work, f) for f in ("p3.json", "d2.json", "p3.svg", "g.json", "o.json"))
with open(group, "w") as f:
    json.dump({"generators": workloads.GROUPS["hyp_rational"]}, f)
def op():
    cli = laminar.cli.main
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli(["build", "elementary", "--kind", "parabolic", "--depth", "3", "--out", doc]) == 0
        assert cli(["check", doc]) == 0
        assert cli(["render", doc, "--out", svg]) == 0
        assert cli(["build", "elementary", "--kind", "dihedral", "--depth", "2", "--out", dihedral]) == 0
        assert cli(["dynamics", "--group", group, "--test", "triples", "--horizon", "20", "--samples", "10", "--out", out]) == 0
    fixture = queries.build_truncation("parabolic", 0, 2)
    chords = fixture[2]
    p = chords[0].lo
    queries.function("separate")(*queries.resolve("separate", [0, len(chords) - 1], fixture))
    queries.function("probe")(*queries.resolve("probe", p.encode(), fixture))
    queries.function("chain")(*queries.resolve("chain", [chords[-1].lo.encode(), 0], fixture))
t = tracer.Tracer()
origs = tracer.install(t)
prof = cProfile.Profile()
prof.runcall(op)
span_of = {}
for name, fns in origs.items():
    for fn in fns:
        code = fn.__code__
        span_of[(code.co_filename, code.co_firstlineno, code.co_name)] = name
profiled = dict.fromkeys(origs, 0)
for key, (cc, ncalls, tt, ct, callers) in pstats.Stats(prof).stats.items():
    if key in span_of:
        profiled[span_of[key]] += ncalls
print(json.dumps({"traced": {name: a[0] for name, a in t.agg.items()}, "profiled": profiled}))
"""


def test_traced_call_counts_equal_cprofile_ncalls(workdir):
    # Both counts come from the same execution: cProfile counts every call of
    # an original function, the tracer only those that went through a wrapper.
    out = _subprocess(_COUNT, workdir)
    assert out["traced"] == out["profiled"]
    # a span with no calls would prove nothing
    assert [name for name, calls in out["traced"].items() if not calls] == []


def test_benchmark_json_matches_the_reported_metrics():
    spec = bench.load_json(os.path.join(bench.ROOT, "BENCHMARK.json"))
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_names()
