"""laminar benchmark: one client, closed loop, one child process at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload rational --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py ... --record perfbench/results/runs.json
    python3 perfbench/run.py --compare A.json B.json

A run repeats the workload's round (see workloads.py) while another round still
fits in --seconds; it always runs at least one.  Every operation's output is
compared with the reference answers in refs.json.  Earlier stdout lines give
the run metadata and each metric by name and unit; the last line is one JSON
object with keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every child twice,
untraced then with the span tracer installed, and reports the per-layer
metrics plus the tracing overhead (traced over untraced operation time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402

DEADLINE_S = 170.0  # a run must end within 180 s
# build, render and triples take well under a second, so one run is at the
# mercy of other tenants: untraced, each runs SHORT_RUNS times (fresh children)
# and counts its fastest run, since contention only ever adds time
SHORT_RUNS = 2

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "check_s": "s",
    "render_s": "s",
    "separate_ms_p50": "ms",
    "separate_ms_p90": "ms",
    "probe_ms_p50": "ms",
    "chain_ms_p50": "ms",
    "cusps_s": "s",
    "triples_s": "s",
    "peak_rss_mb": "MB",
}

# check report entry prefix -> per-suite metric
SUITES = {
    "axioms": "checks.axioms_s",
    "invariance": "checks.invariance_s",
    "transversality": "checks.transversality_s",
    "pants-endpoints": "checks.pants_s",
    "pants-cusps": "checks.pants_s",
    "coherence": "checks.coherence_s",
    "rebuild": "checks.rebuild_s",
}


def per_layer_names() -> dict:
    names = {}
    for span in tracing.SPANS:
        names[f"{span}.calls"] = "count"
        names[f"{span}.self_s"] = "s"
        names[f"{span}.us_per_call"] = "us"
    for metric in dict.fromkeys(SUITES.values()):
        names[metric] = "s"
    names["mobius.ball.distinct_ratio"] = "ratio"
    names["lamination.system.build_ratio"] = "ratio"
    names["trace.overhead_pct"] = "%"
    return names


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def load_json(path: str):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def metadata(seed: int) -> dict:
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "backend": None,  # filled in from the first child
        "cpus": os.cpu_count(),
        "git_sha": sha,
        "seed": seed,
    }


class Runner:
    """Spawns children one at a time and grades every operation."""

    def __init__(self, workdir: str, refs: dict, deadline: float, short_runs: int = SHORT_RUNS):
        self.workdir = workdir
        self.short_runs = short_runs
        self.refs = refs
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.maxrss_kb = 0
        self.backend = None
        self.errors = []
        self._n = 0

    def grade(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def spawn(self, spec: dict, traced: bool):
        """Run one child; its outcome dict, or None if it crashed."""
        self._n += 1
        tag = os.path.join(self.workdir, f"child{self._n:03d}")
        spec = dict(spec, root=ROOT, result=tag + ".result.json", trace=tag + ".spans.json" if traced else None)
        with open(tag + ".spec.json", "w", encoding="utf-8") as f:
            json.dump(spec, f)
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), tag + ".spec.json"],
            cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED="0"),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
        if proc.returncode != 0 or not os.path.exists(spec["result"]):
            self.errors.append(f"child {tag} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return None
        outcome = load_json(spec["result"])
        self.maxrss_kb = max(self.maxrss_kb, outcome["maxrss_kb"])
        self.backend = self.backend or outcome["backend"]
        return outcome

    def cli(self, argv: list, traced: bool):
        """((calibrated, wall) seconds, outcome) of one CLI command, or (None, outcome)."""
        outcome = self.spawn({"argv": argv}, traced)
        if outcome is None or outcome["ops"][0]["rc"] != 0:
            return None, outcome
        op = outcome["ops"][0]
        return (op["cal_s"], op["wall_s"]), outcome

    def best_cli(self, argv: list, traced: bool, correct, what: str, sample: dict):
        """The fastest of short_runs runs of a short command, each graded; None if none passed."""
        best = None
        for _ in range(self.short_runs):
            timing, outcome = self.cli(argv, traced)
            sample["children"].append(outcome)
            if self.grade(timing is not None and correct(), what):
                best = timing if best is None else min(best, timing)
        return best


# Each *_steps generator yields after every step, so that run_round can
# interleave the three families and each metric samples the whole round.


def pipeline_steps(runner: Runner, plan: dict, traced: bool, sample: dict):
    """build -> check -> render for each document of the plan."""
    refs = runner.refs["docs"]
    for doc in plan["docs"]:
        name, ref = doc["name"], refs[doc["name"]]
        base = os.path.join(runner.workdir, name + (".traced" if traced else ""))
        path, report, svg = base + ".json", base + ".report.json", base + ".svg"
        argv = ["build", "elementary", "--kind", doc["kind"], "--depth", str(W.DOC_DEPTH), "--out", path]
        if doc["n"]:
            argv += ["--n", str(doc["n"])]
        best = runner.best_cli(argv, traced, lambda: sha256_file(path) == ref["build"], f"build {name}", sample)
        if best is not None:
            sample["build"].append(best)

        timing, outcome = runner.cli(["check", path, "--out", report], traced)
        verdicts = None
        if timing is not None:
            checks = load_json(report)["reports"][0]["checks"]
            verdicts = [[c["name"], c["status"]] for c in checks]
            for c in checks:
                metric = SUITES[c["name"].split(":")[0]]
                sample["suites"][metric] = sample["suites"].get(metric, 0.0) + c["seconds"]
        if runner.grade(verdicts == ref["check"], f"check {name}"):
            sample["check"].append(timing)
        sample["children"].append(outcome)

        argv = ["render", path, "--out", svg]
        best = runner.best_cli(argv, traced, lambda: sha256_file(svg) == ref["render"], f"render {name}", sample)
        if best is not None:
            sample["render"].append(best)
        yield


def query_steps(runner: Runner, plan: dict, traced: bool, sample: dict):
    pools = runner.refs["queries"]
    truncations = {t: W.TRUNCATIONS[t] for t in W.WORKLOADS[plan["workload"]]["truncations"]}
    for share in plan["queries"]:
        spec = {
            "truncations": truncations,
            "queries": {
                qtype: [[t, i, pools[t][qtype][i][0]] for t, i in picks] for qtype, picks in share.items()
            },
        }
        outcome = runner.spawn(spec, traced)
        sample["children"].append(outcome)
        expected = sum(len(picks) for picks in share.values())
        if outcome is None:
            for _ in range(expected):
                runner.grade(False, "query child crashed")
        else:
            sample["setup"].append(tuple(outcome["setup"]))
            for op in outcome["ops"]:
                ref = pools[op["trunc"]][op["type"]][op["index"]][1]
                what = f"{op['type']} {op['trunc']}#{op['index']}: {op.get('error', '')}"
                if runner.grade(op.get("answer") == ref, what):
                    sample[op["type"]].append((op["cal_s"], op["wall_s"]))
        yield


def dynamics_steps(runner: Runner, plan: dict, traced: bool, sample: dict):
    suffix = ".traced" if traced else ""
    cusps = []
    for group in plan["cusp_groups"]:
        path, out = (os.path.join(runner.workdir, group + ext) for ext in (".json", f".cusps{suffix}.json"))
        argv = ["dynamics", "--group", path, "--test", "cusps", "--radius", str(W.CUSP_RADIUS), "--out", out]
        timing, outcome = runner.cli(argv, traced)
        ok = timing is not None and load_json(out)["cusps"] == runner.refs["cusps"][group]
        if runner.grade(ok, f"cusps {group}"):
            cusps.append(timing)
        sample["children"].append(outcome)
        yield
    sample["cusps"].append(tuple(map(sum, zip(*cusps))))
    group = plan["triples"]["group"]
    for seed in plan["triples"]["seeds"]:
        path, out = (os.path.join(runner.workdir, group + ext) for ext in (".json", f".triples{seed}{suffix}.json"))
        argv = ["dynamics", "--group", path, "--test", "triples", "--horizon", str(W.TRIPLES_HORIZON)]
        argv += ["--seed", str(seed), "--out", out]
        ref = runner.refs["triples"][group][str(seed)]
        best = runner.best_cli(argv, traced, lambda: load_json(out)["verdict"] == ref, f"triples {group} seed {seed}", sample)
        if best is not None:
            sample["triples"].append(best)
        yield


def new_sample() -> dict:
    keys = ("build", "check", "render", "separate", "probe", "chain", "cusps", "triples", "setup", "children")
    return {k: [] for k in keys} | {"suites": {}}


def run_round(runner: Runner, plan: dict, traced: bool) -> dict:
    """One round, the three step families taken in turn."""
    sample = new_sample()
    families = [f(runner, plan, traced, sample) for f in (pipeline_steps, query_steps, dynamics_steps)]
    while families:
        for family in list(families):
            if next(family, StopIteration) is StopIteration:
                families.remove(family)
    return sample


def end_to_end(rounds: list, maxrss_kb: int, which: int = 0) -> dict:
    """The end-to-end metrics from calibrated (which=0) or wall (which=1) times."""

    def per_round_sum(key):
        return statistics.median(sum(v[which] for v in r[key]) for r in rounds)

    def pooled(key):
        return [v[which] for r in rounds for v in r[key]]

    def ms(values, q):
        return 1000.0 * (statistics.median(values) if q == 50 else statistics.quantiles(values, n=10)[8])

    values = {
        "setup_s": statistics.median(pooled("setup")),
        "build_s": per_round_sum("build"),
        "check_s": per_round_sum("check"),
        "render_s": per_round_sum("render"),
        "separate_ms_p50": ms(pooled("separate"), 50),
        "separate_ms_p90": ms(pooled("separate"), 90),
        "probe_ms_p50": ms(pooled("probe"), 50),
        "chain_ms_p50": ms(pooled("chain"), 50),
        "cusps_s": per_round_sum("cusps"),
        "triples_s": statistics.median(pooled("triples")),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def op_seconds(sample: dict) -> float:
    keys = ("build", "check", "render", "separate", "probe", "chain", "triples", "cusps")
    return sum(v[0] for k in keys for v in sample[k])


def per_layer(plain: list, traced: list) -> dict:
    agg = {name: [0, 0.0, 0.0] for name in tracing.SPANS}
    counters = {}
    for sample in traced:
        for outcome in sample["children"]:
            if outcome is None or outcome["trace"] is None:
                continue
            for name, (calls, total, self_s) in outcome["trace"]["agg"].items():
                a = agg[name]
                a[0] += calls
                a[1] += total
                a[2] += self_s
            for name, count in outcome["trace"]["counters"].items():
                counters[name] = counters.get(name, 0) + count
    units = per_layer_names()
    values = {}
    for name, (calls, total, self_s) in agg.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        values[f"{name}.us_per_call"] = 1e6 * total / calls if calls else 0.0
    for metric in dict.fromkeys(SUITES.values()):
        values[metric] = sum(s["suites"].get(metric, 0.0) for s in plain)
    values["mobius.ball.distinct_ratio"] = counters["mobius.ball.elements"] / max(1, counters["mobius.ball.compose_calls"])
    values["lamination.system.build_ratio"] = counters["lamination.system.builder_runs"] / max(
        1, counters["lamination.system.chords_calls"]
    )
    values["trace.overhead_pct"] = 100.0 * (sum(map(op_seconds, traced)) / sum(map(op_seconds, plain)) - 1.0)
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "laminar", "__init__.py")):
        raise SystemExit(f"error: no laminar sources under {os.path.join(ROOT, 'src')}")
    refs = load_json(os.path.join(HERE, "refs.json"))
    plan = W.make_plan(workload, seed, refs)
    meta = metadata(seed)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    groups = set(plan["cusp_groups"]) | {plan["triples"]["group"]}
    for group in groups:
        with open(os.path.join(workdir, group + ".json"), "w", encoding="utf-8") as f:
            json.dump({"generators": W.GROUPS[group]}, f)

    start = time.monotonic()
    # a traced run runs every command once, traced and untraced, to stay in time
    runner = Runner(workdir, refs, start + DEADLINE_S, short_runs=1 if trace else SHORT_RUNS)
    plain, traced = [], []
    while True:
        round_start = time.monotonic()
        plain.append(run_round(runner, plan, traced=False))
        if trace:
            traced.append(run_round(runner, plan, traced=True))
        last = time.monotonic() - round_start
        if time.monotonic() - start + last > seconds:
            break
    meta["backend"] = runner.backend
    meta["rounds"] = len(plain)
    metrics = per_layer(plain, traced) if trace else end_to_end(plain, runner.maxrss_kb)
    wall = None if trace else end_to_end(plain, runner.maxrss_kb, which=1)
    if not trace:
        # keep the spans of traced runs for inspection; drop the rest
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "meta": meta,
        "errors": runner.errors,
        "wall": wall,
        "result": {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        },
    }


def compare(path_a: str, path_b: str) -> int:
    """Median of each metric in two --record files; refuses mixed backends."""
    runs = [load_json(path_a), load_json(path_b)]
    backends = {r["meta"]["backend"] for records in runs for r in records}
    if len(backends) != 1:
        print(f"error: records mix arithmetic backends {sorted(map(str, backends))}", file=sys.stderr)
        return 2
    keys = sorted({(r["meta"]["workload"], m) for records in runs for r in records for m in r["result"]["metrics"]})
    for workload, metric in keys:
        medians = []
        for records in runs:
            vals = [
                r["result"]["metrics"][metric]["value"]
                for r in records
                if r["meta"]["workload"] == workload and metric in r["result"]["metrics"]
            ]
            medians.append(statistics.median(vals) if vals else float("nan"))
        ratio = medians[1] / medians[0] if medians[0] else float("nan")
        print(f"{workload:>10} {metric:<40} {medians[0]:>14.6g} {medians[1]:>14.6g}  x{ratio:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append this run (metadata and result) to a JSON list file")
    parser.add_argument("--compare", nargs=2, metavar="RECORDS", help="compare two --record files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out["meta"]["workload"] = args.workload
    result = out["result"]
    print("meta " + json.dumps(out["meta"], sort_keys=True))
    for err in out["errors"]:
        print(f"error {err}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, m in (out["wall"] or {}).items():
        print(f"uncalibrated {name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']} ops)")
    if args.record:
        records = load_json(args.record) if os.path.exists(args.record) else []
        records.append({"meta": out["meta"], "result": result, "wall": out["wall"]})
        with open(args.record, "w", encoding="utf-8") as f:
            json.dump(records, f, indent=1)
            f.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
