"""What importing laminar costs, module by module.

Usage (from a checkout):

    python3 bench/import_cost.py [--root DIR] [--runs N]

Runs ``import laminar.cli`` in N fresh ``python -S -B -X importtime``
children (``-S``: no site imports, ``-B``: no bytecode written) with
``ROOT/src`` first on ``sys.path``, and prints for each module of
``ROOT/src/laminar`` the median import self time and the best-of-5
``compile()`` time of its source.  Self time includes compiling the module
when no cached bytecode is read, so the difference of the two columns is
about what executing the module costs.  The "other modules" row is the self
time of every module outside laminar that the import loads, followed by the
five largest of them, and the last row is the median wall time of
``import laminar.cli`` itself, with the summed compile time.  Whether bytecode
is cached under ``ROOT/src/laminar/__pycache__`` is printed first.  Nothing is
written.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MARK = "-- import laminar.cli --"
CHILD = f"""
import sys, time
sys.path.insert(0, {{src!r}})
sys.stderr.write({MARK!r} + "\\n")
t0 = time.perf_counter()
import laminar.cli
print(time.perf_counter() - t0)
"""


def child(src: str) -> tuple[dict, float]:
    """Self seconds per imported module, and the import's wall seconds, from one child."""
    run = subprocess.run(
        [sys.executable, "-S", "-B", "-X", "importtime", "-c", CHILD.format(src=src)],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = run.stderr.splitlines()
    selfs = {}
    for line in lines[lines.index(MARK) + 1 :]:
        if line.startswith("import time:") and "|" in line:
            self_us, _, name = line[len("import time:") :].split("|")
            if self_us.strip().isdigit():
                selfs[name.strip()] = int(self_us) / 1e6
    return selfs, float(run.stdout)


def compile_seconds(path: str) -> float:
    with open(path, encoding="utf-8") as f:
        source = f.read()
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        compile(source, path, "exec")
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(HERE), help="checkout whose src/laminar is imported")
    parser.add_argument("--runs", type=int, default=9, help="fresh children to take the median over")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    src = os.path.join(os.path.abspath(args.root), "src")
    pkg = os.path.join(src, "laminar")
    files = {
        ("laminar" if f == "__init__.py" else f"laminar.{f[:-3]}"): os.path.join(pkg, f)
        for f in sorted(os.listdir(pkg))
        if f.endswith(".py")
    }
    runs = [child(src) for _ in range(args.runs)]
    cached = [m for m, path in files.items() if os.path.exists(importlib.util.cache_from_source(path))]
    print(f"bytecode cached for {len(cached)} of {len(files)} modules; {args.runs} runs, {sys.version.split()[0]}")
    print(f"{'module':<24}{'import self ms':>16}{'compile ms':>12}")
    total_compile = 0.0
    for module, path in files.items():
        self_ms = statistics.median(s.get(module, 0.0) for s, _ in runs) * 1e3
        compile_ms = compile_seconds(path) * 1e3
        total_compile += compile_ms
        print(f"{module:<24}{self_ms:>16.2f}{compile_ms:>12.2f}")
    others = [{m: v for m, v in s.items() if m.split(".")[0] != "laminar"} for s, _ in runs]
    print(f"{'other modules':<24}{statistics.median(sum(o.values()) for o in others) * 1e3:>16.2f}")
    heaviest = sorted(others[0], key=lambda m: -statistics.median(o.get(m, 0.0) for o in others))[:5]
    for module in heaviest:
        print(f"{'  ' + module:<24}{statistics.median(o.get(module, 0.0) for o in others) * 1e3:>16.2f}")
    wall = statistics.median(w for _, w in runs)
    print(f"{'import laminar.cli':<24}{wall * 1e3:>16.2f}{total_compile:>12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
