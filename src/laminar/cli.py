"""Command line entry points: build, check, render, dynamics.

Exit codes: 0 on success, 1 on a failed check, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from .checks import SUITES, run_suites
from .circle import BoundaryPoint
from .constructions import (
    ELEMENTARY_KINDS,
    SYSTEM_BUILDERS,
    elementary_col3,
)
from .dynamics import angel_wings, cusp_points, triple_escape_sampler
from .errors import LaminarError
from .jsonio import (
    atomic_write_text,
    collection_doc,
    dumps,
    load,
    load_group,
    system_doc,
)
from .lamination import Chord
from .mobius import ElementType, ball_enumerate
from .render import RenderSpec, arcs_report, render_svg


def _emit(text: str, out: str | None) -> None:
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _cmd_build(args) -> int:
    if args.what == "elementary":
        if not args.kind:
            print("build elementary requires --kind", file=sys.stderr)
            return 2
        col = elementary_col3(args.kind, n=args.n)
        doc = collection_doc(col, args.depth)
    else:
        system = SYSTEM_BUILDERS[args.what]()
        doc = system_doc(system, args.depth, builder={"name": args.what})
    _emit(dumps(doc), args.out)
    return 0


def _cmd_check(args) -> int:
    suites = tuple(args.suite) if args.suite else SUITES
    worst = 0
    reports = []
    for path in args.files:
        result = run_suites(load(path), suites, radius=args.radius)
        for entry in result.entries:
            print(f"{path}: {entry.line()}")
        reports.append({"file": path, **result.to_json()})
        worst = max(worst, 0 if result.ok else 1)
    if args.out:
        atomic_write_text(args.out, dumps({"reports": reports}))
    return worst


def _cmd_render(args) -> int:
    layers = []
    cusps = []
    for path in args.files:
        parsed = load(path)
        if hasattr(parsed, "systems"):
            layers.extend(s.chords for s in parsed.systems)
            cusps.extend(parsed.cusps)
        else:
            layers.append(parsed.chords)
    spec = RenderSpec(size=args.size, stroke_width=args.stroke_width)
    if args.format == "json":
        doc = {"arcs": [arcs_report(chords) for chords in layers]}
        _emit(dumps(doc), args.out)
    else:
        _emit(render_svg(layers, cusps, spec), args.out)
    return 0


def _cmd_dynamics(args) -> int:
    generators = load_group(args.group)
    if args.test == "cusps":
        pts = cusp_points(generators, args.radius)
        doc = {"test": "cusps", "radius": args.radius, "cusps": [p.encode() for p in pts]}
    elif args.test == "wings":
        g = next((g for g in ball_enumerate(generators, args.radius) if g.element_type() == ElementType.PARABOLIC), None)
        if g is None:
            print("error: no parabolic element in the ball", file=sys.stderr)
            return 2
        p = g.fixed_points()[0][0]
        other = next(
            q
            for q in (
                BoundaryPoint.ext_real(0),
                BoundaryPoint.ext_real(1),
                BoundaryPoint.ext_inf(),
            )
            if q != p
        )
        wings = angel_wings(g, Chord(p, other), args.count)
        doc = {
            "test": "wings",
            "map": g.to_json(),
            "wings": [
                {"k": w.k, "u": w.u.encode(), "inner": w.inner.encode(), "outer": w.outer.encode()}
                for w in wings
            ],
        }
    else:
        if not generators:
            print("error: the group has no generator to iterate", file=sys.stderr)
            return 2
        seq = [generators[0]]
        for _ in range(args.horizon - 1):
            seq.append(seq[-1].compose(generators[0]))
        report = triple_escape_sampler(
            seq,
            horizon=args.horizon,
            eps=args.eps,
            delta=args.delta,
            samples=args.samples,
            seed=args.seed,
        )
        doc = {"test": "triples", **report.to_json()}
    _emit(dumps(doc), args.out)
    return 0


def _at_least(low: int):
    """An argparse type for integers no less than ``low``."""

    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, not {text}")
        return int(text)

    parse.__name__ = f"integer >= {low}"  # argparse's "invalid <name> value" message
    return parse


def _finite(low: float, closed: bool = False):
    """An argparse type for finite floats above ``low``, or equal to it if ``closed``."""
    bound = f"{'>=' if closed else '>'} {low:g}"

    def parse(text: str) -> float:
        x = float(text)
        if not (math.isfinite(x) and (x >= low if closed else x > low)):
            raise argparse.ArgumentTypeError(f"must be a finite number {bound}, not {text}")
        return x

    parse.__name__ = f"number {bound}"  # argparse's "invalid <name> value" message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="laminar", description="exact circle laminations toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a lamination or elementary collection")
    b.add_argument("what", choices=[*SYSTEM_BUILDERS, "elementary"])
    b.add_argument("--kind", choices=list(ELEMENTARY_KINDS), help="elementary kind")
    b.add_argument("--n", type=int, default=None, help="order for finite_cyclic")
    b.add_argument("--depth", type=_at_least(0), required=True)
    b.add_argument("--out", default=None)
    b.set_defaults(fn=_cmd_build)

    c = sub.add_parser("check", help="run axiom and collection check suites")
    c.add_argument("files", nargs="+")
    c.add_argument(
        "--suite",
        action="append",
        choices=SUITES,
        help="restrict to the named suites (repeatable)",
    )
    c.add_argument("--radius", type=_at_least(0), default=6, help="group ball radius for cusp checks")
    c.add_argument("--out", default=None, help="write the JSON report here")
    c.set_defaults(fn=_cmd_check)

    r = sub.add_parser("render", help="render chord diagrams to SVG")
    r.add_argument("files", nargs="+")
    r.add_argument("--out", default=None)
    r.add_argument("--size", type=_at_least(1), default=720)
    r.add_argument("--stroke-width", type=_finite(0), default=1.4)
    r.add_argument("--format", choices=["svg", "json"], default="svg")
    r.set_defaults(fn=_cmd_render)

    d = sub.add_parser("dynamics", help="cusp, angel-wing and triple-escape reports")
    d.add_argument("--group", required=True, help="JSON file with {'generators': [...]}")
    d.add_argument("--test", choices=["cusps", "wings", "triples"], required=True)
    d.add_argument("--radius", type=_at_least(0), default=6)
    d.add_argument("--count", type=_at_least(0), default=10, help="number of wings")
    d.add_argument("--horizon", type=_at_least(0), default=1000)
    d.add_argument("--eps", type=_finite(0, closed=True), default=1e-6)
    d.add_argument("--delta", type=_finite(0), default=0.05)
    d.add_argument("--samples", type=_at_least(0), default=200)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", default=None)
    d.set_defaults(fn=_cmd_dynamics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LaminarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # reads raise ParseError, so this is a write
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
