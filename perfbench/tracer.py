"""In-process span tracer for laminar, installed from outside the library.

``install(tracer)`` wraps the functions in SPANS.  A wrapped function is
rebound wherever the original object is reachable by name: in every
``laminar.*`` module namespace (names imported by value, such as
``from .circle import circular_order``) and in every class namespace
(aliases such as ``__rmul__ = __mul__``).  ``stale_references()`` lists any
binding that still points at an original; it must be empty after install.

Each wrapped call is a span.  Self time is the span's duration minus the
durations of the spans nested in it, kept exact with a stack of child-time
accumulators.  Calls, total and self seconds are aggregated per span name.
Spans of the coarse layers (COARSE) are also recorded one by one as
``(name, start, end, parent, op)`` -- parent is the index of the enclosing
recorded span, op the benchmark operation in progress -- kept in memory and
written out by ``Tracer.dump``.  Hot leaf spans (field arithmetic, circle
predicates, single map applications) are only aggregated: recording each of
their millions of calls would cost more memory than the run itself.
"""

from __future__ import annotations

import importlib
import json
import time

# span name -> "module:attribute" paths of the functions it covers
SPANS = {
    "field.mul": ["field:FieldElem.__mul__"],
    "field.div": ["field:FieldElem.__truediv__", "field:FieldElem.__rtruediv__", "field:FieldElem.inverse"],
    "field.addsub": [
        "field:FieldElem.__add__",
        "field:FieldElem.__sub__",
        "field:FieldElem.__rsub__",
        "field:FieldElem.__neg__",
    ],
    "field.sign": ["field:FieldElem.sign"],
    "field.cmp": ["field:FieldElem.__lt__", "field:FieldElem.__le__", "field:FieldElem.__gt__", "field:FieldElem.__ge__"],
    "field.eq": ["field:FieldElem.__eq__"],
    "circle.circular_order": ["circle:circular_order"],
    "circle.point_eq": ["circle:BoundaryPoint.__eq__"],
    "circle.to_complex": ["circle:BoundaryPoint.to_complex"],
    "mobius.apply": ["mobius:MobiusMap.apply"],
    "mobius.chart_apply": ["mobius:AngleShift.apply", "mobius:ExpAffine.apply"],
    "mobius.apply_to_chord": ["mobius:apply_to_chord"],
    "mobius.compose": ["mobius:MobiusMap.compose", "mobius:AngleShift.compose", "mobius:ExpAffine.compose"],
    "mobius.canon": ["mobius:MobiusMap.__init__"],
    "mobius.ball_enumerate": ["mobius:ball_enumerate"],
    "lamination.validate_truncation": ["lamination:validate_truncation"],
    "lamination.gaps": ["lamination:gaps"],
    "lamination.separate_distinct_pair": ["lamination:separate_distinct_pair"],
    "lamination.rainbow_probe": ["lamination:rainbow_probe"],
    "lamination.c_p_I": ["lamination:c_p_I"],
    "lamination.interval_subset": ["lamination:interval_subset"],
    "lamination.interval_contains": ["lamination:Interval.contains"],
    "constructions.elementary_col3": ["constructions:elementary_col3"],
    "constructions.half_farey": ["constructions:half_farey"],
    "constructions.square_triangulation": ["constructions:square_triangulation"],
    "constructions.orbit_closure": ["constructions:orbit_closure"],
    "checks.run_suites": ["checks:run_suites"],
    "jsonio.dumps": ["jsonio:dumps"],
    "jsonio.load": ["jsonio:load"],
    "render.render_svg": ["render:render_svg"],
    "render.arc_geometry": ["render:arc_geometry"],
    "dynamics.cusp_points": ["dynamics:cusp_points"],
    "dynamics.triple_escape_sampler": ["dynamics:triple_escape_sampler"],
}

HOT = {
    "field.mul",
    "field.div",
    "field.addsub",
    "field.sign",
    "field.cmp",
    "field.eq",
    "circle.circular_order",
    "circle.point_eq",
    "circle.to_complex",
    "mobius.apply",
    "mobius.chart_apply",
    "mobius.apply_to_chord",
    "mobius.compose",
    "mobius.canon",
    "lamination.interval_subset",
    "lamination.interval_contains",
    "render.arc_geometry",
}
COARSE = set(SPANS) - HOT

MODULES = ("field", "circle", "mobius", "lamination", "constructions", "checks", "jsonio", "render", "dynamics", "cli")


def laminar_modules() -> list:
    return [importlib.import_module(f"laminar.{m}") for m in MODULES] + [importlib.import_module("laminar")]


def resolve(path: str):
    """(owner object, attribute name, function) for a "module:Class.attr" path."""
    mod, _, dotted = path.partition(":")
    owner = importlib.import_module(f"laminar.{mod}")
    *outer, attr = dotted.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _namespaces():
    """Every module and class namespace of the package, as (owner, dict)."""
    for mod in laminar_modules():
        yield mod, vars(mod)
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__.startswith("laminar"):
                yield value, vars(value)


def originals() -> dict:
    """span name -> list of original function objects."""
    return {name: [resolve(p)[2] for p in paths] for name, paths in SPANS.items()}


def stale_references(origs: dict) -> list:
    """Names that still bind an original function (should be empty after install)."""
    ids = {id(f): name for name, fns in origs.items() for f in fns}
    found = []
    for owner, ns in _namespaces():
        for attr, value in ns.items():
            if id(value) in ids:
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return sorted(set(found))


class Tracer:
    """Stack-based span aggregator; one per process."""

    def __init__(self):
        self.op = -1
        self.agg = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total_s, self_s
        self.counters = {
            "mobius.ball.elements": 0,
            "mobius.ball.compose_calls": 0,
            "lamination.system.builder_runs": 0,
            "lamination.system.chords_calls": 0,
        }
        self.spans = []  # (name, start, end, parent, op) of COARSE spans
        self._child = []  # child-time accumulator per open span
        self._open = []  # indices into self.spans of open recorded spans

    def wrap(self, name: str, fn):
        agg = self.agg[name]
        child = self._child
        clock = time.perf_counter

        if name not in COARSE:

            def hot(*args, **kwargs):
                child.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    inner = child.pop()
                    if child:
                        child[-1] += dur
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - inner

            return hot

        spans, opened = self.spans, self._open

        def coarse(*args, **kwargs):
            parent = opened[-1] if opened else -1
            index = len(spans)
            spans.append(None)
            opened.append(index)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                inner = child.pop()
                opened.pop()
                if child:
                    child[-1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - inner
                spans[index] = (name, start, end, parent, self.op)

        return coarse

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"agg": self.agg, "counters": self.counters, "spans": self.spans}, f)


def _ball_counting(tracer: Tracer, fn):
    """Count elements returned and compose calls made inside ball_enumerate."""
    compose = tracer.agg["mobius.compose"]

    def ball_enumerate(generators, radius):
        before = compose[0]
        out = fn(generators, radius)
        tracer.counters["mobius.ball.compose_calls"] += compose[0] - before
        tracer.counters["mobius.ball.elements"] += len(out)
        return out

    return ball_enumerate


def _count_builder_runs(tracer: Tracer, system_cls) -> None:
    """Wrap the ``builder`` argument of LaminationSystem and count chords()."""
    init, chords = system_cls.__init__, system_cls.chords
    counters = tracer.counters

    def __init__(self, name, chart, builder, *args, **kwargs):
        def counted(depth):
            counters["lamination.system.builder_runs"] += 1
            return builder(depth)

        init(self, name, chart, counted, *args, **kwargs)

    def chords_(self, depth):
        counters["lamination.system.chords_calls"] += 1
        return chords(self, depth)

    system_cls.__init__ = __init__
    system_cls.chords = chords_


def install(tracer: Tracer) -> dict:
    """Wrap every SPANS function everywhere it is bound; returns the originals."""
    origs = originals()
    replace = {}
    for name, fns in origs.items():
        for fn in fns:
            wrapped = tracer.wrap(name, fn)
            if name == "mobius.ball_enumerate":
                wrapped = _ball_counting(tracer, wrapped)
            replace[id(fn)] = wrapped
    for owner, ns in list(_namespaces()):
        for attr, value in list(ns.items()):
            if id(value) in replace:
                setattr(owner, attr, replace[id(value)])
    _count_builder_runs(tracer, importlib.import_module("laminar.lamination").LaminationSystem)
    return origs
