"""Check suites over laminations and collections, shared by CLI and tests."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .constructions import ELEMENTARY_KINDS, SYSTEM_BUILDERS, elementary_col3
from .lamination import (
    LaminationSystem,
    gaps,  # noqa: F401  (re-exported: callers import it from laminar.checks)
    interval_subset,
    rank_within,
    strongly_transverse,
    transverse,
    validate_truncation,
)
from .dynamics import cusp_points
from .jsonio import builder_kind
from .mobius import apply_to_chord


@dataclass
class CheckEntry:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        return f"[{self.status:>7}] {self.name} ({self.seconds:.2f}s)" + (
            f"  {self.details}" if self.status == "fail" else ""
        )


@dataclass
class CheckSuiteResult:
    entries: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {
                    "name": e.name,
                    "status": e.status,
                    "details": _jsonable(e.details),
                    "seconds": round(e.seconds, 4),
                }
                for e in self.entries
            ],
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "encode") and callable(obj.encode):
        enc = obj.encode()
        return enc if isinstance(enc, (str, list)) else repr(obj)
    return repr(obj)


def _timed(result, name, fn):
    t0 = time.perf_counter()
    try:
        status, details = fn()
    except Exception as exc:  # surface as a failing check, not a crash
        status, details = "fail", {"error": repr(exc)}
    result.entries.append(CheckEntry(name, status, details, time.perf_counter() - t0))


def check_axioms(result: CheckSuiteResult, name: str, chords) -> None:
    def run():
        rep = validate_truncation(chords)
        if rep.ok:
            return "pass", {"chords": len(set(chords))}
        kind, data = rep.first
        return "fail", {
            "violations": len(rep.violations),
            "first": [kind, _jsonable(data)],
        }

    _timed(result, f"axioms:{name}", run)


def gap_refines(fine, coarse) -> bool:
    """Whether the fine gap's region sits inside the coarse gap's region."""
    return all(any(interval_subset(u, w) for w in fine.intervals) for u in coarse.intervals)


def refined_gap(fine, g: int, coarse):
    """The gap of the ``coarse`` Truncation that gap g of ``fine`` refines, or None.

    Every endpoint of ``coarse`` must be one of ``fine``.  The candidate is the
    coarse region just inside the nearest fine ancestor chord that is also a
    coarse chord (the root region if none is), checked on ranks.  When every
    coarse chord is a fine chord, as ``check_coherence`` makes sure first, the
    candidate always refines: the fine gap lies inside that chord, and outside
    every coarse chord nested in it, or that chord would be a nearer ancestor.
    """
    k = g - 1
    while k >= 0 and fine.chords[k] not in coarse.node_of:
        k = fine.parent[k]
    c = coarse.node_of[fine.chords[k]] + 1 if k >= 0 else 0
    pts, members = coarse.points, fine.members(g)
    lifted = [(fine.rank[pts[u >> 1]], fine.rank[pts[v >> 1]]) for u, v in coarse.members(c)]
    if all(any(rank_within(*u, *w, fine.modulus) for w in members) for u in lifted):
        return coarse.gaps()[c]
    return None


def check_coherence(result: CheckSuiteResult, name: str, system, depths) -> None:
    def run():
        for lo, hi in zip(depths, depths[1:]):
            a, b = set(system.chords(lo)), set(system.chords(hi))
            if not a <= b:
                return "fail", {"depths": [lo, hi], "reason": "not monotone"}
            coarse, fine = system.truncation(lo).valid(), system.truncation(hi)
            for g, gap in enumerate(fine.gaps()):
                if refined_gap(fine, g, coarse) is None:
                    return "fail", {"depths": [lo, hi], "gap": [iv.encode() for iv in gap.intervals]}
        return "pass", {"depths": list(depths)}

    _timed(result, f"coherence:{name}", run)


def check_invariance(result: CheckSuiteResult, name: str, systems, generators, depth: int) -> None:
    def run():
        maps = []
        for g in generators:
            maps.append(g)
            maps.append(g.inverse())
        misses = []
        for sysm in systems:
            nxt = set(sysm.chords(depth + 1))
            for g in maps:
                points = {}  # g on the system's endpoints, each mapped once
                for ch in sysm.chords(depth):
                    if apply_to_chord(g, ch, points) not in nxt:
                        misses.append((sysm.name, g, ch))
        if misses:
            s, g, ch = misses[0]
            return "fail", {"misses": len(misses), "first": [s, repr(g), ch.encode()]}
        return "pass", {"depth": depth, "generators": len(maps)}

    _timed(result, f"invariance:{name}", run)


def check_transversality(result: CheckSuiteResult, name: str, systems, depth: int) -> None:
    def run():
        for i in range(len(systems)):
            for j in range(i + 1, len(systems)):
                if not transverse(systems[i].chords(depth), systems[j].chords(depth)):
                    shared = set(systems[i].chords(depth)) & set(systems[j].chords(depth))
                    return "fail", {
                        "pair": [systems[i].name, systems[j].name],
                        "shared_leaf": next(iter(shared)).encode(),
                    }
        return "pass", {"depth": depth}

    _timed(result, f"transversality:{name}", run)


def check_pants_like(result: CheckSuiteResult, name: str, systems, generators, cusps, depth: int, radius: int) -> None:
    declared = set(cusps)

    def run_endpoints():
        for i in range(len(systems)):
            for j in range(i + 1, len(systems)):
                _, common = strongly_transverse(systems[i].chords(depth), systems[j].chords(depth))
                if common != declared:
                    return "fail", {
                        "pair": [systems[i].name, systems[j].name],
                        "common": sorted(p.encode() for p in common),
                        "declared": sorted(p.encode() for p in declared),
                    }
        return "pass", {"depth": depth, "declared": sorted(p.encode() for p in declared)}

    _timed(result, f"pants-endpoints:{name}", run_endpoints)

    def run_cusps():
        found = set(cusp_points(generators, radius))
        if found != declared:
            return "fail", {
                "found": sorted(p.encode() for p in found),
                "declared": sorted(p.encode() for p in declared),
            }
        return "pass", {"radius": radius}

    _timed(result, f"pants-cusps:{name}", run_cusps)


# -- wiring for parsed documents -------------------------------------------------


def rebuild_from_builder(builder: dict):
    """Recreate a depth-parametrized object from builder metadata, if known."""
    kind = builder_kind(builder)
    if kind in SYSTEM_BUILDERS:
        return SYSTEM_BUILDERS[kind]()
    if kind in ELEMENTARY_KINDS:
        return elementary_col3(kind, n=builder.get("n"))
    return None


def check_rebuild_match(result: CheckSuiteResult, name: str, file_chords, rebuilt_chords) -> None:
    def run():
        ours, theirs = set(file_chords), set(rebuilt_chords)
        if ours != theirs:
            diff = ours.symmetric_difference(theirs)
            return "fail", {"mismatched": len(diff), "first": next(iter(diff)).encode()}
        return "pass", {"chords": len(ours)}

    _timed(result, f"rebuild:{name}", run)


def run_suites(parsed, suites=("axioms", "invariance", "transversality", "pants", "coherence"), radius: int = 6) -> CheckSuiteResult:
    """Run the requested suites on a ParsedLamination or ParsedCollection."""
    result = CheckSuiteResult()
    is_collection = hasattr(parsed, "systems")
    rebuilt = rebuild_from_builder(getattr(parsed, "builder", None))
    if is_collection:
        depth = parsed.depth
        static = [
            LaminationSystem.fixed(s.name or f"system{k}", s.chart, s.chords) for k, s in enumerate(parsed.systems)
        ]
        if "axioms" in suites:
            for s in static:
                check_axioms(result, s.name, s.chords(depth))
        if "transversality" in suites:
            check_transversality(result, parsed.kind, static, depth)
        if "pants" in suites:
            check_pants_like(result, parsed.kind, static, parsed.generators, parsed.cusps, depth, radius)
        if rebuilt is not None:
            if "invariance" in suites:
                check_invariance(result, parsed.kind, rebuilt.systems, rebuilt.generators, depth)
            if "coherence" in suites:
                for s, parsed_s in zip(rebuilt.systems, parsed.systems):
                    check_rebuild_match(result, f"{parsed.kind}:{s.name}", parsed_s.chords, s.chords(depth))
                    check_coherence(result, f"{parsed.kind}:{s.name}", s, (1, 2, 3))
        else:
            for missing in ("invariance", "coherence"):
                if missing in suites:
                    result.entries.append(
                        CheckEntry(f"{missing}:{parsed.kind}", "skipped", {"reason": "no builder metadata"})
                    )
    else:
        name = parsed.name or "lamination"
        if "axioms" in suites:
            check_axioms(result, name, parsed.chords)
        if rebuilt is not None and "coherence" in suites:
            check_rebuild_match(result, name, parsed.chords, rebuilt.chords(parsed.depth))
            check_coherence(result, name, rebuilt, (1, 2, 3))
        elif "coherence" in suites:
            result.entries.append(CheckEntry(f"coherence:{name}", "skipped", {"reason": "no builder metadata"}))
    return result
