"""Check suites over laminations and collections, shared by CLI and tests."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .constructions import ELEMENTARY_KINDS, SYSTEM_BUILDERS, elementary_col3
from .lamination import (
    Chord,
    endpoints_set,
    gaps,  # noqa: F401  (re-exported: callers import it from laminar.checks)
    strongly_transverse,
    transverse,
    validate_truncation,
)
from .dynamics import cusp_points
from .jsonio import builder_kind
from .mobius import apply_to_chord  # noqa: F401  (re-exported, read by perfbench/test_perfbench.py)


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

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {
                    "name": e.name,
                    "status": e.status,
                    "details": e.details,
                    "seconds": round(e.seconds, 4),
                }
                for e in self.entries
            ],
        }


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
            "first": [kind, data and [ch.encode() for ch in data]],
        }

    _timed(result, f"axioms:{name}", run)


def check_coherence(result: CheckSuiteResult, name: str, system, depths) -> None:
    """Each depth's gaps refine the previous depth's: when every coarse chord is
    a fine chord and both sets are unlinked, a fine gap lies inside the nearest
    fine chord around it that is also coarse (the whole disk if none is), and
    outside every coarse chord nested in that one, or that chord would be
    nearer.  So coherence is decided on chord sets, and no gap is built."""
    def run():
        for lo, hi in zip(depths, depths[1:]):
            fine = system.truncation(hi)
            if not all(ch in fine.node_of for ch in system.chords(lo)):
                return "fail", {"depths": [lo, hi], "reason": "not monotone"}
            system.truncation(lo).valid()
            fine.valid()
        return "pass", {"depths": list(depths)}

    _timed(result, f"coherence:{name}", run)


def _missed(g, points: dict, chords, partners: dict) -> list:
    """The chords whose image under g is not a chord in ``partners``, the
    {endpoint: set of partners} index of the next depth.  ``points`` memoizes
    g on boundary points, so each endpoint is mapped once; no image chord is
    built."""
    for ch in chords:
        for p in (ch.lo, ch.hi):
            if p not in points:
                points[p] = g.apply(p)
    return [ch for ch in chords if points[ch.hi] not in partners.get(points[ch.lo], ())]


def check_invariance(result: CheckSuiteResult, name: str, systems, generators, depth: int) -> None:
    def run():
        maps = [m for g in generators for m in (g, g.inverse())]
        memos = {g: {} for g in maps}  # each distinct map once (an involution is listed twice)
        misses, first = 0, None
        for sysm in systems:
            chords, partners = sysm.chords(depth), {}
            for ch in sysm.chords(depth + 1):
                partners.setdefault(ch.lo, set()).add(ch.hi)
                partners.setdefault(ch.hi, set()).add(ch.lo)
            missed = {g: _missed(g, points, chords, partners) for g, points in memos.items()}
            for g in maps:  # a miss counts once per occurrence of its map
                misses += len(missed[g])
                if first is None and missed[g]:
                    first = [sysm.name, repr(g), missed[g][0].encode()]
        if misses:
            return "fail", {"misses": misses, "first": first}
        return "pass", {"depth": depth, "generators": len(maps)}

    _timed(result, f"invariance:{name}", run)


def check_transversality(result: CheckSuiteResult, name: str, systems, depth: int) -> None:
    """``systems`` are (name, chords) pairs; ``depth`` is reported, not built."""
    def run():
        for i, (name_i, chords_i) in enumerate(systems):
            for name_j, chords_j in systems[i + 1 :]:
                if not transverse(chords_i, chords_j):
                    return "fail", {
                        "pair": [name_i, name_j],
                        "shared_leaf": min(set(chords_i) & set(chords_j), key=Chord.encode).encode(),
                    }
        return "pass", {"depth": depth}

    _timed(result, f"transversality:{name}", run)


def check_pants_like(result: CheckSuiteResult, name: str, systems, generators, cusps, depth: int, radius: int) -> None:
    """``systems`` are (name, chords) pairs; ``depth`` is reported, not built."""
    declared = set(cusps)

    def run_endpoints():
        for i, (name_i, chords_i) in enumerate(systems):
            for name_j, chords_j in systems[i + 1 :]:
                _, common = strongly_transverse(chords_i, chords_j)
                if common != declared:
                    return "fail", {
                        "pair": [name_i, name_j],
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
            return "fail", {"mismatched": len(diff), "first": min(diff, key=Chord.encode).encode()}
        return "pass", {"chords": len(ours)}

    _timed(result, f"rebuild:{name}", run)


def _rebuild_refusal(parsed, systems, files) -> str | None:
    """Why the rebuilt ``systems`` cannot match the parsed ``files``, decided
    before building as deep or with as large an order n as the file states:
    the n rotations of the seed point are endpoints of every finite_cyclic
    system, and each depth's chords hold those of every shallower one."""
    if len(systems) != len(files):
        return f"the file holds {len(files)} systems, the builder {len(systems)}"
    if builder_kind(parsed.builder) == "finite_cyclic":
        n, fewest = parsed.builder["n"], min(len(endpoints_set(f.chords)) for f in files)
        if n > fewest:
            return f"order n={n} exceeds the {fewest} endpoints of a system"
    for s, f in zip(systems, files):
        for depth in range(parsed.depth):
            if len(s.chords(depth)) > len(f.chords):
                return f"{s.name} has more chords at depth {depth} than the file's {len(f.chords)}"
    return None


SUITES = ("axioms", "invariance", "transversality", "pants", "coherence")


def run_suites(parsed, suites=SUITES, radius: int = 6) -> CheckSuiteResult:
    """Run the requested suites on a ParsedLamination or ParsedCollection."""
    result = CheckSuiteResult()
    rebuilt = rebuild_from_builder(parsed.builder)
    collection = hasattr(parsed, "systems")
    if collection:
        name, files, systems = parsed.kind, parsed.systems, rebuilt and rebuilt.systems
        named = [(s.name or f"system{k}", s.chords) for k, s in enumerate(files)]
    else:
        name, files, systems = parsed.name or "lamination", [parsed], [rebuilt]
        named = [(name, parsed.chords)]
    if "axioms" in suites:
        for system_name, chords in named:
            check_axioms(result, system_name, chords)
    if collection and "transversality" in suites:
        check_transversality(result, name, named, parsed.depth)
    if collection and "pants" in suites:
        check_pants_like(result, name, named, parsed.generators, parsed.cusps, parsed.depth, radius)
    wanted = [s for s in (("invariance", "coherence") if collection else ("coherence",)) if s in suites]
    t0 = time.perf_counter()
    refusal = _rebuild_refusal(parsed, systems, files) if rebuilt is not None and wanted else None
    probe_s, first = time.perf_counter() - t0, len(result.entries)
    if rebuilt is None or refusal is not None:
        if refusal is not None:
            result.entries.append(CheckEntry(f"rebuild:{name}", "fail", {"reason": refusal}, probe_s))
        reason = "no builder metadata" if refusal is None else "rebuild refused"
        result.entries.extend(CheckEntry(f"{suite}:{name}", "skipped", {"reason": reason}) for suite in wanted)
        return result
    if "invariance" in wanted:
        check_invariance(result, name, systems, rebuilt.generators, parsed.depth)
    if "coherence" in wanted:
        for s, f in zip(systems, files):
            label = f"{name}:{s.name}" if collection else name
            check_rebuild_match(result, label, f.chords, s.chords(parsed.depth))
            check_coherence(result, label, s, (1, 2, 3))
    for entry in result.entries[first : first + 1]:  # the first check to read the depths the probe built
        entry.seconds += probe_s
    return result
