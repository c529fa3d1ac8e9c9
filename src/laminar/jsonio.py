"""Canonical JSON persistence for laminations, collections and groups.

Chord lists are ordered lexicographically on encoded endpoints, numbers are
exact "<num>/<den>" strings, and files are written atomically so identical
inputs always produce identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile

from .circle import BoundaryPoint, Chart, require_one_chart
from .constructions import ELEMENTARY_KINDS, SYSTEM_BUILDERS, require_cyclic_order
from .errors import LaminarError, ParseError, UnsupportedKind
from .lamination import Chord, Col3Collection, LaminationSystem
from .mobius import map_from_json


def chords_to_json(chords) -> list:
    return sorted((ch.encode() for ch in dict.fromkeys(chords)))


def _point(points: dict, s) -> BoundaryPoint:
    p = points.get(s)
    if p is None:
        p = points[s] = BoundaryPoint.parse(s)
    return p


def chords_from_json(data, points: dict | None = None) -> list:
    """The chords of a list in the canonical form ``chords_to_json`` writes.

    Each chord must be a list of two point strings in ascending order and the
    list strictly ascending.  ``points`` maps each point string to its parsed
    point, so a string repeated across chords is parsed once and is one
    shared object.
    """
    if points is None:
        points = {}
    chords = []
    prev = None
    for pair in data:
        if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not str or type(pair[1]) is not str:
            raise ParseError(f"a chord must be a list of two point strings, not {pair!r}")
        a, b = pair
        if not a < b or (prev is not None and not prev < (a, b)):
            raise ParseError(f"chord list is not in canonical order at {[a, b]!r}")
        prev = (a, b)
        chords.append(Chord(_point(points, a), _point(points, b)))
    return chords


def system_doc(system: LaminationSystem, depth: int, builder: dict | None = None) -> dict:
    doc = {
        "chart": system.chart.value,
        "depth": depth,
        "chords": chords_to_json(system.chords(depth)),
    }
    if system.name:
        doc["name"] = system.name
    if builder:
        doc["builder"] = builder
    return doc


def collection_doc(col: Col3Collection, depth: int) -> dict:
    builder = {"kind": col.kind, **col.params}
    return {
        "kind": col.kind,
        "depth": depth,
        "params": {k: v for k, v in col.params.items()},
        "group": [g.to_json() for g in col.generators],
        "cusps": [p.encode() for p in col.cusps],
        "systems": [system_doc(s, depth, builder) for s in col.systems],
        "builder": builder,
    }


def _list(doc, key: str, default=None) -> list:
    """``doc[key]``, or ``default`` where the key is absent and a default is
    given; ParseError unless it is a JSON list."""
    value = doc[key] if default is None else doc.get(key, default)
    if type(value) is not list:
        raise ParseError(f"{key} must be a list, not {value!r}")
    return value


def parse_group(doc) -> list:
    return [map_from_json(g) for g in _list(doc, "generators")]


def _depth(doc) -> int:
    depth = doc["depth"]
    if type(depth) is not int or depth < 0:  # bool is an int subclass
        raise ParseError(f"depth must be a non-negative integer, not {depth!r}")
    return depth


def _builder(doc):
    builder = doc.get("builder")
    if builder is None:
        return None
    if not isinstance(builder, dict):
        raise ParseError(f"builder must be an object, not {builder!r}")
    for key in ("kind", "name"):
        v = builder.get(key)
        if v is not None and type(v) is not str:
            raise ParseError(f"builder {key} must be a string, not {v!r}")
    n = builder.get("n")
    if n is not None and type(n) is not int:  # bool is an int subclass
        raise ParseError(f"builder n must be an integer, not {n!r}")
    return builder


def builder_kind(builder) -> str | None:
    """The construction a document's builder names, if any."""
    builder = builder or {}
    return builder.get("kind") or builder.get("name")


class ParsedLamination:
    def __init__(self, doc, points: dict | None = None):
        self.chart = Chart(doc["chart"])
        self.depth = _depth(doc)
        self.chords = chords_from_json(_list(doc, "chords"), points)
        stray = next((ch for ch in self.chords if ch.chart != self.chart), None)
        if stray is not None:
            raise ParseError(f"chord {stray!r} is not in the document's chart {self.chart.value}")
        self.name = doc.get("name", "")
        self.builder = _builder(doc)


class ParsedCollection:
    def __init__(self, doc):
        self.kind = doc["kind"]
        self.depth = _depth(doc)
        self.generators = [map_from_json(g) for g in _list(doc, "group", [])]
        points = {}  # one parse per distinct point string in the document
        self.cusps = [_point(points, s) for s in _list(doc, "cusps", [])]
        self.systems = [ParsedLamination(s, points) for s in _list(doc, "systems")]
        require_one_chart([*self.systems, *self.cusps], ParseError)
        self.builder = _builder(doc)


def parse_doc(doc):
    """A parsed top-level document, whose builder, if it names a known
    construction, must build what the document holds: a collection for a
    collection, a single system for a lamination, and for finite_cyclic an
    order n >= 2.  Systems nested in a collection carry the collection's
    builder and are not checked."""
    if "systems" in doc:
        parsed, shape, misfits = ParsedCollection(doc), "collection", SYSTEM_BUILDERS
    elif "chords" in doc:
        parsed, shape, misfits = ParsedLamination(doc), "lamination", ELEMENTARY_KINDS
    else:
        raise ValueError("not a lamination or collection document")
    kind = builder_kind(parsed.builder)
    if kind in misfits:
        raise ParseError(f"builder {kind!r} does not build a {shape}")
    if kind == "finite_cyclic":
        try:
            require_cyclic_order(parsed.builder.get("n"))
        except UnsupportedKind as e:
            raise ParseError(str(e)) from None
    return parsed


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-laminar-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# what malformed content raises while being decoded and parsed
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError, IndexError, ZeroDivisionError, RecursionError, LaminarError)


def _read(path: str, parse):
    """``parse`` of the JSON file at ``path``; an unreadable file or malformed
    content raises ParseError("cannot parse <path>: <reason>")."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse(json.load(f))
    except (OSError, ParseError) as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    except _MALFORMED as exc:
        raise ParseError(f"cannot parse {path}: {type(exc).__name__}: {exc}") from exc


def load(path: str):
    """A ParsedLamination or ParsedCollection; ParseError if not."""
    return _read(path, parse_doc)


def load_group(path: str) -> list:
    """The generators of a group file; ParseError if not."""
    return _read(path, parse_group)
