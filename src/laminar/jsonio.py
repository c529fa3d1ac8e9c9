"""Canonical JSON persistence for laminations, collections and groups.

Chord lists are ordered lexicographically on encoded endpoints, numbers are
exact "<num>/<den>" strings, and files are written atomically so identical
inputs always produce identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile

from .circle import BoundaryPoint, Chart
from .errors import LaminarError, ParseError
from .lamination import Chord, Col3Collection, LaminationSystem
from .mobius import map_from_json


def chords_to_json(chords) -> list:
    return sorted((ch.encode() for ch in dict.fromkeys(chords)))


def chords_from_json(data) -> list:
    return [Chord(BoundaryPoint.parse(a), BoundaryPoint.parse(b)) for a, b in data]


def lamination_doc(chords, chart: Chart, depth: int, name: str = "", builder: dict | None = None) -> dict:
    doc = {
        "chart": Chart(chart).value,
        "depth": depth,
        "chords": chords_to_json(chords),
    }
    if name:
        doc["name"] = name
    if builder:
        doc["builder"] = builder
    return doc


def system_doc(system: LaminationSystem, depth: int, builder: dict | None = None) -> dict:
    return lamination_doc(system.chords(depth), system.chart, depth, system.name, builder)


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


def group_doc(generators) -> dict:
    return {"generators": [g.to_json() for g in generators]}


def parse_group(doc) -> list:
    return [map_from_json(g) for g in doc["generators"]]


def _depth(doc) -> int:
    depth = doc["depth"]
    if type(depth) is not int or depth < 0:  # bool is an int subclass
        raise ParseError(f"depth must be a non-negative integer, not {depth!r}")
    return depth


def _builder(doc):
    builder = doc.get("builder")
    if builder is not None and not isinstance(builder, dict):
        raise ParseError(f"builder must be an object, not {builder!r}")
    return builder


class ParsedLamination:
    def __init__(self, doc):
        self.chart = Chart(doc["chart"])
        self.depth = _depth(doc)
        self.chords = chords_from_json(doc["chords"])
        self.name = doc.get("name", "")
        self.builder = _builder(doc)


class ParsedCollection:
    def __init__(self, doc):
        self.kind = doc["kind"]
        self.depth = _depth(doc)
        self.params = doc.get("params", {})
        self.generators = parse_group({"generators": doc.get("group", [])})
        self.cusps = [BoundaryPoint.parse(s) for s in doc.get("cusps", [])]
        self.systems = [ParsedLamination(s) for s in doc["systems"]]
        self.builder = _builder(doc)


def parse_doc(doc):
    if "systems" in doc:
        return ParsedCollection(doc)
    if "chords" in doc:
        return ParsedLamination(doc)
    raise ValueError("not a lamination or collection document")


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
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError, IndexError, ZeroDivisionError, LaminarError)


def _read(path: str, parse):
    """``parse`` of the JSON file at ``path``; malformed content raises ParseError."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return parse(json.load(f))
        except ParseError:
            raise
        except _MALFORMED as exc:
            raise ParseError(f"{type(exc).__name__}: {exc}") from exc


def load(path: str):
    """A ParsedLamination or ParsedCollection; OSError or ParseError if not."""
    return _read(path, parse_doc)


def load_group(path: str) -> list:
    """The generators of a group file; OSError or ParseError if not."""
    return _read(path, parse_group)
