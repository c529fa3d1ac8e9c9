"""The document parser: shared points and the input contract under fuzzing."""

import contextlib
import copy
import io
import json
import os
import re
import tempfile
import traceback

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from laminar.cli import main
from laminar.constructions import ELEMENTARY_KINDS, elementary_col3, farey_system
from laminar.errors import ParseError
from laminar.jsonio import chords_from_json, chords_to_json, collection_doc, load, load_group, parse_doc, system_doc


def test_each_distinct_point_string_is_one_shared_point():
    doc = collection_doc(elementary_col3("dihedral"), 2)
    parsed = parse_doc(doc)
    by_string = {}
    for system in parsed.systems:
        for ch in system.chords:
            for p in (ch.lo, ch.hi):
                assert by_string.setdefault(p.encode(), p) is p
    assert len(by_string) < sum(2 * len(s.chords) for s in parsed.systems)

    points = {}
    chords = chords_from_json(doc["systems"][0]["chords"], points)
    assert set(points) == {s for pair in doc["systems"][0]["chords"] for s in pair}
    assert all(points[p.encode()] is p for ch in chords for p in (ch.lo, ch.hi))
    assert chords_to_json(chords) == doc["systems"][0]["chords"]


# -- fuzzing the input contract -------------------------------------------------

BASES = {kind: collection_doc(elementary_col3(kind, n=5 if kind == "finite_cyclic" else None), 2) for kind in ELEMENTARY_KINDS}
BASES["farey"] = system_doc(farey_system(), 2, builder={"name": "farey"})

POINTS = sorted(
    {s for doc in BASES.values() for system in doc.get("systems", [doc]) for pair in system["chords"] for s in pair}
)
# values of the same key in the other base documents
DONORS = {
    key: [copy.deepcopy(doc[key]) for doc in BASES.values() if key in doc]
    for key in ("depth", "chart", "kind", "builder", "group", "cusps")
}
DONORS["chart"] = ["ext_real", "disk_angle", "signed_exp"]
NAMES = ["farey", "half_farey", "square", *ELEMENTARY_KINDS, "ext_real", "disk_angle", "signed_exp"]

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(-10, 10)
    | st.text(max_size=6)
    | st.sampled_from(NAMES)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "name", "n", "matrix", "action"]) | st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def near_misses(s: str) -> list:
    """Spellings one slip away from the point string ``s``."""
    tag, _, body = s.partition(":")
    return [
        s.replace("0/1", "0/2", 1),
        s.replace("0/1", "-0/1", 1),
        s.replace("/1", "/-1", 1),
        s.replace("1/1", "2/2", 1),
        s.replace("/", "//", 1),
        s.replace(",", ", ", 1),
        s + ",0/1",
        s.rsplit(",", 1)[0],
        s.replace(":", "", 1),
        {"r": "θ", "θ": "e", "e": "r"}.get(tag, "r") + ":" + body,
        tag + ":+" + body,
        s.upper(),
        " " + s,
        s.replace("1/", "01/", 1),
        s.replace("1/", "1.0/", 1),
        tag + ":inf",
        tag + ":0",
        "",
    ]


def _documents(doc):
    """``doc`` and the systems nested in it, as far as mutations left them."""
    systems = doc.get("systems")
    return [doc] + [d for d in (systems if isinstance(systems, list) else []) if isinstance(d, dict)]


def _laminations(doc):
    return [d for d in _documents(doc) if isinstance(d.get("chords"), list) and d["chords"]]


def _dicts(doc):
    documents = _documents(doc)
    return documents + [d["builder"] for d in documents if isinstance(d.get("builder"), dict)]


def _pair(draw, doc):
    laminations = _laminations(doc)
    if not laminations:
        return None, None
    chords = draw(st.sampled_from(laminations))["chords"]
    return chords, draw(st.integers(0, len(chords) - 1))


def respell_point(draw, doc):
    chords, i = _pair(draw, doc)
    if chords is None or not isinstance(chords[i], list) or not chords[i]:
        return
    j = draw(st.integers(0, len(chords[i]) - 1))
    old = chords[i][j]
    spellings = near_misses(old) if isinstance(old, str) else []
    chords[i][j] = draw(st.sampled_from(spellings + POINTS) | st.text(alphabet="rθe:+-,/0123456789inf", max_size=24))


def set_field(draw, doc):
    target = draw(st.sampled_from(_dicts(doc)))
    key = draw(st.sampled_from(["depth", "chart", "kind", "builder", "group", "cusps", "n", "name"]))
    values = JSON | st.sampled_from(DONORS.get(key) or [None])
    if key in ("depth", "n"):
        values |= st.integers(-2, 10**9)  # check must not build as far as a file says
    target[key] = copy.deepcopy(draw(values))


def delete_key(draw, doc):
    target = draw(st.sampled_from(_dicts(doc)))
    if target:
        del target[draw(st.sampled_from(sorted(target)))]


def shorten_pair(draw, doc):
    chords, i = _pair(draw, doc)
    if chords is not None and isinstance(chords[i], list):
        chords[i] = chords[i][: draw(st.integers(0, 1))]


def swap_chords(draw, doc):
    chords, i = _pair(draw, doc)
    if chords is not None:
        j = draw(st.integers(0, len(chords) - 1))
        chords[i], chords[j] = chords[j], chords[i]


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        draw(st.sampled_from([respell_point, set_field, delete_key, shorten_pair, swap_chords]))(draw, doc)
    return doc


def _run(argv):
    """Exit code and stderr of the CLI, with what an uncaught exception would print."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


LAMINATION = {"chart": "ext_real", "depth": 1, "chords": [["r:0/1,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]]}
PINNED = [
    {**BASES["parabolic"], "builder": {"kind": "farey"}},
    {**LAMINATION, "builder": {"name": "dihedral"}},
    BASES["parabolic"]["systems"][0],  # a system copied out of a bundle
    {**BASES["farey"], "chords": BASES["farey"]["chords"][::-1]},
    {**BASES["farey"], "chords": [BASES["farey"]["chords"][0][::-1]] + BASES["farey"]["chords"][1:]},
    {**BASES["dihedral"], "group": [{**BASES["dihedral"]["group"][0], "flip": "false"}]},
    {**BASES["finite_cyclic"], "builder": {"kind": "finite_cyclic", "n": 10**9}},
    {**BASES["farey"], "depth": 10**9},
]


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_documents())
@example(doc=PINNED[0])
@example(doc=PINNED[1])
@example(doc=PINNED[2])
@example(doc=PINNED[3])
@example(doc=PINNED[4])
@example(doc=PINNED[5])
@example(doc=PINNED[6])
@example(doc=PINNED[7])
def test_mutated_documents_keep_the_exit_code_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, ensure_ascii=False)
        try:
            parsed = load(path)
        except ParseError:
            parsed = None
        for argv in (["check", path], ["render", path, "--out", os.path.join(tmp, "doc.svg")]):
            code, err = _run(argv)
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err, err
            if code == 2:
                assert err.count("\n") == 1 and err.startswith("error: "), err
            if parsed is None:
                assert code == 2 and err.startswith(f"error: cannot parse {path}"), err
        if parsed is not None:
            laminations = zip(parsed.systems, doc["systems"]) if hasattr(parsed, "systems") else [(parsed, doc)]
            for lamination, source in laminations:
                assert chords_to_json(lamination.chords) == source["chords"]


def test_an_unreadable_file_is_a_parse_error_naming_it(tmp_path):
    for path in (str(tmp_path / "missing.json"), str(tmp_path)):
        for read in (load, load_group):
            with pytest.raises(ParseError, match=f"^cannot parse {re.escape(path)}: "):
                read(path)


def _refused_by_both_commands(tmp_path, doc, reason):
    """``doc`` fails to load with ``reason``, and check and render exit 2 naming the file."""
    path = str(tmp_path / "doc.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    with pytest.raises(ParseError, match=f"^cannot parse {re.escape(path)}: {reason}"):
        load(path)
    for argv in (["check", path], ["render", path, "--out", str(tmp_path / "doc.svg")]):
        code, err = _run(argv)
        assert code == 2 and err.startswith(f"error: cannot parse {path}: ") and err.count("\n") == 1, (argv, err)


def test_a_chord_must_be_a_list_of_two_point_strings(tmp_path):
    zero, one = LAMINATION["chords"][0]
    for chord in ({zero: 1, one: 2}, [zero], [zero, one, "r:2/1,0/1,0/1,0/1"], [0, 1]):
        doc = {**LAMINATION, "chords": [chord]}
        _refused_by_both_commands(tmp_path, doc, "a chord must be a list of two point strings")


def test_an_object_in_place_of_a_list_is_refused(tmp_path):
    _refused_by_both_commands(tmp_path, {**LAMINATION, "chords": {}}, "chords must be a list")
    for key in ("systems", "cusps", "group"):
        _refused_by_both_commands(tmp_path, {**BASES["parabolic"], key: {}}, f"{key} must be a list")
    nested = copy.deepcopy(BASES["parabolic"])
    nested["systems"][0]["chords"] = {}
    _refused_by_both_commands(tmp_path, nested, "chords must be a list")
    path = str(tmp_path / "group.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"generators": {}}, f)
    with pytest.raises(ParseError, match="generators must be a list"):
        load_group(path)


def test_a_finite_cyclic_builder_without_an_order_is_refused(tmp_path):
    base = BASES["finite_cyclic"]
    for builder in ({"kind": "finite_cyclic"}, {"kind": "finite_cyclic", "n": 1}, {"name": "finite_cyclic", "n": -3}):
        _refused_by_both_commands(tmp_path, {**base, "builder": builder}, "finite_cyclic requires order n >= 2")
