import json
import os
import subprocess
import sys
import time

import pytest

import laminar
from laminar.cli import main
from laminar.constructions import farey_tessellation
from laminar.jsonio import chords_to_json, dumps, load


def run(argv):
    return main(argv)


def test_build_farey_depth_one_matches_library(tmp_path, capsys):
    out = tmp_path / "f1.json"
    assert run(["build", "farey", "--depth", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["chords"] == chords_to_json(farey_tessellation(1))
    assert len(doc["chords"]) == 3


def test_build_is_idempotent_and_atomic(tmp_path):
    out = tmp_path / "f.json"
    assert run(["build", "farey", "--depth", "2", "--out", str(out)]) == 0
    first = out.read_bytes()
    assert run(["build", "farey", "--depth", "2", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_round_trip_parse_reserialize_identity(tmp_path):
    out = tmp_path / "p.json"
    assert run(["build", "elementary", "--kind", "parabolic", "--depth", "2", "--out", str(out)]) == 0
    raw = out.read_text()
    parsed = load(str(out))
    from laminar.jsonio import collection_doc
    from laminar.constructions import elementary_col3

    rebuilt = collection_doc(elementary_col3("parabolic"), 2)
    assert dumps(rebuilt) == raw


def test_build_elementary_bundle_contents(tmp_path):
    out = tmp_path / "p2.json"
    assert run(["build", "elementary", "--kind", "parabolic", "--depth", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["cusps"] == ["r:inf"]
    assert len(doc["systems"]) == 3
    assert doc["group"] == [{"matrix": ["1/1,0/1,0/1,0/1", "1/1,0/1,0/1,0/1", "0/1,0/1,0/1,0/1", "1/1,0/1,0/1,0/1"]}]


def test_build_rejects_bad_order(capsys):
    assert run(["build", "elementary", "--kind", "finite_cyclic", "--n", "1", "--depth", "2"]) == 2
    assert "n >= 2" in capsys.readouterr().err


def test_build_requires_kind_for_elementary(capsys):
    assert run(["build", "elementary", "--depth", "2"]) == 2


def test_check_valid_file_exits_zero(tmp_path, capsys):
    out = tmp_path / "f.json"
    run(["build", "farey", "--depth", "3", "--out", str(out)])
    report = tmp_path / "report.json"
    assert run(["check", str(out), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["reports"][0]["ok"] is True
    lines = capsys.readouterr().out
    assert "axioms:farey" in lines and "pass" in lines


def test_check_detects_planted_linked_pair(tmp_path, capsys):
    out = tmp_path / "f.json"
    run(["build", "farey", "--depth", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["chords"].append(["r:-5/1,0/1,0/1,0/1", "r:1/2,0/1,0/1,0/1"])
    doc["chords"].sort()  # keep the document canonical
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code = run(["check", str(tmp_path / "bad.json"), "--suite", "axioms"])
    assert code == 1
    outtext = capsys.readouterr().out
    assert "linked-pair" in outtext and "-5/1" in outtext


def test_check_detects_forged_common_endpoint(tmp_path, capsys):
    out = tmp_path / "p.json"
    run(["build", "elementary", "--kind", "parabolic", "--depth", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    # plant a shared endpoint far outside both systems' spans
    doc["systems"][0]["chords"].append(["r:20/1,0/1,0/1,0/1", "r:21/1,0/1,0/1,0/1"])
    doc["systems"][1]["chords"].append(["r:20/1,0/1,0/1,0/1", "r:43/2,0/1,0/1,0/1"])
    for system in doc["systems"][:2]:
        system["chords"].sort()  # keep the document canonical
    bad = tmp_path / "forged.json"
    bad.write_text(json.dumps(doc))
    code = run(["check", str(bad), "--suite", "axioms", "--suite", "pants"])
    assert code == 1
    outtext = capsys.readouterr().out
    assert "pants-endpoints" in outtext and "r:20/1" in outtext


def test_check_parse_failure_exits_two(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("{\"chords\": 3}")
    assert run(["check", str(bad)]) == 2
    assert run(["check", str(tmp_path / "missing.json")]) == 2


def test_render_cli(tmp_path):
    src = tmp_path / "f.json"
    run(["build", "farey", "--depth", "3", "--out", str(src)])
    svg = tmp_path / "f.svg"
    assert run(["render", str(src), "--out", str(svg)]) == 0
    data = svg.read_text()
    assert data.startswith("<?xml") and data.count("<path") >= 7
    svg2 = tmp_path / "f2.svg"
    assert run(["render", str(src), "--out", str(svg2)]) == 0
    assert svg.read_bytes() == svg2.read_bytes()
    arcs = tmp_path / "arcs.json"
    assert run(["render", str(src), "--format", "json", "--out", str(arcs)]) == 0
    doc = json.loads(arcs.read_text())
    assert all(a["residual"] < 1e-9 for a in doc["arcs"][0])


def test_render_collection(tmp_path):
    src = tmp_path / "p.json"
    run(["build", "elementary", "--kind", "parabolic", "--depth", "1", "--out", str(src)])
    svg = tmp_path / "p.svg"
    assert run(["render", str(src), "--out", str(svg)]) == 0
    assert 'stroke="#2ca02c"' in svg.read_text()


def test_render_size_and_stroke_width_reach_the_svg(tmp_path):
    src = tmp_path / "f.json"
    run(["build", "farey", "--depth", "1", "--out", str(src)])
    svg = tmp_path / "f.svg"
    assert run(["render", str(src), "--size", "400", "--stroke-width", "2", "--out", str(svg)]) == 0
    data = svg.read_text()
    assert 'width="400" height="400"' in data
    assert 'stroke-width="2.000000000"' in data and 'stroke-width="1.400000000"' not in data


def test_dynamics_cli(tmp_path):
    grp = tmp_path / "grp.json"
    grp.write_text(
        json.dumps(
            {
                "generators": [
                    {"matrix": ["1/1,0/1,0/1,0/1", "1/1,0/1,0/1,0/1", "0/1,0/1,0/1,0/1", "1/1,0/1,0/1,0/1"]}
                ]
            }
        )
    )
    out = tmp_path / "cusps.json"
    assert run(["dynamics", "--group", str(grp), "--test", "cusps", "--radius", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["cusps"] == ["r:inf"]

    wings = tmp_path / "wings.json"
    assert run(["dynamics", "--group", str(grp), "--test", "wings", "--count", "4", "--out", str(wings)]) == 0
    doc = json.loads(wings.read_text())
    assert len(doc["wings"]) == 4

    triples = tmp_path / "triples.json"
    assert (
        run(
            [
                "dynamics",
                "--group",
                str(grp),
                "--test",
                "triples",
                "--horizon",
                "50",
                "--samples",
                "20",
                "--out",
                str(triples),
            ]
        )
        == 0
    )
    doc = json.loads(triples.read_text())
    assert doc["verdict"] in ("convergence_like", "violation", "inconclusive")
    assert doc["params"]["seed"] == 0


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["build", "nonsense", "--depth", "1"])
    assert exc.value.code == 2


def _check_tampered(tmp_path, capsys, build, suites):
    """Check output for a built document after dropping one chord of its
    (first) system; axioms still pass."""
    out = tmp_path / "f.json"
    run(["build", *build, "--depth", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    tampered = doc["systems"][0] if "systems" in doc else doc
    tampered["chords"] = tampered["chords"][:-1]
    bad = tmp_path / "stale.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["check", str(bad), *(a for suite in suites for a in ("--suite", suite))]) == 1
    out = capsys.readouterr().out
    assert "[   fail] rebuild:" in out and "'mismatched': 1, 'first':" in out
    assert "[   pass] coherence:" in out and "skipped" not in out
    return out


def test_check_rebuild_match_catches_tampered_chords(tmp_path, capsys):
    _check_tampered(tmp_path, capsys, ["farey"], ["coherence"])


def test_check_tampered_collection_still_runs_invariance(tmp_path, capsys):
    build = ["elementary", "--kind", "finite_cyclic", "--n", "5"]
    out = _check_tampered(tmp_path, capsys, build, ["invariance", "coherence"])
    assert "[   pass] invariance:finite_cyclic" in out  # it reads the rebuilt systems only


def test_failing_check_details_do_not_follow_hash_order(tmp_path):
    """A failing check names the same chords under every hash seed: the least
    differing or shared chord by its encoding, not the first a set yields."""
    out = tmp_path / "p.json"
    run(["build", "elementary", "--kind", "parabolic", "--depth", "4", "--out", str(out)])
    doc = json.loads(out.read_text())
    rational, sqrt2 = (next(s for s in doc["systems"] if s["name"] == name) for name in ("rational", "sqrt2"))
    kept = rational["chords"]
    rational["chords"] = kept[5:]
    (tmp_path / "dropped.json").write_text(json.dumps(doc))
    rational["chords"] = sorted(kept + sqrt2["chords"])
    (tmp_path / "shared.json").write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(laminar.__file__))}
    reports = set()
    for seed in range(4):
        argv = [sys.executable, "-m", "laminar.cli", "check", "dropped.json", "shared.json", "--out", f"r{seed}.json"]
        env["PYTHONHASHSEED"] = str(seed)
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        data = json.loads((tmp_path / f"r{seed}.json").read_text())
        for report in data["reports"]:
            for check in report["checks"]:
                del check["seconds"]
        reports.add(json.dumps(data, sort_keys=True))
    assert len(reports) == 1
    (text,) = reports
    assert '"mismatched": 5' in text and '"shared_leaf"' in text


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every command runs in a fresh process and pays the package import first;
    ``dataclasses`` alone loads ``inspect``, ``ast``, ``dis`` and ``tokenize``.
    ``-S`` keeps the modules that site ``.pth`` files import out of the check."""
    src = os.path.dirname(os.path.dirname(laminar.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import laminar.cli; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


PSL2Z = {
    "generators": [
        {"matrix": ["0/1,0/1,0/1,0/1", "-1/1,0/1,0/1,0/1", "1/1,0/1,0/1,0/1", "0/1,0/1,0/1,0/1"]},
        {"matrix": ["1/1,0/1,0/1,0/1", "1/1,0/1,0/1,0/1", "0/1,0/1,0/1,0/1", "1/1,0/1,0/1,0/1"]},
    ]
}


@pytest.mark.parametrize(
    "argv",
    [
        ["dynamics", "--group", "GROUP", "--test", "cusps", "--radius", "-1"],
        ["dynamics", "--group", "GROUP", "--test", "triples", "--samples", "-1"],
        ["dynamics", "--group", "GROUP", "--test", "triples", "--horizon", "-5"],
        ["dynamics", "--group", "GROUP", "--test", "wings", "--count", "-2"],
        ["build", "farey", "--depth", "-1"],
        ["check", "DOC", "--radius", "-1"],
        ["render", "DOC", "--size", "-5"],
        ["render", "DOC", "--size", "0"],
    ],
    ids=["radius", "samples", "horizon", "count", "depth", "check-radius", "size-negative", "size-zero"],
)
def test_negative_numbers_are_usage_errors(tmp_path, capsys, argv):
    assert "must be an integer" in _usage_error(tmp_path, capsys, argv)


def _usage_error(tmp_path, capsys, argv) -> str:
    """The stderr of ``argv``, with GROUP a PSL(2,Z) file and DOC a farey
    file, after checking that argparse rejected it with exit 2."""
    group, doc = tmp_path / "g.json", tmp_path / "f.json"
    group.write_text(json.dumps(PSL2Z))
    assert run(["build", "farey", "--depth", "1", "--out", str(doc)]) == 0
    argv = [{"GROUP": str(group), "DOC": str(doc)}.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    return err


@pytest.mark.parametrize(
    "argv",
    [
        ["render", "DOC", "--stroke-width", "nan"],
        ["render", "DOC", "--stroke-width", "0"],
        ["render", "DOC", "--stroke-width", "-1"],
        ["dynamics", "--group", "GROUP", "--test", "triples", "--eps", "nan"],
        ["dynamics", "--group", "GROUP", "--test", "triples", "--eps", "-0.5"],
        ["dynamics", "--group", "GROUP", "--test", "triples", "--delta", "inf"],
        ["dynamics", "--group", "GROUP", "--test", "triples", "--delta", "-1"],
    ],
    ids=["stroke-nan", "stroke-zero", "stroke-negative", "eps-nan", "eps-negative", "delta-inf", "delta-negative"],
)
def test_non_finite_or_negative_floats_are_usage_errors(tmp_path, capsys, argv):
    assert "must be a finite number" in _usage_error(tmp_path, capsys, argv)


def test_a_delta_no_window_can_hold_is_a_degenerate_sample(tmp_path, capsys):
    group = tmp_path / "g.json"
    group.write_text(json.dumps(PSL2Z))
    # a horizon of 2 gives fewer than 3 maps, which must not skip the sampling
    for horizon in ("2", "3"):
        assert run(["dynamics", "--group", str(group), "--test", "triples", "--horizon", horizon, "--delta", "0.4"]) == 2
        err = capsys.readouterr().err
        assert err == "error: cannot satisfy the angular gap 0.4: three gaps summing to 1 cannot all exceed 1/3\n"


def test_no_probe_triples_is_an_inconclusive_report(tmp_path):
    group, out = tmp_path / "g.json", tmp_path / "triples.json"
    group.write_text(json.dumps(PSL2Z))
    assert run(["dynamics", "--group", str(group), "--test", "triples", "--samples", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["verdict"], doc["witness"]) == ("inconclusive", {"reason": "no probe triples"})


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no-such-directory", "a-directory"])
def test_an_out_that_cannot_be_written_exits_two_with_one_error_line(tmp_path, capsys, target):
    doc, group = tmp_path / "f.json", tmp_path / "g.json"
    assert run(["build", "farey", "--depth", "1", "--out", str(doc)]) == 0
    group.write_text(json.dumps(PSL2Z))
    out = str(tmp_path / target)
    for argv in (
        ["build", "farey", "--depth", "1"],
        ["check", str(doc)],
        ["render", str(doc)],
        ["render", str(doc), "--format", "json"],
        ["dynamics", "--group", str(group), "--test", "cusps"],
    ):
        assert run([*argv, "--out", out]) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: cannot write {out}: "), err
    assert sorted(os.listdir(tmp_path)) == ["f.json", "g.json"]  # no temporary file is left behind


def test_an_empty_group_has_no_map_to_iterate(tmp_path, capsys):
    group = tmp_path / "g.json"
    group.write_text(json.dumps({"generators": []}))
    assert run(["dynamics", "--group", str(group), "--test", "triples"]) == 2
    assert capsys.readouterr().err == "error: the group has no generator to iterate\n"


def _inflated(tmp_path, kind, edit):
    """A faithful depth-2 document of ``kind`` after ``edit`` rewrote it."""
    path = tmp_path / "doc.json"
    if kind == "farey":
        assert run(["build", "farey", "--depth", "2", "--out", str(path)]) == 0
    else:
        assert run(["build", "elementary", "--kind", kind, "--n", "5", "--depth", "2", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def _set_order(n):
    def edit(doc):
        for d in (doc, *doc["systems"]):
            d["builder"]["n"] = n

    return edit


@pytest.mark.parametrize(
    "kind, edit, skipped",
    [
        ("farey", lambda doc: doc.update(depth=15), ["coherence"]),
        ("finite_cyclic", lambda doc: doc.update(depth=15), ["invariance", "coherence"]),
        ("finite_cyclic", _set_order(2000), ["invariance", "coherence"]),
        ("finite_cyclic", _set_order(10**9), ["invariance", "coherence"]),
        ("finite_cyclic", lambda doc: doc.update(depth=15, systems=doc["systems"][:1]), ["invariance", "coherence"]),
    ],
    ids=["farey-depth-15", "finite-cyclic-depth-15", "n-2000", "n-1e9", "one-system-depth-15"],
)
def test_check_refuses_a_rebuild_the_file_cannot_match(tmp_path, capsys, kind, edit, skipped):
    path = _inflated(tmp_path, kind, edit)
    capsys.readouterr()
    t0 = time.perf_counter()
    assert run(["check", str(path)]) == 1
    assert time.perf_counter() - t0 < 10.0  # unbounded, n = 10**9 would not finish
    out = capsys.readouterr().out
    assert "[   fail] rebuild:" in out and "'reason':" in out
    for suite in skipped:
        assert f"[skipped] {suite}:" in out


def _assert_one_error_line(capsys, path):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: cannot parse {path}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [
        '{"chart": "ext_real", "depth": 1, "chords": [["r:1/0,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]]}',
        '{"chart": "ext_real", "depth": 1, "chords": 5}',
        "5",
        '{"chart": "ext_real", "depth": 1, "chords": [["r:0/1,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]], "builder": 5}',
        '{"chart": "ext_real", "depth": -3, "chords": [["r:0/1,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]]}',
        '{"chart": "ext_real", "depth": "3", "chords": [["r:0/1,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]]}',
        '{"chart": "ext_real", "depth": 2.5, "chords": [["r:0/1,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]]}',
        '{"chart": "ext_real", "depth": true, "chords": [["r:0/1,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]]}',
        '{"chart": "disk_angle", "depth": 1, "chords": [["θ:0/1,0/1,0/1,0/1", "θ:1/2,0/1,0/1,0/1"]], '
        '"builder": {"kind": "finite_cyclic", "n": "5"}}',
        '{"chart": "disk_angle", "depth": 1, "chords": [["θ:0/1,0/1,0/1,0/1", "θ:1/2,0/1,0/1,0/1"]], '
        '"builder": {"kind": "finite_cyclic", "n": 2.5}}',
        '{"chart": "disk_angle", "depth": 1, "chords": [["θ:0/1,0/1,0/1,0/1", "θ:1/2,0/1,0/1,0/1"]], '
        '"builder": {"kind": "finite_cyclic", "n": true}}',
        '{"chart": "ext_real", "depth": 1, "chords": [["r:0/2,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]]}',
        '{"chart": "ext_real", "depth": 1, "chords": [["r:0/1,0/1,0/1,0/1", "r:2/2,0/1,0/1,0/1"]]}',
        '{"chart": "ext_real", "depth": 1, "chords": [["r:0/-1,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]]}',
        '{"chart": "disk_angle", "depth": 1, "chords": [["r:0/1,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]]}',
        '{"chart": "disk_angle", "depth": 1, "chords": [["θ:0/1,0/1,0/1,0/1", "θ:3/2,0/1,0/1,0/1"]]}',
        '{"chart": "signed_exp", "depth": 1, "chords": [["e:0", "e:x,0/1,0/1,0/1,0/1"]]}',
        '{"kind": "parabolic", "depth": 1, "systems": [], "builder": {"kind": "farey"}}',
        '{"chart": "ext_real", "depth": 1, "chords": [["r:0/1,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]], '
        '"builder": {"name": "dihedral"}}',
        '{"chart": "ext_real", "depth": 1, "chords": [["r:0/1,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]], '
        '"builder": {"kind": "parabolic"}}',
        '{"chart": "ext_real", "depth": 1, "chords": [["r:1/1,0/1,0/1,0/1", "r:inf"], '
        '["r:0/1,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]]}',
        '{"chart": "ext_real", "depth": 1, "chords": [["r:1/1,0/1,0/1,0/1", "r:0/1,0/1,0/1,0/1"]]}',
        '{"chart": "ext_real", "depth": 1, "chords": [["r:0/1,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"], '
        '["r:0/1,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]]}',
        '{"chart": "ext_real", "depth": 1, "chords": [["r:0/1,0/1,0/1,0/1", "r:1/1,0/1,0/1,0/1"]], '
        '"builder": {"kind": 5}}',
        '{"kind": "dihedral", "depth": 1, "systems": [], "group": [{"action": "exp_affine", "flip": "false", '
        '"tau": "0/1,0/1,0/1,0/1"}], "generators": [{"action": "exp_affine", "flip": 0, "tau": "0/1,0/1,0/1,0/1"}]}',
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=[
        "zero-denominator",
        "chords-not-a-list",
        "top-level-number",
        "builder-not-an-object",
        "depth-negative",
        "depth-a-string",
        "depth-a-float",
        "depth-a-bool",
        "builder-n-a-string",
        "builder-n-a-float",
        "builder-n-a-bool",
        "zero-not-in-lowest-terms",
        "one-not-in-lowest-terms",
        "negative-denominator",
        "points-not-in-the-chart",
        "angle-not-below-one",
        "ray-sign-not-plus-or-minus",
        "collection-built-by-farey",
        "lamination-built-by-dihedral",
        "lamination-built-by-parabolic",
        "chords-reversed",
        "chord-endpoints-swapped",
        "chord-repeated",
        "builder-kind-not-a-string",
        "flip-not-a-bool",
        "nested-too-deep",
    ],
)
def test_malformed_document_exits_two_with_one_error_line(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    for argv in (["check", str(bad)], ["render", str(bad)], ["dynamics", "--group", str(bad), "--test", "cusps"]):
        assert run(argv) == 2, argv
        _assert_one_error_line(capsys, bad)


_THETA_LEAF = ["θ:0/1,0/1,0/1,0/1", "θ:1/2,0/1,0/1,0/1"]
_R_LEAF = ["r:0/1,0/1,0/1,0/1", "r:inf"]  # the same leaf in r


@pytest.mark.parametrize(
    "systems, cusps",
    [
        ([("a", "disk_angle", _THETA_LEAF), ("b", "ext_real", _R_LEAF)], []),
        ([("a", "ext_real", _R_LEAF)], ["θ:0/1,0/1,0/1,0/1"]),
    ],
    ids=["systems", "cusps"],
)
def test_a_collection_mixing_charts_exits_two_with_one_error_line(tmp_path, capsys, systems, cusps):
    doc = {
        "kind": "custom",
        "depth": 1,
        "cusps": cusps,
        "systems": [{"name": n, "chart": c, "depth": 1, "chords": [leaf]} for n, c, leaf in systems],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    for argv in (["check", str(path)], ["render", str(path)]):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == f"error: cannot parse {path}: mixed charts disk_angle and ext_real\n"
