import json

import pytest

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


def test_check_rebuild_match_catches_tampered_chords(tmp_path, capsys):
    out = tmp_path / "f.json"
    run(["build", "farey", "--depth", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["chords"] = doc["chords"][:-1]  # drop one chord, axioms still pass
    bad = tmp_path / "stale.json"
    bad.write_text(json.dumps(doc))
    assert run(["check", str(bad), "--suite", "coherence"]) == 1
    assert "rebuild:farey" in capsys.readouterr().out


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
    ],
)
def test_malformed_document_exits_two_with_one_error_line(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    for argv in (["check", str(bad)], ["render", str(bad)], ["dynamics", "--group", str(bad), "--test", "cusps"]):
        assert run(argv) == 2, argv
        _assert_one_error_line(capsys, bad)
