"""End-to-end command line checks via the in-process entry point."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from circlegc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_enumerate_and_export_dot(tmp_path, capsys):
    out = tmp_path / "basis.json"
    code, _ = run(capsys, "enumerate", "--parity", "odd", "--order", "2",
                  "--degree", "0", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["count"] == len(data["graphs"]) > 0
    dot_dir = tmp_path / "dot"
    code, _ = run(capsys, "export-dot", "--in", str(out), "--out-dir",
                  str(dot_dir))
    assert code == 0
    files = sorted(os.listdir(dot_dir))
    assert len(files) == data["count"]
    text = (dot_dir / files[0]).read_text()
    assert text.startswith("digraph") and text.rstrip().endswith("}")


def test_delta_command(tmp_path, capsys):
    out = tmp_path / "basis.json"
    run(capsys, "enumerate", "--parity", "odd", "--order", "1",
        "--degree", "0", "--out", str(out))
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(json.loads(out.read_text())["graphs"][0]))
    code, text = run(capsys, "delta", "--in", str(gfile))
    assert code == 0
    payload = json.loads(text)
    assert payload["vector"]["terms"]


def test_cohomology_report(capsys):
    code, text = run(capsys, "cohomology", "--parity", "even", "--order",
                     "2", "--degree", "0")
    assert code == 0
    payload = json.loads(text)
    assert payload["dim_H"] == 1
    assert payload["version"]
    assert payload["basis_ordering"]


def test_verify_suite_pass_and_determinism(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["verify", "--suite", "dsquared",
                 "--report", str(r1)]) == 0
    assert main(["verify", "--suite", "dsquared",
                 "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    payload = json.loads(r1.read_text())
    assert payload["passed"] is True
    assert payload["tool"] == "circlegc"


def test_weight_and_astu_dim(tmp_path, capsys):
    dfile = tmp_path / "d.json"
    dfile.write_text(json.dumps({"chords": [[1, 3], [2, 4]],
                                 "mark": None}))
    code, text = run(capsys, "weight", "--gl", "--diagram", str(dfile))
    assert code == 0
    assert json.loads(text)["weight"] == {"1": 1}
    code, text = run(capsys, "astu-dim", "--k", "3")
    assert code == 0
    assert json.loads(text)["dim"] == 3


def test_faces_audit(tmp_path, capsys):
    out = tmp_path / "basis.json"
    run(capsys, "enumerate", "--parity", "odd", "--order", "2",
        "--degree", "0", "--out", str(out))
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(json.loads(out.read_text())["graphs"][0]))
    code, text = run(capsys, "faces", "--audit", str(gfile), "--n", "5")
    assert code == 0
    payload = json.loads(text)
    assert payload["ok"] and payload["principal_match"]


def test_unknown_flags_exit_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--bogus"])
    assert exc.value.code != 0


def test_basis_cache_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CIRCLEGC_BASIS_CACHE", str(tmp_path / "cache"))
    code, first = run(capsys, "enumerate", "--parity", "even", "--order",
                      "2", "--degree", "0")
    assert code == 0
    assert os.listdir(tmp_path / "cache")
    code, second = run(capsys, "enumerate", "--parity", "even", "--order",
                       "2", "--degree", "0")
    assert code == 0
    assert first == second


def _cache_file(tmp_path):
    (path,) = (tmp_path / "cache").iterdir()
    return path


def test_basis_cache_stale_version_recomputes(tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.setenv("CIRCLEGC_BASIS_CACHE", str(tmp_path / "cache"))
    argv = ("enumerate", "--parity", "odd", "--order", "2", "--degree", "0")
    code, fresh = run(capsys, *argv)
    assert code == 0
    path = _cache_file(tmp_path)
    data = json.loads(path.read_text())
    data["version"] = "0.0.0-stale"
    data["graphs"] = data["graphs"][:1]
    path.write_text(json.dumps(data))
    code, again = run(capsys, *argv)
    assert code == 0
    assert again == fresh
    assert json.loads(path.read_text())["version"] != "0.0.0-stale"


def test_basis_cache_truncated_file_recomputes(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setenv("CIRCLEGC_BASIS_CACHE", str(tmp_path / "cache"))
    argv = ("enumerate", "--parity", "even", "--order", "2", "--degree", "0")
    code, fresh = run(capsys, *argv)
    assert code == 0
    path = _cache_file(tmp_path)
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    code, again = run(capsys, *argv)
    assert code == 0
    assert again == fresh
    assert path.read_text() == text
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [path.name]


def test_basis_cache_malformed_graphs_recompute(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setenv("CIRCLEGC_BASIS_CACHE", str(tmp_path / "cache"))
    argv = ("enumerate", "--parity", "odd", "--order", "2", "--degree", "0")
    code, fresh = run(capsys, *argv)
    assert code == 0
    path = _cache_file(tmp_path)
    text = path.read_text()
    spoiled = [lambda g: g.update(v_ext="x"),         # does not parse
               lambda g: g["edges"].reverse()]         # parses, not canonical
    for spoil in spoiled:
        data = json.loads(text)
        spoil(data["graphs"][-1])
        path.write_text(json.dumps(data))
        code, again = run(capsys, *argv)
        assert code == 0
        assert again == fresh
        assert path.read_text() == text


def _chord(**changes):
    """The odd single chord as ``delta --in`` reads it, with changes."""
    data = {"parity": "odd", "v_ext": 2, "v_int": 0, "small_loops": [],
            "crosses": [], "edges": [{"from": {"ext": 1}, "to": {"ext": 2},
                                      "oriented": True}]}
    data.update(changes)
    return json.dumps(data)


@pytest.mark.parametrize("text", [
    _chord(v_int=None),                                   # not an integer
    _chord(v_ext="x"),
    json.dumps({"parity": "odd", "v_ext": 2}),            # v_int missing
    _chord(edges=[{"from": {"ext": 1}, "to": {"int": 5}}]),   # v_int is 0
    _chord(edges=[{"from": {"ext": 1}, "to": {"ext": 1}}]),   # odd 1 -> 1
    "[1, 2]",
    '{"parity": "odd", ',                                 # truncated JSON
])
def test_delta_bad_input_exits_2_with_message(tmp_path, capsys, text):
    gfile = tmp_path / "g.json"
    gfile.write_text(text)
    assert main(["delta", "--in", str(gfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("circlegc: error: ")
    assert "Traceback" not in captured.err


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert main(["delta", "--in", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("circlegc: error: ")


@pytest.mark.parametrize("text", [
    "{}",                                                 # chords missing
    '{"chords": [[1, "x"]]}',
    "[1]",
    '{"chords": 5}',
    '{"chords": [[1, 2, 3]]}',
    '{"chords": [[true, 2]]}',                            # bools rejected
    '{"chords": [[1, 2]], "mark": "a"}',
    '{"chords": [[1, 3]]}',                               # 2 and 4 missed
])
def test_weight_bad_diagram_exits_2_with_message(tmp_path, capsys, text):
    dfile = tmp_path / "d.json"
    dfile.write_text(text)
    assert main(["weight", "--gl", "--diagram", str(dfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("circlegc: error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("text", ["5", '{"graphs": 5}'])
def test_export_dot_bad_input_exits_2_with_message(tmp_path, capsys, text):
    gfile = tmp_path / "g.json"
    gfile.write_text(text)
    assert main(["export-dot", "--in", str(gfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("circlegc: error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["cohomology", "--framed", "--underline"],
    ["cohomology", "--parity", "even", "--underline"],
    ["cohomology", "--parity", "even", "--framed"],
    ["enumerate", "--parity", "even", "--framed"],
], ids=["framed-underline", "even-underline", "even-framed",
        "enumerate-even-framed"])
def test_contradictory_flags_exit_2_with_message(capsys, argv):
    assert main(argv + ["--order", "2", "--degree", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("circlegc: error: ")
    assert "Traceback" not in captured.err


# SHA-256 of the fast verify reports, pinned before the coboundary
# operators were folded into one engine
VERIFY_DIGESTS = {
    "dsquared":
        "24579ac28e29b61b093f535074df1efd87527c2c7e6614cd4d86e855eff1a628",
    "cocycles":
        "86d47824cefab19ff62f877e632c843ed63771dd4db6190ce3cf8107ed2c3a92",
    "cohomology":
        "663437d157d4f49c3c0674a5d8c74481ffd7c4f3949b7112aab07bbfea4bd502",
    "framed":
        "1e3b50cad86d0412465e63a2356e5abb3536ed7754e3f48383955b99db410d0a",
    "faces":
        "c3b91ae36a4698bbd14673649a42d241cf81365c5784e5c001c6a6aca1d8b3b1",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
def test_verify_report_bytes_are_pinned(tmp_path, suite):
    report = tmp_path / "r.json"
    assert main(["verify", "--suite", suite, "--report", str(report)]) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == VERIFY_DIGESTS[suite]


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, circlegc.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"
