"""End-to-end command line checks via the in-process entry point."""

import json
import os

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
