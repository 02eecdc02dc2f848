"""End-to-end command line checks via the in-process entry point."""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from circlegc import cli
from circlegc.cli import main
from circlegc.graphs import ODD, EVEN, DecoratedGraph
from circlegc.serialize import graph_text, graph_to_dict, vector_text


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


def test_enumerate_ignores_a_basis_cache_directory(tmp_path, capsys,
                                                   monkeypatch):
    """A file keyed for (odd, 2, 1) but holding the three (odd, 2, 0)
    graphs, in the directory a retired cache variable named, changes
    nothing: the basis is computed, and nothing is written there."""
    argv = ("enumerate", "--parity", "odd", "--order", "2", "--degree", "1")
    code, fresh = run(capsys, *argv)
    assert code == 0
    code, degree0 = run(capsys, "enumerate", "--parity", "odd", "--order",
                        "2", "--degree", "0")
    assert code == 0
    data = json.loads(degree0)
    assert data["count"] == 3
    data["degree"] = 1
    cache = tmp_path / "cache"
    cache.mkdir()
    planted = cache / "basis_odd_2_1.json"
    planted.write_text(json.dumps(data))
    monkeypatch.setenv("CIRCLEGC_BASIS_CACHE", str(cache))
    code, again = run(capsys, *argv)
    assert code == 0
    assert again == fresh
    assert json.loads(again)["count"] == 2
    assert list(cache.iterdir()) == [planted]
    assert json.loads(planted.read_text()) == data


@pytest.mark.parametrize("argv, count", [
    (["--parity", "odd", "--order", "2", "--degree", "1"], 2),
    (["--parity", "even", "--order", "3", "--degree", "1"], 17),
    (["--framed", "--order", "2", "--degree", "1"], 4),
    (["--framed", "--order", "1", "--degree", "3"], 0),
], ids=["odd", "even", "framed", "framed-empty"])
def test_enumerate_prints_the_bytes_it_writes(tmp_path, capsys, argv, count):
    out = tmp_path / "basis.json"
    code, printed = run(capsys, "enumerate", *argv, "--out", str(out))
    assert (code, printed) == (0, "")
    code, printed = run(capsys, "enumerate", *argv)
    assert code == 0
    assert printed == out.read_text()
    data = json.loads(printed)
    assert data["count"] == len(data["graphs"]) == count
    if not count:
        assert '"count":0' in printed and '"graphs":[]' in printed


def test_enumerate_writes_each_graph_before_the_next_dict(monkeypatch):
    """Graph i's text is in the stream before graph i + 1's dict and text
    are built, so the listing never holds every graph's text at once."""
    stream = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stream)
    built = []

    def text(g):
        if built:
            assert stream.getvalue().endswith(built[-1])
        built.append(graph_text(g))
        return built[-1]

    monkeypatch.setattr(cli, "graph_text", text)
    assert main(["enumerate", "--order", "3", "--degree", "1"]) == 0
    assert len(built) == json.loads(stream.getvalue())["count"] > 1


def test_failed_enumerate_creates_no_file(tmp_path, capsys):
    out = tmp_path / "basis.json"
    assert main(["enumerate", "--parity", "even", "--framed", "--order",
                 "2", "--degree", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("circlegc: error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--parity", "odd", "--order", "3", "--degree", "1"],
    ["--parity", "even", "--order", "3", "--degree", "0"],
    ["--underline", "--order", "2", "--degree", "0"],
    ["--framed", "--order", "1", "--degree", "3"],
], ids=["odd", "even", "underline", "framed-empty"])
def test_cohomology_prints_the_bytes_it_writes(tmp_path, capsys, argv):
    report = tmp_path / "report.json"
    code, printed = run(capsys, "cohomology", *argv, "--report", str(report))
    assert (code, printed) == (0, "")
    code, printed = run(capsys, "cohomology", *argv)
    assert code == 0
    assert printed == report.read_text()
    data = json.loads(printed)
    assert len(data["cocycles"]) == data["dim_kernel"]


def test_cohomology_writes_each_cocycle_before_the_next_dict(monkeypatch):
    """Cocycle i's text is in the stream before cocycle i + 1's text is
    built, so the report never holds every cocycle's text at once."""
    stream = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stream)
    built = []

    def text(v, graph_text):
        if built:
            assert stream.getvalue().endswith(built[-1])
        built.append(vector_text(v, graph_text))
        return built[-1]

    monkeypatch.setattr(cli, "vector_text", text)
    assert main(["cohomology", "--order", "3", "--degree", "1"]) == 0
    assert len(built) == json.loads(stream.getvalue())["dim_kernel"] > 1


def test_failed_cohomology_creates_no_file(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["cohomology", "--parity", "even", "--underline", "--order",
                 "2", "--degree", "0", "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith("circlegc: error: ")
    assert not report.exists()


# nested past the decoder's recursion limit: a RecursionError, not a
# JSONDecodeError, inside json.load
DEEP_JSON = "[" * 5000


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
    pytest.param(DEEP_JSON, id="deeply-nested"),
])
def test_delta_bad_input_exits_2_with_message(tmp_path, capsys, text):
    gfile = tmp_path / "g.json"
    gfile.write_text(text)
    assert main(["delta", "--in", str(gfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("circlegc: error: ")
    assert "Traceback" not in captured.err


# an internal vertex of valence 2: malformed, not zero by the relations
VALENCE_TWO = json.dumps({
    "parity": "odd", "v_ext": 2, "v_int": 1,
    "edges": [{"from": {"ext": 1}, "to": {"int": 1}, "oriented": True},
              {"from": {"int": 1}, "to": {"ext": 2}, "oriented": True}]})

# the same defect beside a doubled chord 1 -> 3: malformed and also zero
VALENCE_TWO_DOUBLED = json.dumps(graph_to_dict(DecoratedGraph(
    ODD, 3, 1, ((1, 4), (4, 2), (1, 3), (1, 3)))))


@pytest.mark.parametrize("argv", [["delta", "--in"],
                                  ["faces", "--n", "5", "--audit"],
                                  ["export-dot", "--in"]],
                         ids=["delta", "faces", "export-dot"])
def test_malformed_graph_exits_2_with_message(tmp_path, capsys, argv):
    gfile = tmp_path / "g.json"
    for text, vertex in ((VALENCE_TWO, 3), (VALENCE_TWO_DOUBLED, 4)):
        gfile.write_text(text)
        assert main(argv + [str(gfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("circlegc: error: invalid graph: internal "
                                "vertex %d has valence 2 < 3\n" % vertex)


@pytest.mark.parametrize("argv", [["delta", "--in"],
                                  ["faces", "--n", "5", "--audit"],
                                  ["export-dot", "--in"]],
                         ids=["delta", "faces", "export-dot"])
@pytest.mark.parametrize("changes", [{"v_int": 10 ** 13},
                                     {"v_int": 200000},
                                     {"v_ext": 10 ** 13}],
                         ids=["v_int-huge", "v_int-large", "v_ext-huge"])
def test_oversized_vertex_counts_exit_2_with_one_line(tmp_path, capsys,
                                                      argv, changes):
    """Counts no edge set of the graph can meet are refused before any
    per-vertex work, in one short line."""
    gfile = tmp_path / "g.json"
    gfile.write_text(_chord(**changes))
    assert main(argv + [str(gfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("circlegc: error: ")
    assert captured.err.count("\n") == 1 and len(captured.err) < 200
    assert "Traceback" not in captured.err


# well-formed graphs that are zero by the relations
ZERO_GRAPHS = {
    "doubled-chord": DecoratedGraph(ODD, 2, 0, ((1, 2), (1, 2))),
    "doubled-edge": DecoratedGraph(
        ODD, 4, 1, ((1, 5), (1, 5), (2, 5), (3, 5), (4, 5))),
    "odd-internal-loop": DecoratedGraph(
        ODD, 3, 1, ((1, 4), (2, 4), (3, 4)), ((4, 0, 0),)),
    "even-internal-loop": DecoratedGraph(
        EVEN, 3, 1, ((1, 4), (2, 4), (3, 4), (4, 4))),
}


def test_delta_of_a_graph_zero_by_the_relations(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    for name, g in ZERO_GRAPHS.items():
        gfile.write_text(json.dumps(graph_to_dict(g)))
        # the framed complex is odd
        ops = ("regular", "underline") + (("framed",) if g.parity == ODD
                                          else ())
        for op in ops:
            code, text = run(capsys, "delta", "--in", str(gfile), "--op", op)
            assert code == 0, (name, op)
            assert json.loads(text)["vector"]["terms"] == [], (name, op)


def test_export_dot_draws_a_graph_zero_by_the_relations(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    chord = {"from": {"ext": 1}, "to": {"ext": 2}, "oriented": True}
    gfile.write_text(_chord(edges=[chord, chord]))       # a doubled chord
    code, text = run(capsys, "export-dot", "--in", str(gfile))
    assert code == 0
    assert text.startswith("digraph") and text.rstrip().endswith("}")


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
    '{"chords": [], "mark": 3}',                          # no arc to mark
    pytest.param(DEEP_JSON, id="deeply-nested"),
])
def test_weight_bad_diagram_exits_2_with_message(tmp_path, capsys, text):
    dfile = tmp_path / "d.json"
    dfile.write_text(text)
    assert main(["weight", "--gl", "--diagram", str(dfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("circlegc: error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("text", [
    "5", '{"graphs": 5}', pytest.param(DEEP_JSON, id="deeply-nested")])
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


# SHA-256 of the verify reports, pinned before the coboundary operators
# were folded into one engine ("weights" before graphs became tuples)
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
    "weights":
        "916b8b67cb620fb5a183027cb8de463cc8dff272c62f0404900345c1d61018d5",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
def test_verify_report_bytes_are_pinned(tmp_path, suite):
    report = tmp_path / "r.json"
    assert main(["verify", "--suite", suite, "--report", str(report)]) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == VERIFY_DIGESTS[suite]


# SHA-256 of the reports over the order-4 table, degrees 0..7, pinned
# before graphs became tuples
ORDER4_DIGESTS = {
    ("cohomology", "even"): [
        "0520fab300881b0633211c67eade75035629d1ce2e766456997d7901954f3327",
        "7f3a724cc2b4438a041329592762e3bee05b77238df90044854702f6c0881a46",
        "591ecfca4fcf9f134229dd9341b97bf864a04e1b0160d1b89c7f61aa3acf2e3c",
        "901deb40c9c9d056d2141b1789de5361bf751ad019b59aaf0f06750abbf97633",
        "6583d01e08ea94394404704d74a8679498472cee4f8207e9f30f607720ddfca3",
        "06a47fd136785f436f525c93fe4aeee6196c5e020a43461b9aa593cdeeb8f72b",
        "9cef46d586af95589728ecd54195a624b06981874062233c756abd399a070a84",
        "71edf45671f9aa3c7dc60e8828ffd7574f5cbbd9f4c0d1e442091bf9b0bd5583",
    ],
    ("cohomology", "odd"): [
        "9b9cf5be37d5bcc0cf1a7e60fc66b3e32a4b210e679b9ce7b719b6c69096d9ca",
        "0f1a9df7b5ce78f6037d6344849ef3bc6a7f43026c50f33d04b761e3b2977dce",
        "82cade1e356ac440568fae954f47511bdaa1682244f604f01aad9a4fa7dae3aa",
        "4ff6306fc48d51e379627aac95df2a7011755fcf205f022664e811f391b919cd",
        "5e8e2e40fe2a6cc1991c18fdd3a534c378b3cb7a022e1805c3297f285e39499b",
        "df37e879597ebe4b33d0275b7ab74e53b51d6205dd6114a6dd77f5ed671a44c7",
        "f2db7c0652e50facc9d8532e5668962a66fda77d2cee1038d8ac6472ff71a9a0",
        "bd6c5988721a5e6b32d1bc785e7bd93bc3e2d3cc45606862da9c0497f58fee5d",
    ],
    ("enumerate", "even"): [
        "b1d593a95c48a344fee03af2c9dbb91bfd215f773bab5e4fba41fb22793a5891",
        "6193451f330570f7494f843dcd1a0a46fa95dd86e25670404e4b7200a39f7b3a",
        "22520d4831a570391edd1e18481bfe6b66e3c9d44284a266855f1f7ed22c3647",
        "17fb2782729af2d94739d4cfde54d951d1ac850a4f2bc3323bb061748aef3ff9",
        "7b41f0e5519cd7dab69bbf055554715e5c2d36baf750d342aecdeb31715aaee5",
        "66292b5f1b049c9ebf0dc64909739d01c4e1942c135b7ba4169df9ccfdbbad2c",
        "68328fb3c7196f493c451e1338e64c2425a6863e45aa72816454ee2e9a246a5d",
        "677c6fab7b266514e0a93aae660b454d5ca0aeea161a324b29e97f9e03081001",
    ],
    ("enumerate", "odd"): [
        "0aa623297dae3fac701418e308db4f77de9c492cf0d94b069fee5c60c2a8b149",
        "f4dfb2102a6af218146c4af15d5091f69d8fa40d1d4d398ac3b6071ca47e67fd",
        "464ce72b22b471437531045f56f310bd0c28953da4fceeb39e6909a02f10abd1",
        "2413a7acbfcc67a93cf46bdb87e4d972aa24b28f5aa2a2152af694c3fce00a81",
        "6c7271488128be79d3485340cd84f5e6b636f858ea7c6619fed6bc52929562b0",
        "9c78a9c586802b0f16b5d73e8fd93088f0b47374bc5f496a3291530eddb6e895",
        "339f7dca183f924768ad79cda2a0975d099294e10f192955870221a75fe8ba6e",
        "5d6771192c7ca56f3729d1843b5620d0f32ba07086016a91a67c742d891feae3",
    ],
}


@pytest.mark.parametrize("command, parity", sorted(ORDER4_DIGESTS))
def test_order4_report_bytes_are_pinned(tmp_path, command, parity):
    flag = "--out" if command == "enumerate" else "--report"
    digests = []
    for m in range(8):
        report = tmp_path / ("%d.json" % m)
        assert main([command, "--parity", parity, "--order", "4",
                     "--degree", str(m), flag, str(report)]) == 0
        digests.append(hashlib.sha256(report.read_bytes()).hexdigest())
    assert digests == ORDER4_DIGESTS[command, parity]


# SHA-256 of the framed and underline cohomology reports, orders 1..3 at
# degrees 0..2k+1, pinned before the report took its basis ordering from
# the matrix the cohomology was computed on
COMPLEX_COHOMOLOGY_DIGESTS = {
    ("--framed", 1): [
        "9b117939c35339a93b9c8f6aabf45da4c2c21afb7f48f3c8df4b8da97a0fdab2",
        "9c512d16a1037af1a34a4e65f72d748ba1317916e00b39e42dceaf8bf72fa535",
        "46c83f99ee165e340f07317d27246fb260308239199772125fa08387c7632403",
        "a9e0172a2177094a07920e85f809b975b724873d0c6ad5ebeb62fe0816cce574",
    ],
    ("--framed", 2): [
        "0977dc15035d841d5e14ad9b4a76238fe3fb604656802440e2ded02441e807b3",
        "9f4146769b0ca1f324475b82325edcf5e3f2bba5fc28dcc6e1fc8089a0b00a2b",
        "963077e1f0a14986c033b1cf448c39d2d81aac1ac1c6230e6f4485d5a2147204",
        "b2df3126e6e419babbf476241198eaac9ae4f91f28e35f04f1b22d1bfb6e8096",
        "393d3d88638502095ec0ac5e9a36ec39486ff90e2074c7c71d6bbac6f4bf3f00",
        "bfacd6dc194a3ca5e55af87187a306161938e1b78accfe733295ed46dc2a3628",
    ],
    ("--framed", 3): [
        "f40071c4137f348833d84c1af839359d18bff23e6ce94e74f5a849448d22394f",
        "1408bf902353cda05199c7531338615278739aecbe4775077ad50acad6b75433",
        "4d7dd55c6eb9d043f1dbc1d74d0654fe5f0721a91e10fc4839231dc6b5876ae2",
        "041df4564140913067bbead26d9387164441e681b812c2e1ea03c976f7220f2f",
        "a96d4745e05da7242d897fc9b1204d6cde725c6e977f13162a632c301316f6c1",
        "5663f42b6369e7b8c383e839789832356f65822377945bde2c47b44279a63228",
        "ebc5d3928db73cee121693c09ceacd89bd1d5a5a984cb17e5b9faab46b5af390",
        "3dcbc5f88256f4a788c918ac6388c23a858419b97ac2ad4a6b1cff172a94c02e",
    ],
    ("--underline", 1): [
        "3b04a37681b313a191c52dd27dfb621c3864fd16765c2bd8cbae15a0462600c8",
        "d13444f4d69b2e80c7193913acdb4876cc7576a07137288a71cc8cd9da3844c6",
        "a50c70f936579501554dea44949cdaddfc5735def7daa497f9a7d955fb19f0dc",
        "2df429262da97c2d8e9fe727183c65d5d22e5790eac7e2216be76943ac8074ce",
    ],
    ("--underline", 2): [
        "e521cc9768351ff9bf08d870e41a273bc40425bc259533da2bd3b3642578136d",
        "ccbdc29611cae8acdd1f616e66fa963873e2de71a33798fd57d88750aad835d9",
        "92b6f82573510990a35e4dc6404002b86ff3564fa9b37732f01f49a31cf87ec6",
        "50ed9e4ecd681824f4087ac56a49e66e84f9406508f8cf6dd5c339fbbedcd6a4",
        "a706eab4f28d50d4fee2a08ae34cbd56c17835630528b940b9ca9a3e03b335c0",
        "c7518ac5f71a86b72f973cfc7cf46533e4e91d921296c1b422891cd603279b35",
    ],
    ("--underline", 3): [
        "fd32adfae0d14b6bb723e613d6aa6ffdda7c5f590f34b201c591a0783585b5cd",
        "4309f887f0ec6686964f531fdaf0f1fd74d50a44745839eeabe526a832effb10",
        "79aea14087986c2775f6d36fafc6fea968ebc6dcd5452ccbf5bcf781a4aca031",
        "d8921fcc811441e79e84411fb22bc935db8b22596c1181789a6f5b1835430230",
        "3059d286dd186640fe9ec68f97b64d35e593df0b7a6236277d0521de93b1ad1e",
        "d409e438cf98eca213d44977ce334afe5235e84dde2095a73be8c9d1abfc0531",
        "2abeb312b62d7cae86f6ba1d8bc4396713ff34e8bcf2297f7d91005d454c1260",
        "7c7ed9911b7b079c7fc4111fda7175fc2173c7939bd879f1ebd3d2836fd95cdd",
    ],
}


@pytest.mark.parametrize("flag, k", sorted(COMPLEX_COHOMOLOGY_DIGESTS))
def test_complex_cohomology_report_bytes_are_pinned(tmp_path, flag, k):
    digests = []
    for m in range(2 * k + 2):
        report = tmp_path / ("%d.json" % m)
        assert main(["cohomology", flag, "--order", str(k), "--degree",
                     str(m), "--report", str(report)]) == 0
        digests.append(hashlib.sha256(report.read_bytes()).hexdigest())
    assert digests == COMPLEX_COHOMOLOGY_DIGESTS[flag, k]


# SHA-256 of the framed basis listings, orders 1..3 at degrees 0..2k+1,
# pinned before enumerate wrote its listing one graph at a time
FRAMED_ENUMERATE_DIGESTS = {
    1: [
        "97e725d08729772d000c7835fae728bfbf9d1cf99836f8666b702148da2e01a0",
        "8758b87751ee7fa9067eb10e2fc37b6d1696228f809be868aff99db9c4c3d984",
        "92dcc63e7db8da77a33db5b9d1391c30fcd674ae32c8198c768bd08068cb30b4",
        "39e05fde2c0fa37644aa1aef933df62dfb044250941c6b32b563c132bf6e368f",
    ],
    2: [
        "cd6883b3a9e08832581db153e983eb005c028f1cfeb4549b2b2441350a2d9127",
        "725744a8f037d723fedbdce65c15de043535809d21f3c68a455885e916c6bb9d",
        "3cbaac900d0a659a9a81ddc22e9b10cf56956e269f67d8137679c02e42d1425e",
        "65b0feb5460c57fd94644452a4dd19477673d6074d878145dd0d1f7f5910b2f5",
        "479fc7c477090d1e3a963124c3379aa2f1e39e3775d157eb1a5304193edf5658",
        "7e17ba6079672efa7efcf7ae33f2b880f988be7c5a7431df24bc2320878e54a0",
    ],
    3: [
        "94620fb67f2c4a12f2301cd133d75fef51c0411b9b2b5a5229b5cea6bdbe3c80",
        "a0fbfdaa8a000f2bed9e4ca5e17d4cf81b4d545e897e7a37365d2be15bd77a10",
        "78bd6538e12f0c5cf03cf5e7dedb3356ab8ae9ebbe1bcbdc3947952fa68450fe",
        "07632bfb8c9ff0aa442ecc180bfeae7249987b756bb0da9c9d01420770824a93",
        "a9f5bac633c6ac0c8c68a8bec2f7cbdc06adb8865fab6bee13777f7fbf3dd620",
        "4f03a35654c8fc342bb15302bb13f8253353a7c6d1ac63ab2462acd7a7616d5b",
        "0b45a4d5b8c8761f050061bc6414cf0770fc8b7d9951538b0f8ff99f144084e1",
        "c755c94a30b8b9517f61d76cd0883f1611f19d0b0161369b7d1e77087116046c",
    ],
}


@pytest.mark.parametrize("k", sorted(FRAMED_ENUMERATE_DIGESTS))
def test_framed_enumerate_report_bytes_are_pinned(tmp_path, k):
    digests = []
    for m in range(2 * k + 2):
        report = tmp_path / ("%d.json" % m)
        assert main(["enumerate", "--framed", "--order", str(k), "--degree",
                     str(m), "--out", str(report)]) == 0
        digests.append(hashlib.sha256(report.read_bytes()).hexdigest())
    assert digests == FRAMED_ENUMERATE_DIGESTS[k]


# SHA-256 of the order-5 enumerate reports at degrees 3..7, the ones the
# perfbench enumerate-o5 workload writes, pinned before the shape search
# compared leading rows
ORDER5_ENUMERATE_DIGESTS = {
    "even": [
        "67b3c27a6937c6f44c2814798431354d9e587324026d743133113e8a8045ac2c",
        "13c936e4a73b424619a73be82e2d930debea2233d0bca0ec43305b6457fec7fc",
        "f5280dc470b68b10212656f0348b0b15c916f2de747414fba53a8406506aa7df",
        "5a7670d981f5c269e3f77b368c376cda4a0562f3cdf7232b7c0755f4560b6db5",
        "59ec046add9f9389bb3bdbdc47c2cc466b2535717941063bbd608489bac67b00",
    ],
    "odd": [
        "97ca0ee925a07136f83d90a704ca3b9d757e3701838a49017fd15f6bf1b42e45",
        "24913dfc29b7b7df1a349063384c7f374ac8dab4aaac1fee401fc34df8f874e9",
        "d4be22d293d04a954676e3f1b2977a7575ab59228244d30ec2afa7f0038dab12",
        "a6b8c23fad9cb3f2523e827bac6b70ea0c882e62c395d95aeac8317ab02b202b",
        "8140ebfe1ad486079812b3842a2dc9b1f69b022d5b6cda1758d5bb363951e231",
    ],
}


@pytest.mark.parametrize("parity", sorted(ORDER5_ENUMERATE_DIGESTS))
def test_order5_enumerate_report_bytes_are_pinned(tmp_path, parity):
    digests = []
    for m in range(3, 8):
        report = tmp_path / ("%d.json" % m)
        assert main(["enumerate", "--parity", parity, "--order", "5",
                     "--degree", str(m), "--out", str(report)]) == 0
        digests.append(hashlib.sha256(report.read_bytes()).hexdigest())
    assert digests == ORDER5_ENUMERATE_DIGESTS[parity]


# SHA-256 of the order-5 cohomology reports at degrees 0, 5, 6 and 7,
# pinned before the report was written one cocycle at a time; degrees
# 1..4 take 6-63 s each and stay out of this tier
ORDER5_COHOMOLOGY_DIGESTS = {
    "even": {
        0: "6b1c69f99cc82dac25fd74ce34d75527b6beeb37f33ae8443613f24e974f5ab8",
        5: "753bc7fe7e4514b6445588e5190816f5561feefc2d096065030da775e1587040",
        6: "66e0fc7fa6c2b50f6346171576a34406646dc3d4493455d75b2843f832c70fc6",
        7: "0dd501f599fcf2239e628e72a4a6ea38f08da4886a324d9a538431eec9ebc549",
    },
    "odd": {
        0: "051ecf39438cdc4edf47f80657a9489f2211347424274ac90bb959774470ee44",
        5: "0559e6c238bdc3e5f10a79466c4a17ecddcc22c3b1c1043bd41ac8db66b01fef",
        6: "c7b7f18052d1a18fbd2a2dea26a44d904076db5b448a1116114b5e1d9fea8f6d",
        7: "d463fe081865fc7729e0ebaf0377fb94c84ee5e120bc43e35b49c4c446899d9e",
    },
}


@pytest.mark.parametrize("parity", sorted(ORDER5_COHOMOLOGY_DIGESTS))
def test_order5_cohomology_report_bytes_are_pinned(tmp_path, parity):
    digests = {}
    for m in ORDER5_COHOMOLOGY_DIGESTS[parity]:
        report = tmp_path / ("%d.json" % m)
        assert main(["cohomology", "--parity", parity, "--order", "5",
                     "--degree", str(m), "--report", str(report)]) == 0
        digests[m] = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digests == ORDER5_COHOMOLOGY_DIGESTS[parity]


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, circlegc.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"
