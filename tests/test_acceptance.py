"""Acceptance gate: the eleven headline checks, one pass/fail line each.

Every check runs in exact rational arithmetic with zero tolerance; the
detailed per-property coverage lives in the other test modules, while
this file asserts the headline criteria end to end.
"""

import hashlib
import os
import subprocess
import sys
import time

import pytest

from circlegc import verification as vf
from circlegc.enumeration import basis, framed_basis
from circlegc.graphs import ODD, EVEN, canonical_form


def _report(num, result):
    line = "criterion %02d (%s): %s" % (
        num, result["name"], "PASS" if result["passed"] else "FAIL")
    print(line)
    assert result["passed"], result["detail"]


def test_criterion_01_delta_squared_zero():
    start = time.monotonic()
    result = vf.criterion_dsquared()
    elapsed = time.monotonic() - start
    _report(1, result)
    assert result["detail"]["odd_order4_graphs"] > 0
    assert elapsed < 300


def test_criterion_02_order2_cocycle():
    _report(2, vf.criterion_order2_cocycle())


def test_criterion_03_order3_cocycles():
    _report(3, vf.criterion_order3_cocycles())


def test_criterion_04_h10_vanishes():
    _report(4, vf.criterion_h10_vanishes())


def test_criterion_05_chord_diagram_presence():
    _report(5, vf.criterion_chord_diagram_presence())


def test_criterion_06_chord_part_injective():
    _report(6, vf.criterion_chord_part_injective())


def test_criterion_07_framed_suite():
    _report(7, vf.criterion_framed_suite())


def test_criterion_08_astu_dimensions():
    _report(8, vf.criterion_astu_dimensions())


def test_criterion_09_gl_weights():
    _report(9, vf.criterion_gl_weights())


def test_criterion_10_faces_suite():
    _report(10, vf.criterion_faces_suite())


# SHA-256 of the "verify --suite all" report, pinned before graphs became
# tuples
ALL_DIGEST = \
    "8b84376c226a39648d8bd69278b34cef6f9ec2fc9c6eebb7ea278e74f49ea332"


def test_criterion_11_determinism(tmp_path):
    start = time.monotonic()
    reports = []
    # two fixed, distinct hash seeds: set and dict order must not leak
    for seed in ("0", "1"):
        path = tmp_path / ("r%s.json" % seed)
        proc = subprocess.run(
            [sys.executable, "-m", "circlegc.cli", "verify", "--suite",
             "all", "--report", str(path)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        reports.append(path.read_bytes())
    elapsed = time.monotonic() - start
    ok = reports[0] == reports[1] and elapsed < 900
    print("criterion 11 (determinism): %s" % ("PASS" if ok else "FAIL"))
    assert reports[0] == reports[1]
    assert hashlib.sha256(reports[0]).hexdigest() == ALL_DIGEST
    assert elapsed < 900


def test_determinism_criterion_recomputes_cold(monkeypatch):
    """The in-process determinism check can fail: a result that depends on
    the cache state differs, since the second computation starts with the
    canonical forms cold."""
    basis(ODD, 3, 1)                    # misses beyond the sub-report's own
    monkeypatch.setattr(vf, "criterion_h10_vanishes",
                        lambda: canonical_form.cache_info().misses)
    assert not vf.criterion_determinism()["passed"]


def _break_one_image(monkeypatch, name, sources):
    """Double the image under ``vf.<name>`` of one graph g that has a
    nonzero image and is a term of the image of a source graph f.  The
    square of the operator on f is then (coefficient of g) * image(g),
    which is not zero."""
    op = getattr(vf, name)
    g = next(h for f in sources for _, h in op(f).terms
             if not op(h).is_zero())

    def broken(x, *args, **kwargs):
        image = op(x, *args, **kwargs)
        return image.scaled(2) if x == g else image

    monkeypatch.setattr(vf, name, broken)


@pytest.mark.parametrize("k", [3, 4])
def test_dsquared_criterion_fails_on_a_broken_delta(monkeypatch, k):
    """Every graph is mapped twice through the criterion's memo, at
    order 3 as at order 4: both see the broken image."""
    _break_one_image(monkeypatch, "delta", basis(ODD, k, 0))
    result = vf.criterion_dsquared()
    assert not result["passed"]
    assert [ODD, k, 0] in result["detail"]["failures"]


def test_dsquared_criterion_builds_each_basis_once(monkeypatch):
    """One walk per complex: each (parity, k, m) basis the criterion reads,
    through the first empty degree above 2k, is built exactly once."""
    calls = []

    def counting_basis(parity, k, m):
        calls.append((parity, k, m))
        return basis(parity, k, m)

    monkeypatch.setattr(vf, "basis", counting_basis)
    assert vf.criterion_dsquared()["passed"]
    walks = [(p, k) for p in (ODD, EVEN) for k in (1, 2, 3)] + [(ODD, 4)]
    assert sorted(calls) == sorted((p, k, m) for p, k in walks
                                   for m in range(2 * k + 2))


@pytest.mark.parametrize("name, sources, check", [
    ("delta_framed", lambda: framed_basis(3, 0), "framed_dsquared"),
    ("delta_underline", lambda: basis(ODD, 3, 0), "underline_dsquared"),
], ids=["delta_framed", "delta_underline"])
def test_framed_criterion_fails_on_a_broken_operator(monkeypatch, name,
                                                     sources, check):
    _break_one_image(monkeypatch, name, sources())
    result = vf.criterion_framed_suite()
    assert not result["passed"]
    assert result["detail"][check]["failures"] > 0
