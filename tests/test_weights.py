"""Chord diagram weight systems: gl(N) evaluations, STU reduction, and
the quotient dimensions, checked against matrix oracles."""

import hashlib
import itertools

import numpy as np
import pytest

from circlegc.graphs import ODD
from circlegc.enumeration import basis
from circlegc.framed import delta_underline
from circlegc.homology import delta_matrix
from circlegc.weights import (ChordDiagram, WeightPolynomial,
                              _stu_expansions, a_space_dim,
                              chord_diagram_basis, gl_weight,
                              gl_weight_by_traces)


def test_gl_weight_empty_diagram():
    assert gl_weight(ChordDiagram(())).coeffs == {1: 1}


def test_gl_weight_one_chord():
    assert gl_weight(ChordDiagram(((1, 2),))).coeffs == {2: 1}


def test_gl_weight_nonzero_up_to_four_chords():
    for k in range(5):
        for d in chord_diagram_basis(k):
            assert gl_weight(d).coeffs


def test_gl_weight_matches_trace_oracle():
    for k in range(4):
        for d in chord_diagram_basis(k):
            w = gl_weight(d)
            for N in (2, 3, 4):
                assert w.evaluate(N) == gl_weight_by_traces(d, N)


def _gl_weight_by_traces_loop(d: ChordDiagram, N: int) -> int:
    """Evaluate the gl(N) weight by literal matrix traces.

    Each chord sums E_ij at one endpoint against E_ji at the other; the
    circle multiplies the inserted matrices in cyclic order and takes
    the trace.  Brute force over all index assignments, as a slow
    independent check of ``gl_weight``.
    """
    n = d.num_points
    if n == 0:
        return N          # trace of the identity: the bare circle
    first = {}
    second = {}
    for c, (a, b) in enumerate(d.chords):
        first[a] = c
        second[b] = c
    units = np.zeros((N, N, N, N), dtype=np.int64)
    for i in range(N):
        for j in range(N):
            units[i, j, i, j] = 1
    total = 0
    for assign in itertools.product(range(N), repeat=2 * len(d.chords)):
        mat = np.eye(N, dtype=np.int64)
        for p in range(1, n + 1):
            if p in first:
                i, j = assign[2 * first[p]], assign[2 * first[p] + 1]
            else:
                j, i = assign[2 * second[p]], assign[2 * second[p] + 1]
            mat = mat @ units[i, j]
        total += int(np.trace(mat))
    return total


def test_batched_trace_oracle_equals_loop_oracle():
    """The batched oracle is the loop over assignments, one matmul at a
    time, done for all assignments at once; the loop is the reference."""
    checks = 0
    for k in range(4):
        for d in chord_diagram_basis(k):
            for N in (2, 3):
                assert gl_weight_by_traces(d, N) == \
                    _gl_weight_by_traces_loop(d, N)
                checks += 1
    assert checks == 18


def _tripod_expansion():
    """The STU expansion of the tripod through its first leg.  The tripod,
    with legs on points 1, 2, 3 and no chords, is the only one-vertex
    graph of degree 2."""
    (tripod,) = _stu_expansions(2)
    return tripod[0]


def _tripod_weight() -> WeightPolynomial:
    """The tripod's gl(N) weight through one STU step at its first leg."""
    w = WeightPolynomial()
    for s, d in _tripod_expansion():
        w = w + gl_weight(d).scaled(s)
    return w


def test_tripod_weight():
    assert _tripod_weight().coeffs == {3: 1, 1: -1}          # N^3 - N


def test_tripod_weight_structure_constant_oracle():
    """The tripod contracts one structure constant against three
    defining-representation insertions; with the orientation reading
    the circle legs as (a, c, b) inside the commutator the matrix
    computation reproduces N^3 - N."""
    w = _tripod_weight()
    for N in (2, 3):
        units = {}
        for i in range(N):
            for j in range(N):
                m = np.zeros((N, N), dtype=np.int64)
                m[i, j] = 1
                units[(i, j)] = m
        total = 0
        for a in units:
            for b in units:
                for c in units:
                    da, db, dc = units[a], units[b], units[c]
                    # duals pair E_ij with E_ji under the trace form
                    ta = units[(a[1], a[0])]
                    tb = units[(b[1], b[0])]
                    tc = units[(c[1], c[0])]
                    f = np.trace(ta @ (tc @ tb - tb @ tc))
                    if f:
                        total += int(f) * int(np.trace(da @ db @ dc))
        assert total == w.evaluate(N)


def test_stu_resolution_of_tripod():
    terms = _tripod_expansion()
    assert sorted(c for c, _ in terms) == [-1, 1]
    diagrams = {d.canonical() for _, d in terms}
    assert len(diagrams) == 2
    for d in diagrams:
        assert len(d.chords) == 2


def test_a_space_dims():
    # Bar-Natan, "On the Vassiliev knot invariants", Topology 1995
    assert [a_space_dim(k) for k in range(1, 7)] == [1, 2, 3, 6, 10, 19]


def test_chord_diagram_basis_sizes():
    assert [len(chord_diagram_basis(k)) for k in range(5)] == \
        [1, 1, 2, 5, 18]


def test_underline_cocycles_carry_weighted_chord_diagrams():
    # every short-chord-free degree-0 cocycle contains a chord diagram,
    # and all gl(N) weights are nonzero monomials
    for k in (2, 3):
        src = basis(ODD, k, 0)
        mat = delta_matrix(src, basis(ODD, k, 1), op=delta_underline)
        for vec in mat.kernel():
            diagrams = [src[j] for j in vec if src[j].v_int == 0]
            assert diagrams
            for g in diagrams:
                chords = tuple(tuple(sorted(e)) for e in g.edges)
                assert gl_weight(ChordDiagram(chords)).coeffs


def test_chord_diagram_validation():
    with pytest.raises(ValueError):
        ChordDiagram(((1, 2), (2, 3))).validate()
    with pytest.raises(ValueError):
        ChordDiagram(((1, 2),), mark=5).validate()
    with pytest.raises(ValueError):
        ChordDiagram((), mark=1).validate()     # no arc to mark
    ChordDiagram(()).validate()


def test_stu_relations_are_pinned():
    """The STU expansion of every one-vertex graph through each of its
    legs, k = 2..5, in generation order: the signs and the chords."""
    digest = hashlib.sha256()
    graphs = 0
    for k in range(2, 6):
        for expansions in _stu_expansions(k):
            graphs += 1
            digest.update(repr([[(s, d.chords) for s, d in e]
                                for e in expansions]).encode())
    assert graphs == 1376
    assert digest.hexdigest() == \
        "386b33bb3dd93e22de3e55130dc1d26880251292b3a638176c51da0a525418fe"
