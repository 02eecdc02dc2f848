"""Face taxonomy, degree bounds, and exhaustive subgraph audits."""

import hashlib
from fractions import Fraction
from functools import partial

import pytest

from circlegc.coboundary import ContractionSite
from circlegc.graphs import ODD, EVEN, DecoratedGraph
from circlegc.enumeration import basis
from circlegc.faces import (PRINCIPAL_CONTRIBUTION, TYPE_I, TYPE_II,
                            TYPE_III, UNRESOLVED, ZERO_BY_LEMMA_3,
                            FaceDescriptor, admissible_subgraphs,
                            audit_graph, classify_subgraph,
                            degree_lower_bound, fiber_dim, is_hidden,
                            is_principal, vanishing_threshold)
from circlegc.verification import _bases

TRIPOD = DecoratedGraph(ODD, 3, 1, ((1, 4), (2, 4), (3, 4)))
CROSSING = DecoratedGraph(ODD, 4, 0, ((1, 3), (2, 4)))


def test_descriptor_invariants():
    with pytest.raises(ValueError):
        FaceDescriptor(TYPE_I, 0, 1, 5)
    with pytest.raises(ValueError):
        FaceDescriptor(TYPE_II, 0, 0, 5)
    with pytest.raises(ValueError):
        FaceDescriptor(TYPE_III, 0, 2, 5)
    with pytest.raises(ValueError):
        FaceDescriptor(TYPE_III, 1, 0, 5)
    with pytest.raises(ValueError):
        FaceDescriptor(TYPE_I, 0, 2, 2)


def test_fiber_dim_pinned():
    for n in range(3, 11):
        assert fiber_dim(FaceDescriptor(TYPE_I, 0, 2, n)) == n - 1
    assert fiber_dim(FaceDescriptor(TYPE_III, 2, 0, 5)) == 0
    assert fiber_dim(FaceDescriptor(TYPE_III, 1, 1, 5)) == 4


def test_fiber_dim_monotone_in_s():
    for n in (3, 5, 8):
        for r in (0, 1, 3):
            dims = []
            for s in range(2, 6):
                ft = TYPE_I if r == 0 else TYPE_III
                dims.append(fiber_dim(FaceDescriptor(ft, r, s, n)))
            assert dims == sorted(dims) and len(set(dims)) == len(dims)


def test_principal_classification():
    assert is_principal(FaceDescriptor(TYPE_I, 0, 2, 5))
    assert is_principal(FaceDescriptor(TYPE_II, 0, 1, 5))
    assert is_principal(FaceDescriptor(TYPE_III, 1, 1, 5))
    assert is_principal(FaceDescriptor(TYPE_III, 2, 0, 5))
    assert is_hidden(FaceDescriptor(TYPE_III, 2, 1, 5))
    assert is_hidden(FaceDescriptor(TYPE_I, 0, 3, 5))
    assert is_hidden(FaceDescriptor(TYPE_II, 0, 2, 5))


def test_degree_lower_bound_pinned():
    assert degree_lower_bound(FaceDescriptor(TYPE_III, 3, 0, 4)) == \
        Fraction(7, 2)
    assert degree_lower_bound(FaceDescriptor(TYPE_I, 0, 3, 5)) == 9
    # at n = 3 the type III bound meets the threshold exactly
    fd = FaceDescriptor(TYPE_III, 3, 0, 3)
    assert degree_lower_bound(fd) == vanishing_threshold(fd) == 2


def test_hidden_bounds_strict_for_n_above_3():
    for n in range(4, 11):
        for ft, rs in ((TYPE_I, range(3, 11)), (TYPE_II, range(2, 11))):
            for s in rs:
                fd = FaceDescriptor(ft, 0, s, n)
                assert degree_lower_bound(fd) > vanishing_threshold(fd)
        for r in range(1, 11):
            for s in range(0, 11 - r):
                if r + s < 3:
                    continue
                fd = FaceDescriptor(TYPE_III, r, s, n)
                assert degree_lower_bound(fd) > vanishing_threshold(fd)


def test_extended_thresholds():
    fd = FaceDescriptor(TYPE_III, 3, 0, 4)
    assert vanishing_threshold(fd) == 3
    assert vanishing_threshold(fd, extended=True) == 4
    # the parameter-dependent bound fails at n = 4
    assert not degree_lower_bound(fd) > vanishing_threshold(fd,
                                                            extended=True)

    def weak(n):
        """The r + s of the hidden type III faces in dimension n whose
        extended bound is not strict."""
        faces = [FaceDescriptor(TYPE_III, r, s, n)
                 for r in range(1, 11) for s in range(11 - r) if r + s >= 3]
        return sorted({fd.r + fd.s for fd in faces
                       if not degree_lower_bound(fd)
                       > vanishing_threshold(fd, extended=True)})

    # r + s = 3 stays non-strict at n = 5, met with equality; all faces
    # are strict from n = 6 on
    assert weak(4) == [3, 4]
    assert weak(5) == [3]
    fd5 = FaceDescriptor(TYPE_III, 2, 1, 5)
    assert degree_lower_bound(fd5) == vanishing_threshold(fd5, extended=True)
    assert weak(6) == []


def test_classify_bivalent_internal():
    # in the triangle graph the three internal vertices form a hidden
    # type I subgraph in which each of them is bivalent
    g = DecoratedGraph(ODD, 3, 3, ((1, 4), (2, 5), (3, 6), (4, 5),
                                   (5, 6), (6, 4)))
    for sg in admissible_subgraphs(g, 5):
        if sg.face_type == TYPE_I and set(sg.internals) == {4, 5, 6}:
            assert classify_subgraph(sg) == (ZERO_BY_LEMMA_3, None)
            break
    else:
        raise AssertionError("subgraph not found")


def test_principal_no_edge_external_pair():
    for sg in admissible_subgraphs(CROSSING, 4):
        if sg.face_type == TYPE_III and len(sg.externals) == 2 \
                and not sg.internals:
            site = ContractionSite("arc", sg.externals[0])
            assert classify_subgraph(sg) == (PRINCIPAL_CONTRIBUTION, site)


def test_audit_tripod():
    rep = audit_graph(TRIPOD, 5)
    assert rep.ok
    assert rep.verdict_counts.get(UNRESOLVED, 0) == 0


def test_audit_crossing_diagram():
    rep = audit_graph(CROSSING, 4)
    assert rep.principal_match
    kinds = [(s.kind, s.index) for s in sorted(
        rep.principal_sites, key=lambda s: s.index)]
    assert kinds == [("arc", 1), ("arc", 2), ("arc", 3), ("arc", 4)]


def test_audit_bases_order_up_to_3():
    for parity in (ODD, EVEN):
        for k in (1, 2, 3):
            for m in (0, 1, 2):
                for g in basis(parity, k, m):
                    assert audit_graph(g, 5).ok


def test_audit_n3_reports_unresolved():
    rep = audit_graph(TRIPOD, 3)
    assert rep.principal_match
    assert rep.unresolved
    assert all(sg.face_type == TYPE_III for sg in rep.unresolved)


def test_audit_rejects_low_dimension():
    with pytest.raises(ValueError):
        audit_graph(TRIPOD, 2)


def test_audits_through_order_4_are_pinned():
    """Every audit of an odd or even basis graph of order <= 4 (1,392
    graphs) at n = 3..6, without and with ``extended``, hashed in that
    order.  Only n = 3 and extended n = 4 and 5 leave faces unresolved;
    pinned before the subgraph walk was restated as one pass per face."""
    digest = hashlib.sha256()
    graphs = [g for parity in (ODD, EVEN) for k in range(1, 5)
              for b in _bases(partial(basis, parity), k).values()
              for g in b]
    assert len(graphs) == 1392
    for g in graphs:
        for n in (3, 4, 5, 6):
            for extended in (False, True):
                rep = audit_graph(g, n, extended=extended)
                unresolved = [(sg.face_type, sg.externals, sg.internals)
                              for sg in rep.unresolved]
                digest.update(repr((
                    rep.total, sorted(rep.verdict_counts.items()),
                    rep.principal_sites, rep.expected_sites, unresolved,
                    rep.ok)).encode())
    assert digest.hexdigest() == \
        "5f2b48109885d3ec63ea07cc653b48165121cad340896a83664ee2d87ba8f788"
