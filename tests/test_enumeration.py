"""Basis generation: completeness properties and pinned memberships."""

import itertools
from collections import Counter

import pytest

from circlegc import enumeration
from circlegc.graphs import (ODD, EVEN, DecoratedGraph, _external_rows,
                             _pair_bits, canonical_form, degree, validate)
from circlegc.enumeration import basis, framed_basis

from conftest import (order, reference_framed_shapes,
                      reference_labelled_shapes, reference_shapes)

CROSSING = DecoratedGraph(ODD, 4, 0, ((1, 3), (2, 4)))
TRIPOD = DecoratedGraph(ODD, 3, 1, ((1, 4), (2, 4), (3, 4)))


def test_even_order1_degree0_empty():
    assert basis(EVEN, 1, 0) == []


def test_odd_order1_degree0_single_chord():
    b = basis(ODD, 1, 0)
    assert len(b) == 1
    assert b[0].v_int == 0 and len(b[0].edges) == 1


def test_odd_order2_degree0_membership():
    canon = {canonical_form(g)[0] for g in (CROSSING, TRIPOD)}
    assert canon <= set(basis(ODD, 2, 0))


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_basis_graphs_are_valid_canonical_distinct(parity):
    for k in (1, 2, 3):
        for m in (0, 1, 2, 3):
            b = basis(parity, k, m)
            assert len(set(b)) == len(b)
            for g in b:
                assert validate(g) == []
                assert canonical_form(g) == (g, 1)
                assert order(g) == k
                assert degree(g) == m


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_trivalent_basis_valences(parity):
    for k in (2, 3):
        for g in basis(parity, k, 0):
            # edge ends per vertex; a small loop has two
            val = Counter(v for edge in g.edges for v in edge)
            val.update(2 * [entry[0] for entry in g.loops])
            for v in range(1, g.v_ext + 1):
                assert val[v] == 1
            for v in range(g.v_ext + 1, g.v_ext + g.v_int + 1):
                assert val[v] == 3
            assert 2 * g.num_edges == g.v_ext + 3 * g.v_int


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_chord_diagrams_have_2k_externals(parity):
    for k in (1, 2, 3):
        for g in basis(parity, k, 0):
            if g.v_int == 0:
                assert g.v_ext == 2 * k


def test_even_order3_contains_cocycle_shapes():
    shapes = {(g.v_ext, g.v_int) for g in basis(EVEN, 3, 0)}
    assert {(4, 2), (6, 0), (5, 1), (3, 3), (2, 4)} <= shapes


def test_framed_basis_gradings():
    for k in (1, 2, 3):
        for m in (0, 1, 2):
            for g in framed_basis(k, m):
                assert g.parity == ODD
                assert order(g) == k
                assert degree(g) == m
                assert order(g) == g.num_edges - g.v_int + g.num_crosses


def test_framed_basis_contains_bare_crossed_vertex():
    b = framed_basis(1, 0)
    assert any(g.num_crosses == 1 and not g.edges and not g.loops
               for g in b)


# ----------------------------------------------------------------------
# the pruned shape search against the exhaustive reference in conftest.py

# order 5 at degrees 5..7 has internal twins next to several externals
# (e.g. v_ext = 3, v_int = 2), which order 4 does not reach
CASES = [(k, m) for k in (1, 2, 3, 4) for m in range(2 * k + 2)] \
    + [(5, m) for m in (5, 6, 7)]


def _search_args():
    """(v_ext, v_int, e, min_val) for every search the cases run, and for
    framed minimum valences (crossed externals may be bare)."""
    args = []
    for k, m in CASES:
        for v_int in range(0, 2 * k - m):
            v_ext = 2 * k - v_int - m
            args.append((v_ext, v_int, k + v_int,
                         (1,) * v_ext + (3,) * v_int))
    for k0, m0 in itertools.product((0, 1, 2, 3), (-1, 0, 1, 2)):
        for v_int in range(0, 2 * k0 - m0):
            v_ext = 2 * k0 - v_int - m0
            for x in range(1, min(v_ext, 3) + 1):
                args.append((v_ext, v_int, k0 + v_int,
                             (0,) * x + (1,) * (v_ext - x) + (3,) * v_int))
    return args


def test_shape_search_is_an_ordered_sublist_of_reference():
    for a in _search_args():
        everything = reference_shapes(*a)
        pruned = enumeration._underlying_shapes(*a)
        rest = iter(everything)
        assert all(shape in rest for shape in pruned), a
        # a rotation keeps uniform minimum valences, so the greatest shape
        # of every class is among these; it moves crossed (bare) ones
        if 0 not in a[3]:
            assert bool(pruned) == bool(everything), a


def _passes_a_and_b(v_ext, v_int, shape):
    """Tests (a) and (b) of the ``enumeration`` docstring on a whole shape,
    with every rotation's external rows compared in full."""
    n = v_ext + v_int
    ext_mask = dict.fromkeys(range(v_ext + 1, n + 1), 0)
    for a, b in shape:
        if a <= v_ext < b:
            ext_mask[b] |= 1 << (v_ext - a)
    masks = list(ext_mask.values())
    if masks != sorted(masks, reverse=True):
        return False
    pairs = [(a, b) for a, b in shape if a <= v_ext]
    bits = _pair_bits(n)
    label = [0] * (n + 1)
    own = sum(bits[a][b] for a, b in pairs)
    return all(_external_rows(r, v_ext, ext_mask, pairs, bits, label)[0]
               <= own for r in range(1, v_ext))


def test_shape_search_is_the_reference_filtered_by_a_and_b():
    for a in _search_args():
        assert enumeration._underlying_shapes(*a) == \
            [s for s in reference_shapes(*a)
             if _passes_a_and_b(a[0], a[1], s)], a


def _classes(graphs):
    """The sorted, deduped nonzero canonical forms of ``graphs``."""
    return sorted({res[0] for res in map(canonical_form, graphs)
                   if res is not None})


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_basis_equals_classes_of_all_reference_shapes(parity):
    for k, m in CASES:
        assert basis(parity, k, m) == \
            _classes(reference_labelled_shapes(parity, k, m)), (k, m)


def test_framed_basis_equals_classes_of_all_reference_shapes():
    for k in (1, 2, 3):
        for m in range(2 * k + 2):
            assert framed_basis(k, m) == \
                _classes(reference_framed_shapes(k, m)), (k, m)
