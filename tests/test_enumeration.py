"""Basis generation: completeness properties and pinned memberships."""

import itertools

import pytest

from circlegc import enumeration
from circlegc.graphs import (ODD, EVEN, DecoratedGraph, canonical_form,
                             degree, is_canonical, order, validate)
from circlegc.enumeration import basis, framed_basis, trivalent_basis

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
                assert is_canonical(g)
                assert order(g) == k
                assert degree(g) == m


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_trivalent_basis_valences(parity):
    for k in (2, 3):
        for g in trivalent_basis(parity, k):
            val = g.valences()
            for v in range(1, g.v_ext + 1):
                assert val[v] == 1
            for v in range(g.v_ext + 1, g.v_ext + g.v_int + 1):
                assert val[v] == 3
            assert 2 * g.num_edges == g.v_ext + 3 * g.v_int


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_chord_diagrams_have_2k_externals(parity):
    for k in (1, 2, 3):
        for g in trivalent_basis(parity, k):
            if g.v_int == 0:
                assert g.v_ext == 2 * k


def test_even_order3_contains_cocycle_shapes():
    shapes = {(g.v_ext, g.v_int) for g in trivalent_basis(EVEN, 3)}
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
# reference: the shape search that recomputed the valence deficit and
# excess over all vertices at every search node


def _connected(v_ext: int, v_int: int, pairs) -> bool:
    """All vertices in one component, the circle tying the externals."""
    parent = list(range(v_ext + v_int + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for v in range(2, v_ext + 1):
        union(1, v)
    for a, b in pairs:
        union(a, b)
    root = find(1)
    return all(find(v) == root for v in range(1, v_ext + v_int + 1))


def _underlying_shapes(v_ext: int, v_int: int, e: int, min_val: tuple):
    """All connected simple shapes: sorted tuples of distinct endpoint
    pairs (a, b), a <= b, loops only on external vertices, meeting the
    per-vertex minimum valences exactly up to the global slack."""
    nv = v_ext + v_int
    slack = 2 * e - sum(min_val)
    if slack < 0:
        return []
    pool = []
    for a in range(1, nv + 1):
        if a <= v_ext:
            pool.append((a, a))
        for b in range(a + 1, nv + 1):
            pool.append((a, b))
    out = []
    val = [0] * (nv + 1)

    def deficit():
        return sum(max(0, min_val[v - 1] - val[v]) for v in range(1, nv + 1))

    def excess():
        return sum(max(0, val[v] - min_val[v - 1]) for v in range(1, nv + 1))

    def grow(idx, chosen, max_int_used):
        need = e - len(chosen)
        if need == 0:
            if deficit() == 0 and _connected(v_ext, v_int, chosen):
                out.append(tuple(chosen))
            return
        if len(pool) - idx < need or deficit() > 2 * need:
            return
        for j in range(idx, len(pool)):
            a, b = pool[j]
            hi_int = max(a, b) if max(a, b) > v_ext else 0
            # introduce anonymous internal slots in label order
            if hi_int and hi_int > max_int_used + 1:
                continue
            val[a] += 1
            val[b] += 1
            if excess() <= slack:
                chosen.append((a, b))
                grow(j + 1, chosen, max(max_int_used, hi_int))
                chosen.pop()
            val[a] -= 1
            val[b] -= 1

    grow(0, [], v_ext)
    return out


def test_shape_search_equals_reference():
    cases = [(k, m) for k in (1, 2, 3, 4) for m in range(2 * k)] \
        + [(5, m) for m in (5, 6, 7)]
    args = []
    for k, m in cases:
        for v_int in range(0, 2 * k - m):
            v_ext = 2 * k - v_int - m
            args.append((v_ext, v_int, k + v_int,
                         (1,) * v_ext + (3,) * v_int))
    # framed minimum valences: crossed externals may be bare
    for k0, m0 in itertools.product((0, 1, 2, 3), (-1, 0, 1, 2)):
        for v_int in range(0, 2 * k0 - m0):
            v_ext = 2 * k0 - v_int - m0
            for x in range(1, min(v_ext, 3) + 1):
                args.append((v_ext, v_int, k0 + v_int,
                             (0,) * x + (1,) * (v_ext - x) + (3,) * v_int))
    for a in args:
        assert enumeration._underlying_shapes(*a) == _underlying_shapes(*a), a
