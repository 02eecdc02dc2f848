"""Exact linear algebra and cohomology dimensions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlegc.graphs import ODD, EVEN, DecoratedGraph, GraphVector
from circlegc.coboundary import delta_vector
from circlegc.enumeration import basis
from circlegc.homology import (SparseRationalMatrix, _kernel, _rank,
                               chord_part, cohomology, delta_matrix,
                               verify_cocycle)
from circlegc.cocycles import (order2_cocycle, order3_cocycle_even,
                               order3_cocycle_odd)

def _dense_rank(rows, ncols) -> int:
    """Reference: dense Gaussian elimination on Fractions (mutates rows)."""
    rank = 0
    col = 0
    nrows = len(rows)
    while rank < nrows and col < ncols:
        piv = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        for r in range(nrows):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv
                row = rows[r]
                for c in range(col, ncols):
                    row[c] -= f * prow[c]
        rank += 1
        col += 1
    return rank


def _dense_kernel(rows, ncols):
    """Reference: the kernel read off the reduced row echelon form, one
    vector per free column, first nonzero entry +1 (mutates rows)."""
    nrows = len(rows)
    pivots = []       # (row, col) of each pivot
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        piv = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        for c in range(col, ncols):
            prow[c] *= inv
        for r in range(nrows):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                row = rows[r]
                for c in range(col, ncols):
                    row[c] -= f * prow[c]
        pivots.append((rank, col))
        rank += 1
        col += 1
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    out = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, c in pivots:
            vec[c] = -rows[r][fc]
        lead = next(v for v in vec if v)
        if lead != 1:
            vec = [v / lead for v in vec]
        out.append(vec)
    return out


matrices = st.integers(1, 6).flatmap(
    lambda nr: st.integers(1, 6).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-4, 4), min_size=nc, max_size=nc),
            min_size=nr, max_size=nr)))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_matches_numpy_oracle(rows):
    exact = _rank([[Fraction(x) for x in row] for row in rows],
                  len(rows[0]))
    # small integer entries keep the floating point rank reliable
    approx = np.linalg.matrix_rank(np.array(rows, dtype=float))
    assert exact == approx


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_is_exact_and_complete(rows):
    ncols = len(rows[0])
    frac = [[Fraction(x) for x in row] for row in rows]
    ker = _kernel([row[:] for row in frac], ncols)
    rank = _rank([row[:] for row in frac], ncols)
    assert len(ker) == ncols - rank
    for vec in ker:
        for row in frac:
            assert sum(a * b for a, b in zip(row, vec)) == 0
        lead = next(v for v in vec if v)
        assert lead == 1


entries = st.one_of(st.just(Fraction(0)),
                    st.integers(-4, 4).map(Fraction),
                    st.builds(Fraction, st.integers(-4, 4),
                              st.integers(1, 4)))


@st.composite
def rational_matrices(draw):
    """Integer and fractional entries, with some rows and columns zeroed."""
    nr = draw(st.integers(0, 7))
    nc = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    zero_rows = draw(st.sets(st.integers(0, 6)))
    zero_cols = draw(st.sets(st.integers(0, 6)))
    return [[Fraction(0) if i in zero_rows or j in zero_cols else v
             for j, v in enumerate(row)] for i, row in enumerate(rows)], nc


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_elimination_equals_dense_reference(matrix):
    rows, ncols = matrix
    want_kernel = _dense_kernel([row[:] for row in rows], ncols)
    want_rank = _dense_rank([row[:] for row in rows], ncols)
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    for given_rows in (rows, sparse):
        assert _kernel(given_rows, ncols) == want_kernel
        assert _rank(given_rows, ncols) == want_rank


def test_delta_matrix_kernel_and_rank_equal_dense_reference():
    for parity in (ODD, EVEN):
        for m in range(7):
            mat = delta_matrix(parity, 3, m)
            nr, nc = mat.shape
            dense = [[mat.entry(i, j) for j in range(nc)]
                     for i in range(nr)]
            assert mat.kernel() == _dense_kernel(
                [row[:] for row in dense], nc)
            assert mat.rank() == _dense_rank([row[:] for row in dense], nc)


# dim C^{4,m} and dim H^{4,m} for m = 0..5; the complex is zero above.
ORDER4_DIM_C = {ODD: [61, 171, 215, 143, 47, 5],
                EVEN: [48, 170, 227, 144, 46, 5]}
ORDER4_DIM_H = {ODD: [3, 0, 1, 0, 0, 0], EVEN: [1, 1, 2, 0, 0, 0]}


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_order4_tables_and_euler_identity(parity):
    dim_c = [len(basis(parity, 4, m)) for m in range(6)]
    dim_h = [cohomology(parity, 4, m).dim_H for m in range(6)]
    assert dim_c == ORDER4_DIM_C[parity]
    assert dim_h == ORDER4_DIM_H[parity]
    assert not basis(parity, 4, 6)
    euler = sum((-1) ** m * d for m, d in enumerate(dim_c))
    assert euler == sum((-1) ** m * d for m, d in enumerate(dim_h))
    assert euler == {ODD: 4, EVEN: 2}[parity]


def test_delta_matrix_squares_to_zero():
    for parity in (ODD, EVEN):
        for k in (1, 2, 3):
            for m in (0, 1, 2):
                sq = delta_matrix(parity, k, m + 1).compose(
                    delta_matrix(parity, k, m))
                assert sq.is_zero()


def test_delta_matrix_odd_1_0_nonzero():
    assert not delta_matrix(ODD, 1, 0).is_zero()


def test_delta_matrix_even_1_0_empty_source():
    assert delta_matrix(EVEN, 1, 0).shape[1] == 0


def test_h10_vanishes():
    for parity in (ODD, EVEN):
        assert cohomology(parity, 1, 0).dim_H == 0


def test_h20_dimensions_and_class():
    rep = cohomology(EVEN, 2, 0)
    assert rep.dim_H == 1
    # the odd (2, 0) kernel contains the order-2 cocycle
    odd = cohomology(ODD, 2, 0)
    assert odd.dim_kernel >= 1
    assert verify_cocycle(order2_cocycle(ODD))


def test_verify_cocycle_pinned():
    assert verify_cocycle(order3_cocycle_odd())
    assert verify_cocycle(order3_cocycle_even())
    chord = GraphVector(parity=ODD)
    chord.add_graph(DecoratedGraph(ODD, 2, 0, ((1, 2),)), Fraction(1))
    assert not verify_cocycle(chord)


def test_verify_cocycle_rejects_inhomogeneous():
    v = GraphVector(parity=ODD)
    v.add_graph(DecoratedGraph(ODD, 2, 0, ((1, 2),)), Fraction(1))
    v.add_graph(DecoratedGraph(ODD, 4, 0, ((1, 3), (2, 4))), Fraction(1))
    with pytest.raises(ValueError):
        verify_cocycle(v)


def test_chord_part_pinned():
    v = order2_cocycle(ODD)
    cp = chord_part(v)
    assert len(cp.terms) == 1
    coeff, g = cp.terms[0]
    assert abs(coeff) == Fraction(1, 4)
    assert g.v_int == 0
    tripod = GraphVector(parity=ODD)
    tripod.add_graph(DecoratedGraph(ODD, 3, 1, ((1, 4), (2, 4), (3, 4))),
                     Fraction(1))
    assert chord_part(tripod).is_zero()


def test_kernel_vectors_are_exactly_closed():
    for parity in (ODD, EVEN):
        for k in (2, 3):
            for v in cohomology(parity, k, 0).cocycle_basis:
                assert delta_vector(v).is_zero()


def test_compose_basis_mismatch_raises():
    a = delta_matrix(ODD, 2, 0)
    b = delta_matrix(ODD, 3, 0)
    with pytest.raises(ValueError):
        a.compose(b)
