"""Exact linear algebra and cohomology dimensions."""

from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlegc.graphs import ODD, EVEN, DecoratedGraph, GraphVector, linear
from circlegc import enumeration
from circlegc.coboundary import delta, delta_vector
from circlegc.enumeration import basis
from circlegc.homology import _kernel, _rank, cohomology, delta_matrix
from circlegc.cocycles import (order2_cocycle, order3_cocycle_even,
                               order3_cocycle_odd)
from circlegc.framed import delta_underline
from circlegc.weights import a_space_dim
from circlegc.verification import _bases, _chord_part_rank

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


def _densify(kernel, ncols):
    """Sparse ``{column: coefficient}`` kernel maps as dense lists, after
    checking that each map holds only nonzeros, in column order."""
    out = []
    for vec in kernel:
        assert all(vec.values()) and list(vec) == sorted(vec)
        out.append([vec.get(j, Fraction(0)) for j in range(ncols)])
    return out


def _columns(rows, ncols):
    """The nonzero entries of a dense list of rows, one {row: value} map
    per column."""
    return [{i: Fraction(row[j]) for i, row in enumerate(rows) if row[j]}
            for j in range(ncols)]


matrices = st.integers(1, 6).flatmap(
    lambda nr: st.integers(1, 6).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-4, 4), min_size=nc, max_size=nc),
            min_size=nr, max_size=nr)))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_matches_numpy_oracle(rows):
    """The rank of the matrix, and of its transpose."""
    nrows, ncols = len(rows), len(rows[0])
    # small integer entries keep the floating point rank reliable
    approx = np.linalg.matrix_rank(np.array(rows, dtype=float))
    assert _rank(_columns(rows, ncols), nrows) == approx
    assert _rank(_columns(list(zip(*rows)), nrows), ncols) == approx


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_is_exact_and_complete(rows):
    nrows, ncols = len(rows), len(rows[0])
    cols = _columns(rows, ncols)
    ker = _kernel(cols, nrows)
    rank = _rank(cols, nrows)
    assert len(ker) == ncols - rank
    for vec in ker:
        for row in rows:
            assert sum(row[j] * c for j, c in vec.items()) == 0
        assert vec[min(vec)] == 1


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
    """Dense columns, zero entries included: the elimination drops them."""
    rows, ncols = matrix
    want_kernel = _dense_kernel([row[:] for row in rows], ncols)
    want_rank = _dense_rank([row[:] for row in rows], ncols)
    cols = [{i: row[j] for i, row in enumerate(rows)} for j in range(ncols)]
    assert _densify(_kernel(cols, len(rows)), ncols) == want_kernel
    assert _rank(cols, len(rows)) == want_rank


def test_delta_matrix_kernel_and_rank_equal_dense_reference():
    for parity in (ODD, EVEN):
        bases = _bases(partial(basis, parity), 3)
        for m in bases:
            mat = delta_matrix(bases[m], bases.get(m + 1, []))
            nr, nc = mat.shape
            dense = [[mat.columns[j].get(i, 0) for j in range(nc)]
                     for i in range(nr)]
            assert _densify(mat.kernel(), nc) == _dense_kernel(
                [row[:] for row in dense], nc)
            assert mat.rank() == _dense_rank([row[:] for row in dense], nc)


# dim C^{k,m} and dim H^{k,m} for k = 1..3 and m = 0..2k+1.
LOW_ORDER_DIM_C = {ODD: {1: [1, 1, 0, 0], 2: [3, 2, 1, 0, 0, 0],
                         3: [10, 16, 13, 7, 1, 0, 0, 0]},
                   EVEN: {1: [0, 1, 0, 0], 2: [2, 2, 2, 0, 0, 0],
                          3: [10, 17, 13, 7, 1, 0, 0, 0]}}
LOW_ORDER_DIM_H = {ODD: {1: [0, 0, 0, 0], 2: [1, 0, 1, 0, 0, 0],
                         3: [1, 0, 0, 0, 0, 0, 0, 0]},
                   EVEN: {1: [0, 1, 0, 0], 2: [1, 0, 1, 0, 0, 0],
                          3: [1, 1, 0, 0, 0, 0, 0, 0]}}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_low_order_tables_and_euler_identity(parity, k):
    dim_c = [len(basis(parity, k, m)) for m in range(2 * k + 2)]
    dim_h = [cohomology(parity, k, m).dim_H for m in range(2 * k + 2)]
    assert dim_c == LOW_ORDER_DIM_C[parity][k]
    assert dim_h == LOW_ORDER_DIM_H[parity][k]
    assert sum((-1) ** m * d for m, d in enumerate(dim_c)) == \
        sum((-1) ** m * d for m, d in enumerate(dim_h))


def test_even_h31_is_the_nontrivalent_class():
    """Longoni, "Nontrivial classes in H*(Imb(S^1, R^n)) from nontrivalent
    graph cocycles": the even complex has a class of order 3 in degree 1,
    where every graph has one edge end above the minimum valences."""
    assert cohomology(EVEN, 3, 1).dim_H == 1


# dim C^{4,m} and dim H^{4,m} for m = 0..5; the complex is zero above.
ORDER4_DIM_C = {ODD: [61, 171, 215, 143, 47, 5],
                EVEN: [48, 170, 227, 144, 46, 5]}
ORDER4_DIM_H = {ODD: [3, 0, 1, 0, 0, 0], EVEN: [1, 1, 2, 0, 0, 0]}


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_order4_tables_and_euler_identity(parity):
    """The order-4 table, and the chord-diagram parts of the degree-0
    cocycles are independent: projecting H^{4,0} to them loses nothing."""
    dim_c = [len(basis(parity, 4, m)) for m in range(6)]
    reps = [cohomology(parity, 4, m) for m in range(6)]
    dim_h = [rep.dim_H for rep in reps]
    assert dim_c == ORDER4_DIM_C[parity]
    assert dim_h == ORDER4_DIM_H[parity]
    assert _chord_part_rank(reps[0]) == dim_h[0]
    assert not basis(parity, 4, 6)
    euler = sum((-1) ** m * d for m, d in enumerate(dim_c))
    assert euler == sum((-1) ** m * d for m, d in enumerate(dim_h))
    assert euler == {ODD: 4, EVEN: 2}[parity]


def test_order5_degree0_pinned_to_chord_diagram_dimensions():
    """Bar-Natan, "On the Vassiliev knot invariants" (Topology 1995): odd
    H^{5,0} = dim A_5/(1T) = 4, and the underline H^{5,0} = dim A_5 = 10.
    In both parities the chord-diagram parts of the degree-0 cocycles are
    independent, as the nontriviality argument needs."""
    assert [len(basis(p, 5, m)) for p in (ODD, EVEN) for m in (0, 1)] \
        == [589, 2343, 551, 2347]
    for parity, dim in ((ODD, 4), (EVEN, 3)):
        rep = cohomology(parity, 5, 0)
        assert rep.dim_H == dim
        assert _chord_part_rank(rep) == dim
    assert cohomology(ODD, 5, 0, op=delta_underline).dim_H == 10
    assert a_space_dim(5) == 10


@pytest.mark.slow
def test_order6_degree0_pinned_to_chord_diagram_dimensions():
    """Bar-Natan (Topology 1995): odd H^{6,0} = dim A_6/(1T) = 9, and the
    underline H^{6,0} = dim A_6 = 19.  The chord-diagram parts of the odd
    degree-0 cocycles are independent.  In degree 0 dim H is the
    dimension of the kernel, so the underline one is read off a rank.
    About 45 s and 700 MB."""
    bases = {0: basis(ODD, 6, 0), 1: basis(ODD, 6, 1)}
    assert [len(bases[0]), len(bases[1])] == [7763, 38988]
    rep = cohomology(ODD, 6, 0, basis_fn=lambda parity, k, m: bases[m])
    assert rep.dim_H == 9
    assert _chord_part_rank(rep) == 9
    underline = delta_matrix(bases[0], bases[1], op=delta_underline)
    assert len(bases[0]) - underline.rank() == 19 == a_space_dim(6)


def _ranks_squaring_to_zero(bases, op):
    """The ranks of the matrices of ``op`` out of degrees 0..max(bases),
    built from the walked ``bases`` one at a time, after asserting that
    ``op`` squares to zero on every graph of the source basis.  The
    check and the matrix map each graph through one memo of ``op``."""
    image = lru_cache(maxsize=None)(op)
    ranks = []
    for m in range(max(bases) + 1):
        src = bases.get(m, [])
        for g in src:
            assert linear(image, image(g)).is_zero(), (m, g)
        ranks.append(delta_matrix(src, bases.get(m + 1, []),
                                  op=image).rank())
    return ranks


# dim C^{5,m}, rank of the coboundary out of degree m, and dim H^{5,m} for
# m = 0..7; the complex is zero above.  The odd bases also carry the
# short-chord-free coboundary, with its own ranks and cohomology.
ORDER5_DIM_C = {ODD: [589, 2343, 4014, 3704, 1910, 524, 63, 2],
                EVEN: [551, 2347, 4093, 3707, 1861, 517, 70, 2]}
ORDER5_RANK = {ODD: [585, 1758, 2256, 1447, 463, 61, 2, 0],
               EVEN: [548, 1798, 2294, 1412, 449, 68, 2, 0]}
ORDER5_DIM_H = {ODD: [4, 0, 0, 1, 0, 0, 0, 0],
                EVEN: [3, 1, 1, 1, 0, 0, 0, 0]}
ORDER5_UNDERLINE_RANK = [579, 1752, 2254, 1446, 462, 61, 2, 0]
ORDER5_UNDERLINE_DIM_H = [10, 12, 8, 4, 2, 1, 0, 0]


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_order5_delta_squares_to_zero(parity):
    """d^2 = 0 on every bidegree of order 5: one walk over the bases, each
    graph mapped twice, and one matrix per degree.  The same matrices
    give the whole order-5 table, whose Euler characteristic is that of
    the chain groups.  In the odd case the same bases give the
    short-chord-free table too, whose H^{5,0} is dim A_5 = 10."""
    bases = _bases(partial(basis, parity), 5)
    dim_c = [len(bases.get(m, [])) for m in range(8)]
    assert dim_c == ORDER5_DIM_C[parity]
    assert max(bases) == 7
    euler = sum((-1) ** m * d for m, d in enumerate(dim_c))
    assert euler == {ODD: 3, EVEN: 2}[parity]
    tables = [(delta, ORDER5_RANK[parity], ORDER5_DIM_H[parity])]
    if parity == ODD:
        tables.append((delta_underline, ORDER5_UNDERLINE_RANK,
                       ORDER5_UNDERLINE_DIM_H))
        assert ORDER5_UNDERLINE_DIM_H[0] == a_space_dim(5)
    for op, want_ranks, want_dim_h in tables:
        ranks = _ranks_squaring_to_zero(bases, op)
        assert ranks == want_ranks
        dim_h = [c - r - prev
                 for c, r, prev in zip(dim_c, ranks, [0] + ranks)]
        assert dim_h == want_dim_h
        assert euler == sum((-1) ** m * d for m, d in enumerate(dim_h))


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_rank_only_path_agrees_with_kernel_on_order4(parity):
    """The sparsest-first rank and the column-order kernel eliminate every
    order-4 matrix independently; they must agree on its rank."""
    bases = _bases(partial(basis, parity), 4)
    for m in bases:
        mat = delta_matrix(bases[m], bases.get(m + 1, []))
        cols, (nrows, n) = mat.columns, mat.shape
        assert _rank(cols, nrows) == n - len(_kernel(cols, nrows)), m


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_cohomology_builds_each_basis_once(parity):
    calls = []

    def counting_basis(p, k, m):
        calls.append((p, k, m))
        return basis(p, k, m)

    rep = cohomology(parity, 4, 2, basis_fn=counting_basis)
    assert rep.dim_H == ORDER4_DIM_H[parity][2]
    assert sorted(calls) == [(parity, 4, m) for m in (1, 2, 3)]


def test_delta_matrix_squares_to_zero():
    for parity in (ODD, EVEN):
        for k in (1, 2, 3):
            _ranks_squaring_to_zero(_bases(partial(basis, parity), k), delta)


def test_delta_matrix_builds_no_basis(monkeypatch):
    """The matrix is built from the two bases it is given alone."""
    src, tgt = basis(ODD, 3, 0), basis(ODD, 3, 1)

    def refuse(*args):
        raise AssertionError("delta_matrix enumerated a basis")

    monkeypatch.setattr(enumeration, "_classes", refuse)
    mat = delta_matrix(src, tgt)
    assert mat.shape == (len(tgt), len(src))
    assert mat.rank() == 9


def test_delta_matrix_odd_1_0_nonzero():
    assert any(delta_matrix(basis(ODD, 1, 0), basis(ODD, 1, 1)).columns)


def test_delta_matrix_even_1_0_empty_source():
    assert delta_matrix(basis(EVEN, 1, 0), basis(EVEN, 1, 1)).shape[1] == 0


def test_h10_vanishes():
    for parity in (ODD, EVEN):
        assert cohomology(parity, 1, 0).dim_H == 0


def test_h20_dimensions_and_class():
    rep = cohomology(EVEN, 2, 0)
    assert rep.dim_H == 1
    # the odd (2, 0) kernel contains the order-2 cocycle
    odd = cohomology(ODD, 2, 0)
    assert odd.dim_kernel >= 1
    assert delta_vector(order2_cocycle(ODD)).is_zero()


def test_verify_cocycle_pinned():
    assert delta_vector(order3_cocycle_odd()).is_zero()
    assert delta_vector(order3_cocycle_even()).is_zero()
    chord = GraphVector(parity=ODD)
    chord.add_graph(DecoratedGraph(ODD, 2, 0, ((1, 2),)), Fraction(1))
    assert not delta_vector(chord).is_zero()


def test_kernel_vectors_are_exactly_closed():
    for parity in (ODD, EVEN):
        for k in (2, 3):
            for v in cohomology(parity, k, 0).cocycle_basis:
                assert delta_vector(v).is_zero()
