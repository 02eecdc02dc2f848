"""Exact linear algebra over the rationals for the graph complexes.

Matrices of the coboundary between enumerated bases, kernels and ranks,
and cohomology dimensions dim H = dim ker - rank of the incoming map.

Ranks and kernels come from one sparse exact elimination over Q.  It
walks the columns in index order and reduces each against the pivot
vectors found so far, kept as sparse primitive integer vectors; a column
that does not reduce to zero becomes a pivot column.  So the pivot
columns are those of the reduced row echelon form, and the kernel vector
of a dependent column is the unique relation between it and the pivot
columns before it, which is exactly the RREF kernel vector of that free
column.  With the first nonzero coefficient normalized to +1, the kernel
basis and its order do not depend on which row each pivot sits in.
Everything is deterministic: bases are sorted by canonical encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .graphs import DecoratedGraph, GraphVector, degree, order
from .coboundary import delta, delta_vector
from .enumeration import basis


class SparseRationalMatrix:
    """Column-sparse exact matrix indexed by canonical basis lists.

    Entry (i, j) is the coefficient of row basis graph i in the image of
    column basis graph j.
    """

    def __init__(self, row_basis, col_basis):
        self.row_basis = list(row_basis)
        self.col_basis = list(col_basis)
        self.row_index = {g.sort_key(): i
                          for i, g in enumerate(self.row_basis)}
        self.columns = [dict() for _ in self.col_basis]

    @property
    def shape(self):
        return (len(self.row_basis), len(self.col_basis))

    def set_entry(self, i: int, j: int, value: Fraction):
        if value:
            self.columns[j][i] = value
        else:
            self.columns[j].pop(i, None)

    def entry(self, i: int, j: int) -> Fraction:
        return self.columns[j].get(i, Fraction(0))

    def column(self, j: int) -> dict:
        return dict(self.columns[j])

    def triplets(self):
        """Deterministic (row, col, value) listing."""
        out = []
        for j, col in enumerate(self.columns):
            for i in sorted(col):
                out.append((i, j, col[i]))
        return out

    def compose(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        """self @ other; other's row basis must be self's column basis."""
        if [g.sort_key() for g in other.row_basis] != \
                [g.sort_key() for g in self.col_basis]:
            raise ValueError("basis mismatch in composition")
        out = SparseRationalMatrix(self.row_basis, other.col_basis)
        for j, col in enumerate(other.columns):
            acc = {}
            for mid, v in col.items():
                for i, w in self.columns[mid].items():
                    acc[i] = acc.get(i, Fraction(0)) + v * w
            for i, v in acc.items():
                if v:
                    out.columns[j][i] = v
        return out

    def is_zero(self) -> bool:
        return all(not col for col in self.columns)

    def _rows(self):
        """Row-sparse copy: one {col: value} map per row basis graph."""
        rows = [{} for _ in self.row_basis]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def rank(self) -> int:
        return _rank(self._rows(), len(self.col_basis))

    def kernel(self):
        """Kernel basis as coefficient lists over col_basis, normalized so
        the first nonzero coefficient of each vector is +1."""
        return _kernel(self._rows(), len(self.col_basis))


def _combine(a, x, b, y):
    """a * x - b * y for sparse integer vectors {index: value}."""
    out = {i: a * v for i, v in x.items()} if a != 1 else dict(x)
    for i, v in y.items():
        w = out.get(i, 0) - b * v
        if w:
            out[i] = w
        else:
            del out[i]
    return out


def _eliminate(rows, ncols):
    """Sparse exact column elimination.

    ``rows`` holds sequences of length ``ncols`` or {col: value} maps.
    Each column is scaled to a primitive integer vector and reduced,
    left to right, against the pivot vectors found so far.  A column
    that keeps a nonzero entry becomes a pivot, on the entry whose row
    meets the fewest columns; one that reduces to zero is dependent and
    yields the unique vanishing combination of itself and the earlier
    pivot columns.

    Returns the rank and the kernel vectors (dense lists of Fractions
    over the columns, first nonzero entry +1), one per dependent column
    in column order.
    """
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in (row.items() if isinstance(row, dict)
                     else enumerate(row)):
            if v:
                cols[j][i] = v
    meets = {}
    for col in cols:
        for i in col:
            meets[i] = meets.get(i, 0) + 1
    scale = []
    pivots = []          # (pivot row, vector, combination of columns)
    pivot_of = {}        # pivot row -> index into pivots
    kernel = []
    for j, col in enumerate(cols):
        den = lcm(*(v.denominator for v in col.values()))
        vec = {i: v.numerator * (den // v.denominator)
               for i, v in col.items()}
        g = gcd(*vec.values()) or 1
        vec = {i: v // g for i, v in vec.items()}
        scale.append(Fraction(den, g))
        comb = {j: 1}
        # pivot k's vector has no entry on the rows of pivots before k,
        # so clearing pivot rows in increasing k never refills them
        todo = {pivot_of[i] for i in vec if i in pivot_of}
        while todo:
            k = min(todo)
            todo.remove(k)
            r, pvec, pcomb = pivots[k]
            b = vec.get(r)
            if b is None:
                continue
            a = pvec[r]
            g = gcd(a, b)
            a, b = a // g, b // g
            todo.update(pivot_of[i] for i in pvec
                        if i in pivot_of and i not in vec)
            vec = _combine(a, vec, b, pvec)
            comb = _combine(a, comb, b, pcomb)
            g = gcd(*vec.values(), *comb.values())
            if g > 1:
                vec = {i: v // g for i, v in vec.items()}
                comb = {i: v // g for i, v in comb.items()}
        if vec:
            r = min(vec, key=lambda i: (meets[i], i))
            pivot_of[r] = len(pivots)
            pivots.append((r, vec, comb))
        else:
            first = min(comb)
            lead = comb[first] * scale[first]
            out = [Fraction(0)] * ncols
            for c, u in comb.items():
                out[c] = u * scale[c] / lead
            kernel.append(out)
    return len(pivots), kernel


def _rank(rows, ncols) -> int:
    return _eliminate(rows, ncols)[0]


def _kernel(rows, ncols):
    return _eliminate(rows, ncols)[1]


@dataclass
class CohomologyReport:
    parity: str
    k: int
    m: int
    dim_kernel: int
    rank_previous: int
    dim_H: int
    cocycle_basis: list = field(default_factory=list)


def delta_matrix(parity: str, k: int, m: int,
                 op=delta, basis_fn=basis) -> SparseRationalMatrix:
    """Matrix of the coboundary from degree m to degree m + 1."""
    src = basis_fn(parity, k, m)
    tgt = basis_fn(parity, k, m + 1)
    mat = SparseRationalMatrix(tgt, src)
    for j, g in enumerate(src):
        for coeff, h in op(g).terms:
            i = mat.row_index[h.sort_key()]
            mat.columns[j][i] = mat.columns[j].get(i, Fraction(0)) + coeff
        mat.columns[j] = {i: v for i, v in mat.columns[j].items() if v}
    return mat


def cohomology(parity: str, k: int, m: int,
               op=delta, basis_fn=basis) -> CohomologyReport:
    """Exact cohomology at bidegree (k, m) for the chosen coboundary."""
    out_mat = delta_matrix(parity, k, m, op=op, basis_fn=basis_fn)
    ker = out_mat.kernel()
    if m - 1 >= 0 or basis_fn(parity, k, m - 1):
        rank_prev = delta_matrix(parity, k, m - 1,
                                 op=op, basis_fn=basis_fn).rank()
    else:
        rank_prev = 0
    src = out_mat.col_basis
    cocycles = []
    for vec in ker:
        v = GraphVector(parity=parity)
        for c, g in zip(vec, src):
            if c:
                v.add_graph(g, c)
        cocycles.append(v)
    return CohomologyReport(parity, k, m, len(ker), rank_prev,
                            len(ker) - rank_prev, cocycles)


def verify_cocycle(v: GraphVector, op=delta_vector) -> bool:
    """True iff the vector is homogeneous and exactly closed."""
    grading = {(order(g), degree(g)) for _, g in v.terms}
    if len(grading) > 1:
        raise ValueError("inhomogeneous graph vector")
    return op(v).is_zero()


def chord_part(v: GraphVector) -> GraphVector:
    """Restriction to the terms with no internal vertices."""
    out = GraphVector(parity=v.parity)
    for coeff, g in v.terms:
        if g.v_int == 0:
            out.add_graph(g, coeff)
    return out
