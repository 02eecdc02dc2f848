"""Exact linear algebra over the rationals for the graph complexes.

Matrices of a coboundary between two bases the caller builds (each
basis once per walk over the degrees), kernels and ranks, and cohomology
dimensions dim H = dim ker - rank of the incoming map.

A matrix has one layout: its columns, one sparse ``{row: value}`` map
per source basis graph, and its row count.  Only its rank and its
kernel are read, so there is no row copy and no matrix product: d^2 = 0
is checked graph by graph (``verification.criterion_dsquared``).

Ranks and kernels come from one sparse exact elimination over Q, run on
one of two paths.  Either way each column is scaled to a primitive
integer vector and reduced against the pivot vectors found so far, kept
as sparse primitive integer vectors; a column that does not reduce to
zero becomes a pivot column, pivoting on the row that meets the fewest
columns.

* The kernel path (``_kernel``) walks the columns in index order, and
  each column carries the combination of columns it has become.  So the
  pivot columns are those of the reduced row echelon form, and the
  kernel vector of a dependent column is the unique relation between it
  and the pivot columns before it, which is exactly the RREF kernel
  vector of that free column.  With the first nonzero coefficient
  normalized to +1, the kernel basis and its order do not depend on
  which row each pivot sits in.  Each kernel vector is returned sparse,
  as a ``{column: Fraction}`` map of its nonzero coefficients, and the
  reports print these vectors.
* The rank path (``_rank``) walks the columns sparsest first, which
  keeps the fill-in low, and carries no combination: the rank does not
  depend on the column order, and nothing else is read from it.

Everything is deterministic: bases are sorted by canonical encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .graphs import GraphVector
from .coboundary import delta
from .enumeration import basis


@dataclass
class SparseRationalMatrix:
    """Column-sparse exact matrix with ``nrows`` rows: ``columns[j]`` maps
    each row index i to the nonzero entry (i, j)."""
    columns: list
    nrows: int

    @property
    def shape(self):
        return (self.nrows, len(self.columns))

    def rank(self) -> int:
        return _rank(self.columns, self.nrows)

    def kernel(self):
        """Kernel basis as sparse ``{column: Fraction}`` maps, normalized
        so the first nonzero coefficient of each vector is +1."""
        return _kernel(self.columns, self.nrows)


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


def _eliminate(cols, with_kernel):
    """Sparse exact column elimination.

    ``cols`` holds one {row: value} map per column; a zero value is
    dropped.  Each column is scaled to a primitive integer vector and
    reduced against the pivot vectors found so far.  A column that keeps
    a nonzero entry becomes a pivot, on the entry whose row meets the
    fewest columns.

    With ``with_kernel`` the columns go left to right, each carrying the
    combination of columns it is, and the kernel vectors are returned
    (sparse ``{column: Fraction}`` maps of the nonzero coefficients, in
    column order, first entry +1), one per dependent column in column
    order: the unique vanishing combination of that column and the
    earlier pivot columns.  Without, the columns go sparsest first,
    carry nothing, and the rank is returned.
    """
    meets = {}
    for col in cols:
        for i in col:
            meets[i] = meets.get(i, 0) + 1
    scale = {}
    pivots = []          # (pivot row, vector, combination of columns)
    pivot_of = {}        # pivot row -> index into pivots
    kernel = []
    comb = None
    for j in (range(len(cols)) if with_kernel
              else sorted(range(len(cols)), key=lambda c: len(cols[c]))):
        col = cols[j]
        den = lcm(*(v.denominator for v in col.values()))
        vec = {i: v.numerator * (den // v.denominator)
               for i, v in col.items() if v}
        g = gcd(*vec.values()) or 1
        vec = {i: v // g for i, v in vec.items()}
        if with_kernel:
            scale[j] = Fraction(den, g)
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
            if with_kernel:
                comb = _combine(a, comb, b, pcomb)
            g = gcd(*vec.values(), *(comb.values() if with_kernel else ()))
            if g > 1:
                vec = {i: v // g for i, v in vec.items()}
                if with_kernel:
                    comb = {i: v // g for i, v in comb.items()}
        if vec:
            r = min(vec, key=lambda i: (meets[i], i))
            pivot_of[r] = len(pivots)
            pivots.append((r, vec, comb))
        elif with_kernel:
            support = sorted(comb)
            lead = comb[support[0]] * scale[support[0]]
            kernel.append({c: comb[c] * scale[c] / lead for c in support})
    return kernel if with_kernel else len(pivots)


# ``nrows`` is the matrix's row count: the elimination reads only the
# columns, but perfbench meters each call's cells as len(cols) * nrows
def _rank(cols, nrows) -> int:
    return _eliminate(cols, False)


def _kernel(cols, nrows):
    return _eliminate(cols, True)


@dataclass
class CohomologyReport:
    parity: str
    k: int
    m: int
    dim_kernel: int
    rank_previous: int
    dim_H: int
    basis: list
    cocycle_basis: list = field(default_factory=list)


def delta_matrix(src, tgt, op=delta) -> SparseRationalMatrix:
    """Matrix of ``op`` from the basis ``src`` to the basis ``tgt``: the
    coboundary from degree m to degree m + 1 when they are the bases of
    those degrees.  Every image term must be a graph of ``tgt``."""
    index = {g: i for i, g in enumerate(tgt)}
    # distinct canonical graphs, nonzero coefficients: one entry each
    return SparseRationalMatrix(
        [{index[h]: c for h, c in op(g).items()} for g in src], len(tgt))


def cohomology(parity: str, k: int, m: int,
               op=delta, basis_fn=basis) -> CohomologyReport:
    """Exact cohomology at bidegree (k, m) for the chosen coboundary.

    Each of the bases of degrees m, m + 1 and m - 1 is built once, in
    that order: the kernel of the outgoing matrix is taken, and that
    matrix dropped, before the incoming one is built for its rank."""
    src = basis_fn(parity, k, m)
    ker = delta_matrix(src, basis_fn(parity, k, m + 1), op=op).kernel()
    # every basis at degree -1 is empty
    rank_prev = delta_matrix(basis_fn(parity, k, m - 1), src,
                             op=op).rank() if m > 0 else 0
    cocycles = [GraphVector.from_canonical(
        {src[c]: v for c, v in vec.items()}, parity) for vec in ker]
    return CohomologyReport(parity, k, m, len(ker), rank_prev,
                            len(ker) - rank_prev, src, cocycles)
