"""Exact linear algebra over the rationals for the graph complexes.

Matrices of a coboundary between two bases the caller builds (each
basis once per walk over the degrees), kernels and ranks, and cohomology
dimensions dim H = dim ker - rank of the incoming map.

A matrix has one layout: its columns, one sparse ``{row: value}`` map
per source basis graph, and its row count.  Only its rank and its
kernel are read, so there is no row copy and no matrix product: d^2 = 0
is checked graph by graph (``verification.criterion_dsquared``).

Ranks and kernels come from one sparse exact elimination over Q, run on
one of two paths.  Either way each column is cleared of denominators
and reduced against the pivot vectors found so far, kept as sparse
integer vectors; a column that does not reduce to zero becomes a pivot
column, pivoting on the row that meets the fewest columns.

* The kernel path (``_kernel``) walks the columns in index order, and
  each vector carries its combination ``comb`` of columns, with
  ``vec == sum(comb[c] * column c)`` throughout.  So the pivot columns
  are those of the reduced row echelon form, and a column that reduces
  to zero leaves in ``comb`` a multiple of the RREF kernel vector of
  that free column.  With the first nonzero coefficient normalized to
  +1, the kernel basis and its order do not depend on which row each
  pivot sits in.  Each kernel vector is returned sparse, as a
  ``{column: Fraction}`` map of its nonzero coefficients, and the
  reports print these vectors.
* The rank path (``_rank``) walks the columns sparsest first and
  carries no combination: the rank does not depend on the column
  order, and nothing else is read from it.

The rank path's own order and the pivot rule are kept for speed, as
measured on the order-5 matrices of degrees 1..3, both parities, on a
2-core VM: a rank in index order is 4 to 16 times slower (even
delta(5,2): 31.1 s against 1.9 s), and pivoting on the lowest row
instead of the row meeting the fewest columns is 2 to 32 times slower
(odd delta(5,2): 28.5 s against 0.9 s).

Everything is deterministic: bases are sorted by canonical encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
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
    """Sparse exact column elimination, on the kernel path or the rank
    path of the module docstring.

    ``cols`` holds one {row: value} map per column; a zero value is
    dropped.  Column j enters as ``den`` times itself, ``den`` the lcm
    of its denominators, with ``comb = {j: den}`` on the kernel path,
    and each reduction step divides ``vec`` (and ``comb``) by the gcd of
    their entries.  Returns the kernel vectors (``with_kernel``), one per
    dependent column in column order, or the rank.
    """
    meets = {}
    for col in cols:
        for i in col:
            meets[i] = meets.get(i, 0) + 1
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
        if with_kernel:
            comb = {j: den}
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
            lead = comb[min(comb)]
            kernel.append({c: Fraction(comb[c], lead) for c in sorted(comb)})
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
               op=delta, basis_fn=None) -> CohomologyReport:
    """Exact cohomology at bidegree (k, m) for the chosen coboundary.

    ``basis_fn(k, m)`` gives the basis of degree m, by default
    ``partial(basis, parity)``.  Each of the bases of degrees m, m + 1
    and m - 1 is built once, in that order: the kernel of the outgoing
    matrix is taken, and that matrix dropped, before the incoming one is
    built for its rank."""
    if basis_fn is None:
        basis_fn = partial(basis, parity)
    src = basis_fn(k, m)
    ker = delta_matrix(src, basis_fn(k, m + 1), op=op).kernel()
    # every basis at degree -1 is empty
    rank_prev = delta_matrix(basis_fn(k, m - 1), src,
                             op=op).rank() if m > 0 else 0
    cocycles = [GraphVector(parity, {src[c]: v for c, v in vec.items()})
                for vec in ker]
    return CohomologyReport(parity, k, m, len(ker), rank_prev,
                            len(ker) - rank_prev, src, cocycles)
