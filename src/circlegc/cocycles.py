"""Explicit low-order trivalent cocycles.

These are the classical closed combinations of trivalent graphs at
orders two and three, in both parities, with their textbook
coefficients.  Each builder returns a ``GraphVector`` whose terms are
already canonicalized; closure under the coboundary is exact and is
asserted by the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import ODD, EVEN, DecoratedGraph, GraphVector, edge_pair


def _vec(parity, terms):
    out = GraphVector(parity=parity)
    for coeff, v_ext, v_int, edges in terms:
        g = DecoratedGraph(parity, v_ext, v_int,
                           tuple([edge_pair(a, b) for a, b in edges]))
        out.add_graph(g, Fraction(*coeff))
    return out


def order2_cocycle(parity: str) -> GraphVector:
    """One quarter of the crossed chord diagram minus one third of the
    tripod; the unique closed trivalent combination at order two."""
    return _vec(parity, [
        ((1, 4), 4, 0, [(1, 3), (2, 4)]),
        ((-1, 3), 3, 1, [(1, 4), (2, 4), (3, 4)]),
    ])


def order3_cocycle_odd() -> GraphVector:
    """The unique closed trivalent combination of odd type at order
    three, with six terms."""
    return _vec(ODD, [
        ((1, 2), 4, 2, [(1, 5), (2, 6), (3, 6), (4, 5), (5, 6)]),
        ((1, 3), 6, 0, [(1, 4), (2, 5), (3, 6)]),
        ((1, 3), 3, 3, [(1, 4), (2, 6), (3, 5), (6, 4), (6, 5), (5, 4)]),
        ((-1, 1), 5, 1, [(1, 6), (2, 5), (3, 6), (4, 6)]),
        ((-1, 2), 6, 0, [(1, 4), (2, 6), (3, 5)]),
        ((1, 2), 2, 4, [(1, 3), (2, 5), (5, 4), (5, 6), (6, 4), (6, 3),
                        (4, 3)]),
    ])


def order3_cocycle_even() -> GraphVector:
    """The unique closed trivalent combination of even type at order
    three, with six terms."""
    return _vec(EVEN, [
        ((1, 2), 4, 2, [(1, 5), (2, 6), (3, 6), (4, 5), (5, 6)]),
        ((-1, 2), 4, 2, [(1, 5), (2, 6), (3, 5), (4, 6), (5, 6)]),
        ((-1, 2), 6, 0, [(1, 5), (2, 4), (3, 6)]),
        ((1, 1), 5, 1, [(1, 6), (2, 5), (3, 6), (4, 6)]),
        ((1, 1), 3, 3, [(1, 4), (2, 5), (3, 6), (4, 5), (5, 6), (6, 4)]),
        ((-3, 2), 2, 4, [(1, 3), (2, 4), (3, 5), (3, 6), (4, 6), (4, 5),
                         (5, 6)]),
    ])
