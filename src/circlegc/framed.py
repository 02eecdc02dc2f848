"""The framed (crossed) extension of the odd complex.

A cross is an extra decoration on an external vertex; it raises both
gradings by one and swapping two cross labels costs a sign.  Two crosses
on one vertex square an odd form, so such a graph is zero
(``graphs.is_zero_by_relations``).  Three operators live here, all built
on the one coboundary engine of ``coboundary``:

* ``delta_framed``: the coboundary of the crossed complex, which is
  ``delta`` itself (edge and arc contractions, then one deletion per
  cross), restricted to the odd parity.
* ``delta_underline``: the coboundary with the arc contractions between the
  endpoints of short chords left out.  It squares to zero on the uncrossed
  complex.
* ``short_chord_substitution``: the chain map from the underline complex to
  the crossed one.  Each short chord from vertex i to vertex j is traded
  for the difference "keep it" plus (-1)^n sigma(i, j) times "merge its
  endpoints into one crossed vertex", with n the number of vertices of the
  graph at that step; crosses are numbered in the processing order of
  their chords and the result does not depend on that order.  Its terms
  go through the engine's ``_add_term``.

Each operator is a ``GraphVector`` wrapper over an ``int`` map:
``_coboundary`` for ``delta_framed``, ``_underline`` and
``_substitution`` for the other two.
"""

from __future__ import annotations

import itertools

from .graphs import ODD, DecoratedGraph, GraphVector, is_zero_by_relations
from .coboundary import (_add_term, _coboundary, _merge_edge, _nonzero,
                         _sigma, compose, orientation_sign)


def delta_framed(g: DecoratedGraph) -> GraphVector:
    """Coboundary on the crossed odd complex: edge and arc contractions
    plus one term per cross."""
    if g.parity != ODD:
        raise ValueError("the crossed complex is odd: parity mismatch")
    return GraphVector(ODD, _coboundary(g))


def _suppressed_arcs(g: DecoratedGraph):
    """Arc start vertices whose endpoints carry a short chord."""
    out = set()
    for idx in g.short_chords():
        a, b = g.edges[idx]
        lo, hi = min(a, b), max(a, b)
        if hi - lo == 1:
            out.add(lo)
        else:                       # the wrap-around chord {1, v_ext}
            out.add(hi)
    return out


def _underline(g: DecoratedGraph) -> dict:
    """The engine's ``int`` map behind ``delta_underline``."""
    return _coboundary(g, _suppressed_arcs(g))


def delta_underline(g: DecoratedGraph) -> GraphVector:
    """Coboundary without the arc contractions over short chords.

    With two external vertices joined by a chord the two arc contractions
    produce the same signed term; one of the two copies is dropped.
    """
    return GraphVector(g.parity, _underline(g))


def delta_underline_vector(v: GraphVector) -> GraphVector:
    """Linear extension of ``delta_underline`` to graph vectors."""
    return GraphVector(v.parity, compose(delta_underline, v))


def _substitute(g: DecoratedGraph, idx: int):
    """Merge the endpoints of chord ``idx`` into one crossed vertex.

    The merged vertex takes label min(i, j), higher labels drop by one,
    and the new cross is appended (largest cross label)."""
    i, j = g.edges[idx]
    if not g.is_short_chord(i, j):
        raise ValueError("edge %d is not a short chord" % idx)
    edges, loops, crosses = _merge_edge(g, idx)
    crosses += (min(i, j),)
    return DecoratedGraph(ODD, g.v_ext - 1, g.v_int, edges, loops, crosses)


def _branch(g: DecoratedGraph, idxs):
    """Substitute the chords with the given edge indices, in the order
    given.

    Substituting the chord from vertex i to vertex j (read along its
    arrow) in a graph with n vertices contributes the sign
    (-1)^n sigma(i, j), evaluated in the labels of the graph at that
    step.  Returns ``(sign, graph)`` with the crosses numbered in
    processing order, or ``None`` when an intermediate graph is zero by
    the relations (a doubled edge, or two crosses meeting at one vertex):
    the substitution steps act linearly, so a zero intermediate kills the
    whole branch.
    """
    sign, h = 1, g
    cur = list(idxs)
    while cur:
        idx = cur.pop(0)
        i, j = h.edges[idx]
        sign *= (-1) ** h.num_vertices * _sigma(i, j)
        h = _substitute(h, idx)
        if is_zero_by_relations(h):
            return None
        cur = [t - 1 if t > idx else t for t in cur]
    return sign, h


def _substitution(g: DecoratedGraph, chord_order=None) -> dict:
    """The engine's ``int`` map behind ``short_chord_substitution``."""
    if g.parity != ODD or g.crosses:
        raise ValueError("substitution needs an uncrossed odd graph")
    chords = g.short_chords() if chord_order is None else list(chord_order)
    acc = {}
    weight = orientation_sign(g)
    for r in range(len(chords) + 1):
        for combo in itertools.combinations(chords, r):
            res = _branch(g, combo)
            if res is not None:
                _add_term(acc, *res, weight)
    return _nonzero(acc)


def short_chord_substitution(g: DecoratedGraph,
                             chord_order=None) -> GraphVector:
    """The chain map into the crossed complex.

    A graph without short chords maps to itself.  Otherwise every short
    chord is expanded as "keep" plus a signed "replace by a crossed
    vertex"; ``chord_order`` (a permutation of the short-chord edge
    indices, by default the edge order) is the order in which the chords
    are substituted, and so numbers the crosses.  Each step's sign is
    read in the labels of its own step, and the result does not depend
    on the order.
    """
    return GraphVector(ODD, _substitution(g, chord_order))
