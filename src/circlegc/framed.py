"""The framed (crossed) extension of the odd complex.

A cross is an extra decoration on an external vertex; it raises both
gradings by one and swapping two cross labels costs a sign.  Three
operators live here:

* ``delta_framed``: the coboundary of the crossed complex.  It contracts
  edges and arcs as usual and additionally deletes each cross, one at a
  time, replacing it by an external small loop at the same vertex with the
  half-edges ordered along the circle; the cross labelled a on a graph of
  framed degree m contributes the sign (-1)^(m + a).
* ``delta_underline``: the coboundary with the arc contractions between the
  endpoints of short chords left out.  It squares to zero on the uncrossed
  complex.
* ``short_chord_substitution``: the chain map from the underline complex to
  the crossed one.  Each short chord from vertex i to vertex j is traded
  for the difference "keep it" plus (-1)^n sigma(i, j) times "merge its
  endpoints into one crossed vertex", with n the number of vertices of the
  graph at that step; crosses are numbered by the circle position of their
  chords and the result does not depend on the processing order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .graphs import (ODD, WITH_CIRCLE, WITH_ORDER, DecoratedGraph,
                     GraphVector, canonical_form, degree,
                     is_zero_by_relations, perm_sign)
from .coboundary import (ContractionSite, contraction_sites, contract,
                         orientation_sign, _merge_map, _sigma)


def cross_sites(g: DecoratedGraph):
    """Cross labels available for deletion, i.e. 1..x."""
    return list(range(1, g.num_crosses + 1))


def delete_cross(g: DecoratedGraph, label: int):
    """Raw cross deletion: drop cross ``label``, attach a small loop at its
    vertex.  Returns ``(sign, graph)`` before canonicalization."""
    if not 1 <= label <= g.num_crosses:
        raise ValueError("no cross labelled %d" % label)
    vertex = g.crosses[label - 1]
    crosses = g.crosses[:label - 1] + g.crosses[label:]
    loops = g.loops + ((vertex, WITH_CIRCLE, WITH_ORDER),)
    sign = (-1) ** (degree(g) + label)
    out = DecoratedGraph(ODD, g.v_ext, g.v_int, g.edges, loops, crosses)
    return sign, out


def delta_framed(g: DecoratedGraph) -> GraphVector:
    """Coboundary on the crossed odd complex: edge and arc contractions
    plus one term per cross."""
    out = GraphVector(parity=ODD)
    crossed = set(g.crosses)
    for site in contraction_sites(g):
        if site.kind == "arc":
            i = site.index
            j = 1 if i == g.v_ext else i + 1
            # merging two crossed vertices squares an odd form: zero
            if i in crossed and j in crossed:
                continue
        term = contract(g, site)
        if term is not None:
            coeff, canon = term
            out.add_graph(canon, coeff)
    for label in cross_sites(g):
        sign, raw = delete_cross(g, label)
        if is_zero_by_relations(raw):
            continue
        res = canonical_form(raw)
        if res is None:
            continue
        canon, extra = res
        w = orientation_sign(g) * orientation_sign(canon)
        out.add_graph(canon, Fraction(sign * extra * w))
    return out


def delta_framed_vector(v: GraphVector) -> GraphVector:
    out = GraphVector(parity=ODD)
    for coeff, g in v.terms:
        for c, h in delta_framed(g).terms:
            out.add_graph(h, coeff * c)
    return out


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


def delta_underline(g: DecoratedGraph) -> GraphVector:
    """Coboundary without the arc contractions over short chords.

    With two external vertices joined by a chord the two arc contractions
    produce the same signed term; one of the two copies is dropped.
    """
    skip = _suppressed_arcs(g)
    out = GraphVector(parity=g.parity)
    for site in contraction_sites(g):
        if site.kind == "arc":
            if site.index in skip:
                continue
        term = contract(g, site)
        if term is not None:
            coeff, canon = term
            out.add_graph(canon, coeff)
    return out


def delta_underline_vector(v: GraphVector) -> GraphVector:
    out = GraphVector(parity=v.parity)
    for coeff, g in v.terms:
        for c, h in delta_underline(g).terms:
            out.add_graph(h, coeff * c)
    return out


def _substitute(g: DecoratedGraph, idx: int):
    """Merge the endpoints of chord ``idx`` into one crossed vertex.

    The merged vertex takes label min(i, j), higher labels drop by one,
    and the new cross is appended (largest cross label)."""
    i, j = g.edges[idx]
    if not g.is_short_chord(i, j):
        raise ValueError("edge %d is not a short chord" % idx)
    remap = _merge_map(g.num_vertices, i, j)
    edges = tuple((remap(x), remap(y))
                  for t, (x, y) in enumerate(g.edges) if t != idx)
    loops = tuple((remap(v), of, af) for v, of, af in g.loops)
    crosses = tuple(remap(v) for v in g.crosses) + (remap(i),)
    return DecoratedGraph(ODD, g.v_ext - 1, g.v_int, edges, loops, crosses)


def _branch(g: DecoratedGraph, idxs):
    """Substitute the chords with the given edge indices, lowest first.

    Substituting the chord from vertex i to vertex j (read along its
    arrow) in a graph with n vertices contributes the sign
    (-1)^n sigma(i, j), evaluated in the labels of the graph at that
    step.  Returns ``(sign, graph)`` with the crosses numbered by circle
    position, or ``None`` when an intermediate graph is zero (doubled
    edge, or two crosses meeting at one vertex): the substitution steps
    act linearly, so a zero intermediate kills the whole branch.
    """
    sign, h = 1, g
    cur = sorted(idxs)
    while cur:
        idx = cur.pop(0)
        i, j = h.edges[idx]
        sign *= (-1) ** h.num_vertices * _sigma(i, j)
        h = _substitute(h, idx)
        if is_zero_by_relations(h) or \
                len(set(h.crosses)) != len(h.crosses):
            return None
        cur = [t - 1 if t > idx else t for t in cur]
    return sign, h


def short_chord_substitution(g: DecoratedGraph,
                             chord_order=None) -> GraphVector:
    """The chain map into the crossed complex.

    A graph without short chords maps to itself.  Otherwise every short
    chord is expanded as "keep" plus a signed "replace by a crossed
    vertex"; ``chord_order`` (a permutation of the short-chord edge
    indices) sets the numbering of the crosses, which only changes each
    branch by the sign of that permutation, so the result is order
    independent.
    """
    if g.parity != ODD:
        raise ValueError("substitution is defined on the odd complex")
    base = g.short_chords()
    rank_of = {idx: r for r, idx in enumerate(base)}
    chords = base if chord_order is None else list(chord_order)
    out = GraphVector(parity=ODD)
    w0 = orientation_sign(g)
    for r in range(len(chords) + 1):
        for combo in itertools.combinations(chords, r):
            ranks = tuple(rank_of[idx] for idx in combo)
            res = _branch(g, combo)
            if res is None:
                continue
            sign, raw = res
            # _branch numbers the crosses by circle position; renumber them
            # in processing order, which costs the permutation's sign
            order = sorted(range(r), key=lambda t: ranks[t])
            place = {t: p for p, t in enumerate(order)}
            crosses = tuple(raw.crosses[place[t]] for t in range(r))
            raw = DecoratedGraph(ODD, raw.v_ext, raw.v_int, raw.edges,
                                 raw.loops, crosses)
            sign *= perm_sign(ranks)
            cres = canonical_form(raw)
            if cres is None:
                continue
            canon, extra = cres
            out.add_graph(canon, Fraction(sign * extra * w0
                                          * orientation_sign(canon)))
    return out


def short_chord_substitution_vector(v: GraphVector) -> GraphVector:
    out = GraphVector(parity=ODD)
    for coeff, g in v.terms:
        for c, h in short_chord_substitution(g).terms:
            out.add_graph(h, coeff * c)
    return out
