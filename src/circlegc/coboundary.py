"""The coboundary: one engine behind ``delta``, ``delta_underline`` and
``delta_framed``.

The coboundary of a graph is a signed sum over its principal faces: one
contraction per site, then one deletion per cross.  A site is either a
regular edge (an edge that is neither a chord nor a small loop, i.e. with
at least one internal endpoint) or an arc (the circle segment between two
cyclically consecutive external vertices).  Contracting the arc between
the endpoints of a short chord turns that chord into an external small
loop whose half-edges are ordered consistently with the circle
orientation.  Deleting a cross puts such a small loop on its vertex.

``_coboundary`` is the one engine.  ``delta`` runs it on every site, so on
a crossed graph it is the crossed coboundary ``framed.delta_framed``;
``framed.delta_underline`` leaves out the arcs over short chords.  Every
raw term, ``framed.short_chord_substitution``'s included, goes through
``_add_term``: zero by the relations, canonical form, orientation weight.
Each term costs one ``canonical_form`` lookup: ``_add_term`` adds its
signed coefficient straight into a map from canonical graphs to Python
``int``s.  The engine returns that map with its zeros dropped; each public
operator turns it into a ``GraphVector`` of ``Fraction``s once, before it
returns.  ``compose`` is the one linear extension: it extends any map
from canonical graphs to coefficient maps, a public operator or an
engine ``int`` map alike, since a ``GraphVector`` is its coefficient map.
The d^2 checks of ``verification`` compose the ``int`` maps themselves,
with no ``Fraction`` at all.

Signs: contracting the edge or arc joining vertex i to vertex j, ordered
along the edge arrow (odd) or the circle orientation (arcs), contributes
(-1)^j for j > i and (-1)^(i+1) for j < i.  In even parity an edge
contraction instead uses its label a and contributes (-1)^(a+1+v_ext) with
v_ext counted before the contraction.  Deleting the cross labelled a on a
graph of degree m contributes (-1)^(m + a).

After a contraction the merged vertex takes the label min(i, j) and every
label above max(i, j) drops by one; in even parity, edge labels above a
contracted edge's label drop by one as well.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (ODD, EVEN, WITH_CIRCLE, WITH_ORDER, AGAINST_ORDER,
                     DecoratedGraph, GraphVector, canonical_form, degree,
                     edge_pair, is_zero_by_relations)


class ContractionSite(NamedTuple):
    """A regular edge (by index into ``edges``) or an arc (by the label of
    the external vertex at which the arc starts)."""
    kind: str            # "edge" or "arc"
    index: int


def contraction_sites(g: DecoratedGraph):
    """All sites ``delta`` acts on, in a deterministic order."""
    sites = [ContractionSite("edge", i) for i, (a, b) in enumerate(g.edges)
             if not (g.is_external(a) and g.is_external(b))]
    if g.v_ext >= 2:
        sites.extend(ContractionSite("arc", i) for i in range(1, g.v_ext + 1))
    return sites


def _merge_labels(n: int, i: int, j: int) -> list:
    """``new[v]``, for v in 0..n: the label of vertex v once vertices i
    and j merge into min(i, j) and every label above max(i, j) drops by
    one."""
    lo, hi = min(i, j), max(i, j)
    new = list(range(n + 1))
    new[hi] = lo
    new[hi + 1:] = range(hi, n)
    return new


def _merge_edge(g: DecoratedGraph, idx: int):
    """``(edges, loops, crosses)`` of ``g`` once the endpoints of edge
    ``idx`` merge (``_merge_labels``) and that edge is dropped."""
    new = _merge_labels(g.num_vertices, *g.edges[idx])
    edges = tuple([edge_pair(new[x], new[y])
                   for k, (x, y) in enumerate(g.edges) if k != idx])
    loops = tuple([(new[v], of, af) for v, of, af in g.loops])
    crosses = tuple([new[v] for v in g.crosses])
    return edges, loops, crosses


def _sigma(i: int, j: int) -> int:
    """Sign for contracting the edge or arc from vertex i to vertex j."""
    return (-1) ** j if j > i else (-1) ** (i + 1)


def contract_raw(g: DecoratedGraph, site: ContractionSite):
    """Perform one contraction without canonicalizing.

    Returns ``(sign, graph)``; the graph may still be zero by the multiple
    edge relation.  Raises on chords, small loops, or invalid sites.
    ``g`` must be well formed (``graphs.validate``): its labels index the
    relabelling.
    """
    if site.kind == "edge":
        return _contract_edge(g, site.index)
    if site.kind == "arc":
        return _contract_arc(g, site.index)
    raise ValueError("unknown contraction site kind %r" % (site.kind,))


def _contract_edge(g: DecoratedGraph, idx: int):
    if not 0 <= idx < len(g.edges):
        raise ValueError("edge index out of range")
    a, b = g.edges[idx]
    if a == b:
        raise ValueError("cannot contract a small loop")
    if g.is_external(a) and g.is_external(b):
        raise ValueError("cannot contract a chord")
    edges, loops, crosses = _merge_edge(g, idx)
    if g.parity == ODD:
        sign = _sigma(a, b)
    else:
        alpha = idx + 1
        sign = (-1) ** (alpha + 1 + g.v_ext)
    out = DecoratedGraph(g.parity, g.v_ext, g.v_int - 1, edges, loops,
                         crosses)
    return sign, out


def _contract_arc(g: DecoratedGraph, start: int):
    if g.v_ext < 2:
        raise ValueError("no contractible arc with a single external vertex")
    if not 1 <= start <= g.v_ext:
        raise ValueError("arc index out of range")
    i = start
    j = 1 if i == g.v_ext else i + 1
    new = _merge_labels(g.num_vertices, i, j)
    sign = _sigma(i, j)
    chord = ((i, j), (j, i))
    edges = []
    loops = [(new[v], of, af) for v, of, af in g.loops]
    for e in g.edges:
        a, b = e
        if e in chord:
            # A short chord between the arc's endpoints becomes an external
            # small loop.  Its first half-edge, in the ordering consistent
            # with the circle orientation, is the end at vertex i.
            if g.parity == ODD:
                arrow = WITH_ORDER if a == i else AGAINST_ORDER
                loops.append((new[i], WITH_CIRCLE, arrow))
            else:
                edges.append(edge_pair(new[i], new[i]))
        else:
            edges.append(edge_pair(new[a], new[b]))
    crosses = tuple([new[v] for v in g.crosses])
    out = DecoratedGraph(g.parity, g.v_ext - 1, g.v_int, tuple(edges),
                         tuple(loops), crosses)
    return sign, out


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


def orientation_sign(g: DecoratedGraph) -> int:
    """Per-class orientation of the basis vector entering ``delta``.

    Every coboundary term is weighted by the product of the orientation
    signs of its source and its target.  Since the factor is a class
    function, this is a diagonal change of basis: delta still squares to
    zero and all cohomology dimensions are unchanged.  The normalization is
    chosen so that the classical low-order trivalent cocycles appear with
    their textbook coefficients: even graphs are weighted by the parity of
    their chord crossing number, odd graphs by whether the circle carries
    fewer than three external vertices.
    """
    if g.parity == EVEN:
        return -1 if g.chord_crossings() % 2 else 1
    return -1 if g.v_ext <= 2 else 1


def _add_term(acc: dict, sign: int, raw: DecoratedGraph,
              weight: int) -> None:
    """Add ``sign * [raw]`` to ``acc``, a map from canonical graphs to
    ``int`` coefficients, unless ``raw`` is zero, weighted by ``weight``
    (the source's orientation sign) times the target's."""
    if is_zero_by_relations(raw):
        return
    res = canonical_form(raw)
    if res is None:
        return
    canon, extra = res
    acc[canon] = (acc.get(canon, 0)
                  + sign * extra * weight * orientation_sign(canon))


def _nonzero(acc: dict) -> dict:
    """``acc`` without its zero coefficients."""
    return {h: c for h, c in acc.items() if c}


def _coboundary(g: DecoratedGraph, skip_arcs=()) -> dict:
    """Signed sum over the sites of ``g``, the arcs starting at a vertex in
    ``skip_arcs`` left out, plus one term per cross, as a map from
    canonical graphs to nonzero ``int`` coefficients; empty on a graph
    zero by the relations."""
    if is_zero_by_relations(g):
        return {}
    acc = {}
    weight = orientation_sign(g)
    for site in contraction_sites(g):
        if site.kind == "edge" or site.index not in skip_arcs:
            _add_term(acc, *contract_raw(g, site), weight)
    for label in range(1, g.num_crosses + 1):
        _add_term(acc, *delete_cross(g, label), weight)
    return _nonzero(acc)


def delta(g: DecoratedGraph) -> GraphVector:
    """Coboundary of a single graph: signed sum over all contractions and,
    on a framed graph, all cross deletions.

    Every term has the same order as ``g`` and degree one higher.
    """
    return GraphVector(g.parity, _coboundary(g))


def compose(op, terms: dict) -> dict:
    """``op``, a map from canonical graphs to ``{canonical graph:
    coefficient}`` maps such as ``_coboundary`` or ``delta``, extended
    linearly to ``terms``, a map of the same kind, in the coefficients'
    own arithmetic (``int`` for the engine's maps); zeros dropped."""
    acc = {}
    for g, c in terms.items():
        for h, d in op(g).items():
            acc[h] = acc.get(h, 0) + c * d
    return _nonzero(acc)


def delta_vector(v: GraphVector) -> GraphVector:
    """Linear extension of ``delta`` to graph vectors."""
    return GraphVector(v.parity, compose(delta, v))
