"""Uni-trivalent graphs on a circle, STU reduction, and gl(N) weights.

A BN graph is an oriented circle with univalent endpoints plus trivalent
inner vertices, each inner vertex carrying a cyclic orientation of its
three half-edges; reversing the orientation at one vertex multiplies the
graph by -1.  One STU step (``_resolve_once``) resolves an inner vertex
with a leg on the circle into the difference of the two ways of sliding
its remaining half-edges onto the circle.  Resolving a one-vertex graph
through two different legs gives an STU relation between chord
diagrams: ``a_space_dim`` takes the rank of these relations, and the
gl(N) criterion checks that the weight kills them.  The gl(N) weight of
a chord diagram is N^c where c counts the closed curves obtained by
traversing the circle and jumping along chords.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple


# ----------------------------------------------------------------------
# chord diagrams


class ChordDiagram(NamedTuple):
    """A circle with 2k points joined in pairs by chords, identified,
    hashed and ordered as the tuple ``(chords, mark)``.

    ``chords`` lists position pairs (a, b) with 1 <= a < b <= 2k; the
    positions 1..2k sit on the circle in cyclic order.  ``mark`` is the
    index of the arc carrying the marked point (arc t runs from point t to
    its successor), or None.  Diagrams are only compared with diagrams
    marked alike, so ``None`` is never ordered against an arc.
    """
    chords: tuple
    mark: int = None

    @property
    def num_points(self) -> int:
        return 2 * len(self.chords)

    def validate(self):
        seen = sorted(p for pair in self.chords for p in pair)
        if seen != list(range(1, self.num_points + 1)):
            raise ValueError("chord endpoints must hit 1..2k exactly once")
        if self.mark is not None and self.chords and \
                not 1 <= self.mark <= self.num_points:
            raise ValueError("mark out of range")

    def rotated(self, r: int) -> "ChordDiagram":
        n = self.num_points
        if n == 0:
            return self

        def m(p):
            return (p - 1 + r) % n + 1

        chords = tuple(sorted(tuple(sorted((m(a), m(b))))
                              for a, b in self.chords))
        mark = None if self.mark is None else m(self.mark)
        return ChordDiagram(chords, mark)

    def canonical(self) -> "ChordDiagram":
        """Least representative over all rotations of the circle."""
        n = self.num_points
        if n == 0:
            return ChordDiagram(())
        return min(self.rotated(r) for r in range(n))


# ----------------------------------------------------------------------
# weight polynomials


class WeightPolynomial:
    """Integer polynomial in the rank indeterminate N."""

    def __init__(self, coeffs=None):
        self.coeffs = {}
        for power, c in dict(coeffs or {}).items():
            if c:
                self.coeffs[int(power)] = c

    @classmethod
    def monomial(cls, power, coeff=1):
        return cls({power: coeff})

    def __add__(self, other):
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0) + c
        return WeightPolynomial(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0) - c
        return WeightPolynomial(out)

    def scaled(self, f):
        return WeightPolynomial({p: c * f for p, c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, WeightPolynomial) and \
            self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, n):
        return sum(c * n ** p for p, c in self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for p in sorted(self.coeffs, reverse=True):
            c = self.coeffs[p]
            term = "N^%d" % p if p > 1 else ("N" if p == 1 else "1")
            if c == 1 and p:
                bits.append(term)
            elif c == -1 and p:
                bits.append("-" + term)
            else:
                bits.append("%s*%s" % (c, term) if p else str(c))
        return " + ".join(bits).replace("+ -", "- ")


def gl_weight(d: ChordDiagram) -> WeightPolynomial:
    """gl(N) weight of a chord diagram in the defining representation.

    Each chord inserts the Casimir sum E_ij (x) E_ji at its endpoints;
    tracing around the circle the Kronecker deltas close up into loops:
    follow an arc to a chord endpoint, jump to the other endpoint, and
    continue along the circle.  The result is N to the number of loops.
    """
    n = d.num_points
    if n == 0:
        return WeightPolynomial.monomial(1)
    partner = {}
    for a, b in d.chords:
        partner[a] = b
        partner[b] = a
    seen = set()
    cycles = 0
    for start in range(1, n + 1):
        if start in seen:
            continue
        cycles += 1
        t = start
        while t not in seen:
            seen.add(t)
            end = t % n + 1
            t = partner[end]
    return WeightPolynomial.monomial(cycles)


def gl_weight_by_traces(d: ChordDiagram, N: int) -> int:
    """Evaluate the gl(N) weight by literal matrix traces.

    Each chord sums E_ij at one endpoint against E_ji at the other; the
    circle multiplies the inserted matrices in cyclic order and takes
    the trace.  Brute force over all N^(2k) index assignments at once, one
    batched matrix product per circle point, as a slow independent check
    of ``gl_weight``.
    """
    import numpy as np          # only this oracle needs numpy
    n = d.num_points
    if n == 0:
        return N          # trace of the identity: the bare circle
    # row 2c and 2c + 1 of ``assign``: the indices (i, j) chord c carries,
    # one column per assignment
    assign = np.indices((N,) * n).reshape(n, -1)
    ends = {}
    for c, (a, b) in enumerate(d.chords):
        ends[a] = (2 * c, 2 * c + 1)        # E_ij
        ends[b] = (2 * c + 1, 2 * c)        # E_ji
    units = np.zeros((N, N, N, N), dtype=np.int64)
    for i in range(N):
        for j in range(N):
            units[i, j, i, j] = 1
    mat = np.eye(N, dtype=np.int64)
    for p in range(1, n + 1):
        row, col = ends[p]
        mat = mat @ units[assign[row], assign[col]]
    return int(np.trace(mat, axis1=1, axis2=2).sum())


# ----------------------------------------------------------------------
# BN graphs and the STU rewrite

CIRCLE = "c"
INNER = "v"


class BNGraph(NamedTuple):
    """Circle with univalent points 1..n_circle plus trivalent inner
    vertices 1..n_inner.

    Each edge joins two ends; an end is ("c", point) or ("v", vertex,
    slot) with slot in {0, 1, 2}.  The slot numbers give the cyclic
    orientation at the vertex; swapping two slots is the same graph with
    the opposite sign, which callers account for themselves.
    """
    n_circle: int
    n_inner: int
    edges: tuple


def chord_diagram_of(g: BNGraph) -> ChordDiagram:
    if g.n_inner:
        raise ValueError("graph still has inner vertices")
    chords = tuple(sorted(tuple(sorted((x[1], y[1])))
                          for x, y in g.edges))
    return ChordDiagram(chords)


def _resolve_once(g: BNGraph, vertex: int, slot: int):
    """One STU step at the given circle-attached slot.

    The leg at ``slot`` ends on circle point p.  The point splits in two;
    reading the vertex orientation onward from the leg, the last half-edge
    lands first (at p) and the next lands second (at the new point after
    p) in the positive term, and the other way around in the negative one.
    The convention makes the tripod resolve to N^3 - N under the gl(N)
    weight, matching the structure constant contraction.
    Returns [(+1, graph), (-1, graph)].
    """
    leg = None
    others = {}
    rest = []
    for x, y in g.edges:
        ends = (x, y)
        hit = [e for e in ends if e[0] == INNER and e[1] == vertex]
        if not hit:
            rest.append((x, y))
            continue
        if len(hit) == 2:
            raise ValueError("self-loop at an inner vertex")
        other = ends[0] if ends[1] in hit else ends[1]
        s = hit[0][2]
        if s == slot:
            if other[0] != CIRCLE:
                raise ValueError("slot does not lead to the circle")
            leg = other[1]
        else:
            others[s] = other
    if leg is None:
        raise ValueError("no circle leg at that slot")
    first = others[(slot + 1) % 3]
    second = others[(slot + 2) % 3]

    def rebuild(end_at_p, end_at_q, p, q):
        def shift(end):
            if end[0] == CIRCLE and end[1] > leg:
                return (CIRCLE, end[1] + 1)
            return end

        def renumber(end):
            if end[0] == INNER:
                v, s = end[1], end[2]
                if v > vertex:
                    return (INNER, v - 1, s)
            return end

        edges = [(renumber(shift(x)), renumber(shift(y))) for x, y in rest]
        edges.append((renumber(shift(end_at_p)), (CIRCLE, p)))
        edges.append((renumber(shift(end_at_q)), (CIRCLE, q)))
        return BNGraph(g.n_circle + 1, g.n_inner - 1, tuple(edges))

    p, q = leg, leg + 1
    return [(1, rebuild(second, first, p, q)),
            (-1, rebuild(first, second, p, q))]


# ----------------------------------------------------------------------
# the algebra of chord diagrams modulo STU


def _matchings(points):
    """Perfect matchings of an ordered point list, as pair tuples."""
    if not points:
        yield ()
        return
    a, rest = points[0], points[1:]
    for i, b in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:]):
            yield ((a, b),) + tail


@lru_cache(maxsize=None)
def chord_diagram_basis(k: int):
    """Canonical k-chord diagrams up to rotation, sorted."""
    return sorted({ChordDiagram(m).canonical()
                   for m in _matchings(tuple(range(1, 2 * k + 1)))})


def _one_vertex_graphs(k: int):
    """Degree-k BN graphs with a single inner vertex, all legs on the
    circle, up to nothing (duplicates are harmless for rank purposes)."""
    n = 2 * k - 1
    out = []
    for legs in itertools.combinations(range(1, n + 1), 3):
        others = [p for p in range(1, n + 1) if p not in legs]
        for m in _matchings(tuple(others)):
            edges = tuple(((INNER, 1, s), (CIRCLE, p))
                          for s, p in enumerate(legs))
            edges += tuple(((CIRCLE, a), (CIRCLE, b)) for a, b in m)
            out.append(BNGraph(n, 1, edges))
    return out


@lru_cache(maxsize=None)
def a_space_dim(k: int) -> int:
    """Dimension of the degree-k chord diagram space modulo STU.

    Brute force: span the canonical k-chord diagrams, generate every
    relation obtained by resolving a one-vertex graph through two
    different circle legs, and subtract the rank of the relation matrix.
    """
    if k < 0:
        raise ValueError("negative degree")
    basis = chord_diagram_basis(k)
    index = {d: i for i, d in enumerate(basis)}
    rows = []
    for g in _one_vertex_graphs(k):
        expansions = []
        for slot in (0, 1, 2):
            vec = {}
            for s, h in _resolve_once(g, 1, slot):
                i = index[chord_diagram_of(h).canonical()]
                vec[i] = vec.get(i, 0) + s
            expansions.append(vec)
        # zero entries, and so empty rows, are dropped by the elimination
        for x, y in itertools.combinations(expansions, 2):
            rows.append({i: x.get(i, 0) - y.get(i, 0)
                         for i in x.keys() | y.keys()})
    from .homology import _rank
    return len(basis) - _rank(rows, len(basis))
