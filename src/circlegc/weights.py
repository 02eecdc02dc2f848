"""Chord diagrams, their STU relations, and gl(N) weights.

A one-vertex graph is an oriented circle with one trivalent inner
vertex, whose three legs end on the circle, plus chords.  Resolving the
vertex through one leg (STU) gives the difference of the two ways of
sliding its other half-edges onto the circle, and two resolutions of the
same graph differ by an STU relation between chord diagrams.
``_stu_expansions`` forms these resolutions, the one home of the STU
relations: ``a_space_dim`` takes the rank of the relations, and the
gl(N) criterion checks that the weight kills them.  The gl(N) weight of
a chord diagram is N^c where c counts the closed curves obtained by
traversing the circle and jumping along chords.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .homology import _rank


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
        if self.mark is not None and not 1 <= self.mark <= self.num_points:
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

    def scaled(self, f):
        return WeightPolynomial({p: c * f for p, c in self.coeffs.items()})

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
    """Canonical k-chord diagrams up to rotation, sorted.  A matching not
    yet seen starts a new class, and all the rotations of its canonical
    diagram are then seen, so each class is canonicalized once."""
    classes = []
    seen = set()
    for m in _matchings(tuple(range(1, 2 * k + 1))):
        d = ChordDiagram(m)
        if d not in seen:
            d = d.canonical()
            classes.append(d)
            seen.update(d.rotated(r) for r in range(2 * k))
    return sorted(classes)


def _diagram(chords) -> ChordDiagram:
    return ChordDiagram(tuple(sorted(tuple(sorted(c)) for c in chords)))


def _stu_expansions(k: int):
    """The STU expansions of every degree-k graph with one inner vertex.

    Such a graph has 2k - 1 circle points: the inner vertex's legs end
    on p0 < p1 < p2, read in that cyclic order, and chords match the
    other points.  For each graph this yields three expansions, one per
    leg slot, each a list [(+1, D), (-1, D')] of chord diagrams.  The leg
    at ``slot`` ends on point p, which splits in two, and the points above
    p shift up by one.  In D the leg at slot + 2 lands at p and the leg at
    slot + 1 at p + 1; D' swaps them.  The convention makes the tripod
    resolve to N^3 - N under the gl(N) weight, matching the structure
    constant contraction.  Two expansions of one graph differ by an STU
    relation.
    """
    n = 2 * k - 1
    for legs in itertools.combinations(range(1, n + 1), 3):
        others = tuple(p for p in range(1, n + 1) if p not in legs)
        for m in _matchings(others):
            expansions = []
            for slot, p in enumerate(legs):
                def up(q):
                    return q + 1 if q > p else q

                chords = [(up(a), up(b)) for a, b in m]
                first = up(legs[(slot + 1) % 3])
                second = up(legs[(slot + 2) % 3])
                expansions.append(
                    [(1, _diagram(chords + [(second, p), (first, p + 1)])),
                     (-1, _diagram(chords + [(first, p), (second, p + 1)]))])
            yield expansions


@lru_cache(maxsize=None)
def a_space_dim(k: int) -> int:
    """Dimension of the degree-k chord diagram space modulo STU.

    Brute force: span the canonical k-chord diagrams, take the
    difference of every two STU expansions of one one-vertex graph as a
    relation, and subtract the rank of the relation matrix.  Each
    expanded diagram is found among the rotations of its canonical one.
    """
    if k < 0:
        raise ValueError("negative degree")
    basis = chord_diagram_basis(k)
    index = {d.rotated(r): i for i, d in enumerate(basis)
             for r in range(2 * k)}
    cols = [{} for _ in basis]       # diagram -> {relation: entry}
    nrel = 0
    for expansions in _stu_expansions(k):
        vecs = []
        for expansion in expansions:
            vec = {}
            for s, d in expansion:
                i = index[d]
                vec[i] = vec.get(i, 0) + s
            vecs.append(vec)
        for x, y in itertools.combinations(vecs, 2):
            for i in x.keys() | y.keys():
                v = x.get(i, 0) - y.get(i, 0)
                if v:
                    cols[i][nrel] = v
            nrel += 1
    return len(basis) - _rank(cols, nrel)
