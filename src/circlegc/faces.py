"""Codimension-one face taxonomy and vanishing checks.

The configuration-space integrals behind the graph complexes live on
compactified configuration spaces of points on a circle mapped into an
ambient space of dimension n.  Their codimension-one boundary faces come
in three types:

* Type I: s >= 2 of the ambient points collapse together;
* Type II: s >= 1 of the ambient points escape to infinity together;
* Type III: r >= 1 consecutive circle points and s >= 0 ambient points
  collapse together, with r + s >= 2.

A face is principal when at most two points are involved: type I with
s = 2, type II with s = 1, or type III with r + s = 2.  All other faces
are hidden.  Each face of a given graph is encoded by an admissible
subgraph: a subset of vertices (internal only for type I, internal plus a
formal point at infinity for type II, a consecutive run of external
vertices plus any internal subset for type III) together with the induced
edges and arcs.

Principal faces reproduce exactly the contraction terms of the coboundary
operator.  Hidden faces must contribute nothing; this module certifies
that combinatorially, face by face, through three valence lemmas (a
vertex of a hidden subgraph with no induced edge, or an internal vertex
with one or two induced edges, forces the integral to vanish) and a
degree count on what is left.  The degree count is strict for n > 3; for
n = 3 the type III bound can be met with equality, and such faces are
reported as unresolved rather than silently dropped.  An optional flag
handles parameter-dependent forms, where the thresholds rise by one: the
type III bound then leaves r + s = 3 faces non-strict at n = 4 and
n = 5 (and r + s = 4 faces at n = 4), and is strict from n = 6 on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .graphs import DecoratedGraph
from .coboundary import ContractionSite, contraction_sites

TYPE_I = "I"
TYPE_II = "II"
TYPE_III = "III"

ZERO_BY_LEMMA_1 = "ZeroByLemma1"
ZERO_BY_LEMMA_2 = "ZeroByLemma2"
ZERO_BY_LEMMA_3 = "ZeroByLemma3"
ZERO_BY_DEGREE_COUNT = "ZeroByDegreeCount"
PRINCIPAL_CONTRIBUTION = "PrincipalContribution"
UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class FaceDescriptor:
    """One codimension-one face shape: its type, the counts r and s of
    collapsing circle and ambient points, and the ambient dimension n."""
    face_type: str
    r: int
    s: int
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("ambient dimension must be at least 3")
        if self.face_type == TYPE_I:
            if self.r != 0 or self.s < 2:
                raise ValueError("type I needs r = 0 and s >= 2")
        elif self.face_type == TYPE_II:
            if self.r != 0 or self.s < 1:
                raise ValueError("type II needs r = 0 and s >= 1")
        elif self.face_type == TYPE_III:
            if self.r < 1 or self.r + self.s < 2:
                raise ValueError("type III needs r >= 1 and r + s >= 2")
        else:
            raise ValueError("unknown face type %r" % (self.face_type,))


def fiber_dim(fd: FaceDescriptor) -> int:
    """Dimension of the fiber over which the face integral is performed.

    With r = 0 the fiber is a configuration of s ambient points modulo
    translations and scalings, of dimension ns - n - 1.  With r > 0 the
    collapse happens along a tangent direction to the circle and the
    fiber has dimension r + ns - 2.
    """
    n, r, s = fd.n, fd.r, fd.s
    if r == 0:
        return n * s - n - 1
    return r + n * s - 2


def is_principal(fd: FaceDescriptor) -> bool:
    """Principal faces involve only two collapsing points."""
    if fd.face_type == TYPE_I:
        return fd.s == 2
    if fd.face_type == TYPE_II:
        return fd.s == 1
    return fd.r + fd.s == 2


def is_hidden(fd: FaceDescriptor) -> bool:
    return not is_principal(fd)


def degree_lower_bound(fd: FaceDescriptor) -> Fraction:
    """Lower bound for the degree of the form integrated over the fiber.

    Valid once every internal vertex of the subgraph has at least three
    induced edges and every external one has at least one, so that the
    edge count e' satisfies 2 e' >= r + 3 s.  Each edge carries an
    (n-1)-form, and subtracting the fiber dimension gives the bounds
    below.  The face integral vanishes whenever the bound exceeds the
    threshold of ``vanishing_threshold``.
    """
    n, r, s = Fraction(fd.n), Fraction(fd.r), Fraction(fd.s)
    if fd.face_type == TYPE_I:
        return (n - 3) * s / 2 + n + 1
    if fd.face_type == TYPE_II:
        return (n - 3) * s / 2 + (5 * n - 1) / 2
    return (n - 3) * (r + s - 2) / 2 + n - 1


def vanishing_threshold(fd: FaceDescriptor, extended: bool = False) -> int:
    """The face contributes nothing once degree_lower_bound is strictly
    above this value.  For types I and II only a zero-form survives the
    fiber integration; for type III the result is pulled back through a
    map to a sphere of dimension n - 1 and dies above that degree.  With
    ``extended`` the forms depend on an extra parameter and every
    threshold goes up by one.
    """
    base = 0 if fd.face_type in (TYPE_I, TYPE_II) else fd.n - 1
    return base + 1 if extended else base


@dataclass(frozen=True)
class AdmissibleSubgraph:
    """A face of ``graph``, encoded by the collapsing vertex subset.

    ``externals`` is a run of consecutive external vertices, listed in
    circle order starting at the run's first vertex (empty for types I
    and II); ``internals`` is the sorted tuple of collapsing internal
    vertices; ``at_infinity`` marks type II.  ``edge_indices`` lists the
    induced edges (both endpoints collapsing) and ``valence`` counts them
    at a vertex; both are computed once per subgraph.  The formal infinity
    vertex never carries an edge.
    """
    graph: DecoratedGraph
    externals: tuple
    internals: tuple
    at_infinity: bool
    n: int

    @property
    def face_type(self) -> str:
        if self.at_infinity:
            return TYPE_II
        return TYPE_III if self.externals else TYPE_I

    @property
    def descriptor(self) -> FaceDescriptor:
        return FaceDescriptor(self.face_type, len(self.externals),
                              len(self.internals), self.n)

    @cached_property
    def edge_indices(self) -> tuple:
        vs = set(self.externals + self.internals)
        return tuple(i for i, (a, b) in enumerate(self.graph.edges)
                     if a != b and a in vs and b in vs)

    @cached_property
    def _valences(self) -> dict:
        val = {}
        for i in self.edge_indices:
            for v in self.graph.edges[i]:
                val[v] = val.get(v, 0) + 1
        return val

    def valence(self, v) -> int:
        """Number of induced edges ending at vertex v (arcs not counted)."""
        return self._valences.get(v, 0)


def _runs(g: DecoratedGraph, r: int):
    """All runs of r consecutive external vertices, as tuples in circle
    order.  When r equals v_ext each starting vertex gives a distinct
    face (a different arc stays long), so all v_ext rotations count."""
    if r > g.v_ext:
        return
    for start in range(1, g.v_ext + 1):
        yield tuple((start - 1 + t) % g.v_ext + 1 for t in range(r))


def admissible_subgraphs(g: DecoratedGraph, n: int):
    """Every admissible subgraph of g, deterministically ordered."""
    internal = list(range(g.v_ext + 1, g.v_ext + g.v_int + 1))
    out = []
    for s in range(2, g.v_int + 1):
        for sub in itertools.combinations(internal, s):
            out.append(AdmissibleSubgraph(g, (), sub, False, n))
    for s in range(1, g.v_int + 1):
        for sub in itertools.combinations(internal, s):
            out.append(AdmissibleSubgraph(g, (), sub, True, n))
    for r in range(1, g.v_ext + 1):
        for run in _runs(g, r):
            for s in range(0, g.v_int + 1):
                if r + s < 2:
                    continue
                for sub in itertools.combinations(internal, s):
                    out.append(AdmissibleSubgraph(g, run, sub, False, n))
    return out


def _principal_site(sg: AdmissibleSubgraph):
    """The contraction site a contributing principal subgraph encodes,
    or None when the principal face vanishes.

    A principal face contributes exactly when the subgraph is type I
    with one induced edge, type III with r = s = 1 and one induced
    edge, or type III with r = 2 and at most one induced edge (none for
    a plain arc, one when a short chord joins the run's endpoints).
    Every other principal face carries a zero-form over a fiber of
    positive dimension and integrates to zero.
    """
    fd = sg.descriptor
    edges = sg.edge_indices
    if fd.face_type == TYPE_I and len(edges) == 1:
        return ContractionSite("edge", edges[0])
    if fd.face_type == TYPE_III:
        if fd.r == 1 and fd.s == 1 and len(edges) == 1:
            return ContractionSite("edge", edges[0])
        if fd.r == 2 and len(edges) <= 1:
            return ContractionSite("arc", sg.externals[0])
    return None


def classify_subgraph(sg: AdmissibleSubgraph,
                      extended: bool = False) -> str:
    """Verdict for one admissible subgraph.

    Principal subgraphs either contribute a coboundary term or vanish by
    the degree count.  Hidden ones are killed by one of the valence
    lemmas or by the degree bound; when the bound is not strict (type
    III at n = 3, or with ``extended`` r + s = 3 at n = 4 and 5 and
    r + s = 4 at n = 4) the verdict is ``Unresolved``.
    """
    fd = sg.descriptor
    if is_principal(fd):
        if _principal_site(sg) is not None:
            return PRINCIPAL_CONTRIBUTION
        return ZERO_BY_DEGREE_COUNT
    vs = sorted(sg.internals) + list(sg.externals)
    for v in vs:
        if sg.valence(v) == 0:
            return ZERO_BY_LEMMA_1
    for v in sg.internals:
        val = sg.valence(v)
        if val == 1:
            return ZERO_BY_LEMMA_2
        if val == 2:
            return ZERO_BY_LEMMA_3
    if degree_lower_bound(fd) > vanishing_threshold(fd, extended):
        return ZERO_BY_DEGREE_COUNT
    return UNRESOLVED


@dataclass
class FaceAuditReport:
    """Outcome of sweeping every admissible subgraph of one graph."""
    n: int
    extended: bool
    total: int
    verdict_counts: dict
    principal_sites: list
    expected_sites: list
    unresolved: list = field(default_factory=list)

    @property
    def principal_match(self) -> bool:
        return sorted(self.principal_sites) == sorted(self.expected_sites)

    @property
    def ok(self) -> bool:
        return self.principal_match and not self.unresolved


def audit_graph(g: DecoratedGraph, n: int,
                extended: bool = False) -> FaceAuditReport:
    """Sweep all faces of g: check that the principal contributions are
    exactly the contraction sites of the coboundary and that every
    hidden face vanishes.  The type III faces whose degree bound is not
    strict are listed as unresolved instead of failing: all of them at
    n = 3, and with ``extended`` those with r + s = 3 at n = 4 and 5 and
    r + s = 4 at n = 4.
    """
    if n < 3:
        raise ValueError("ambient dimension must be at least 3")
    subs = admissible_subgraphs(g, n)
    counts = {}
    sites = []
    unresolved = []
    for sg in subs:
        verdict = classify_subgraph(sg, extended=extended)
        counts[verdict] = counts.get(verdict, 0) + 1
        if verdict == PRINCIPAL_CONTRIBUTION:
            sites.append(_principal_site(sg))
        elif verdict == UNRESOLVED:
            unresolved.append(sg)
    return FaceAuditReport(n, extended, len(subs), counts, sites,
                           list(contraction_sites(g)), unresolved)
