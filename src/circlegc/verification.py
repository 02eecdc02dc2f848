"""Named verification suites with deterministic JSON-friendly reports.

Each criterion function returns a plain dict with a name, a boolean
``passed`` flag, and a detail payload of primitive values only, so the
assembled report serializes byte-identically across runs.  The CLI
``verify`` subcommand wraps these; the test suite calls them directly.
"""

from __future__ import annotations

from functools import lru_cache, partial

from . import __version__
from .graphs import ODD, EVEN, canonical_form
from .coboundary import _coboundary, compose, delta_vector
from .enumeration import _shapes_cached, basis, framed_basis
from .homology import cohomology, delta_matrix, _rank
from .framed import _substitution, _underline, delta_underline
from .cocycles import (order2_cocycle, order3_cocycle_odd,
                       order3_cocycle_even)
from .weights import (chord_diagram_basis, gl_weight, gl_weight_by_traces,
                      a_space_dim, _stu_expansions, WeightPolynomial)
from .faces import (FaceDescriptor, TYPE_I, TYPE_II, TYPE_III, fiber_dim,
                    is_hidden, degree_lower_bound, vanishing_threshold,
                    audit_graph)
from .serialize import dumps, graph_to_dict

MAX_ORDER = 3


def _bases(basis_fn, k: int) -> dict:
    """The nonempty bases ``basis_fn(k, m)`` at order k, by degree m.

    The one walk over the degrees of a complex: every basis is built
    once, up to the first empty one above degree 2k, where the complex
    has ended.  The coboundary out of degree m is then
    ``homology.delta_matrix(bases[m], bases.get(m + 1, []))``."""
    out = {}
    m = 0
    while True:
        b = basis_fn(k, m)
        if b:
            out[m] = b
        elif m > 2 * k:
            return out
        m += 1


def criterion_dsquared() -> dict:
    """The coboundary squares to zero on every graph of every bidegree of
    order <= 3 in both parities, and of odd order 4.

    Each basis is built once per (parity, k), and each graph is mapped
    twice through a memo of the coboundary engine's ``int`` maps local to
    this call, so a graph met as a source and again as an image term is
    mapped once; the memo goes when the criterion returns, and its maps
    are only read.  The square is composed in ``int`` arithmetic.  A
    failure names the source bidegree."""
    bidegrees = 0
    order4 = 0
    failures = []
    image = lru_cache(maxsize=None)(_coboundary)
    for parity, top in ((ODD, MAX_ORDER + 1), (EVEN, MAX_ORDER)):
        for k in range(1, top + 1):
            for m, b in _bases(partial(basis, parity), k).items():
                if k > MAX_ORDER:
                    order4 += len(b)
                else:
                    bidegrees += 1
                if any(compose(image, image(g)) for g in b):
                    failures.append([parity, k, m])
    return {"name": "dsquared", "passed": not failures,
            "detail": {"bidegrees": bidegrees, "odd_order4_graphs": order4,
                       "failures": failures}}


def criterion_order2_cocycle() -> dict:
    """(1/4) crossing chords - (1/3) tripod is closed in both parities
    and spans the one-dimensional even (2, 0) cohomology."""
    closed = {p: delta_vector(order2_cocycle(p)).is_zero()
              for p in (ODD, EVEN)}
    dim = cohomology(EVEN, 2, 0).dim_H
    return {"name": "order2_cocycle",
            "passed": all(closed.values()) and dim == 1,
            "detail": {"closed": closed, "dim_H20_even": dim}}


def criterion_order3_cocycles() -> dict:
    """The six-term order-3 combinations close in both parities and the
    odd (3, 0) cohomology is one-dimensional."""
    closed_odd = delta_vector(order3_cocycle_odd()).is_zero()
    closed_even = delta_vector(order3_cocycle_even()).is_zero()
    dim = cohomology(ODD, 3, 0).dim_H
    return {"name": "order3_cocycles",
            "passed": closed_odd and closed_even and dim == 1,
            "detail": {"closed_odd": closed_odd, "closed_even": closed_even,
                       "dim_H30_odd": dim}}


def criterion_h10_vanishes() -> dict:
    """No cohomology at order 1, degree 0, in either parity."""
    dims = {p: cohomology(p, 1, 0).dim_H for p in (ODD, EVEN)}
    return {"name": "h10_vanishes",
            "passed": all(d == 0 for d in dims.values()),
            "detail": {"dims": dims}}


def criterion_chord_diagram_presence() -> dict:
    """Every degree-0 cocycle at orders 2 and 3 contains a chord diagram
    with nonzero coefficient, and none of its graphs has a short chord."""
    failures = []
    checked = 0
    for parity in (ODD, EVEN):
        for k in (2, 3):
            for v in cohomology(parity, k, 0).cocycle_basis:
                checked += 1
                graphs = [g for g, _ in v.items()]
                if not any(g.v_int == 0 for g in graphs) \
                        or any(g.short_chords() for g in graphs):
                    failures.append([parity, k])
    return {"name": "chord_diagram_presence", "passed": not failures,
            "detail": {"cocycles_checked": checked, "failures": failures}}


def _chord_part_rank(rep) -> int:
    """Rank of the chord-diagram parts of a report's cocycles: their terms
    with no internal vertex, each diagram one column."""
    cols = {}
    for i, v in enumerate(rep.cocycle_basis):
        for g, c in v.items():
            if g.v_int == 0:
                cols.setdefault(g, {})[i] = c
    return _rank(list(cols.values()), len(rep.cocycle_basis))


def criterion_chord_part_injective() -> dict:
    """Projecting cocycles to their chord-diagram parts loses nothing:
    the projected rank equals the cohomology dimension at (k, 0)."""
    results = {}
    ok = True
    for parity in (ODD, EVEN):
        for k in (2, 3):
            rep = cohomology(parity, k, 0)
            rank = _chord_part_rank(rep)
            results["%s_%d" % (parity, k)] = {"rank": rank,
                                              "dim_H": rep.dim_H}
            ok = ok and rank == rep.dim_H
    return {"name": "chord_part_injective", "passed": ok,
            "detail": results}


def criterion_framed_suite() -> dict:
    """The crossed coboundary and the short-chord-free coboundary square
    to zero at order <= 3; the substitution map intertwines them and is
    independent of the chord processing order.  Like
    ``criterion_dsquared``, it maps each graph once per operator through
    memos of the engine's ``int`` maps local to this call, and composes
    them in ``int`` arithmetic.  The crossed coboundary is the engine
    itself, as every graph it meets is odd."""
    framed = lru_cache(maxsize=None)(_coboundary)
    underline = lru_cache(maxsize=None)(_underline)
    substitution = lru_cache(maxsize=None)(_substitution)
    detail = {}
    ok = True
    bad = 0
    n = 0
    for k in range(1, MAX_ORDER + 1):
        for fb in _bases(framed_basis, k).values():
            for g in fb:
                n += 1
                if compose(framed, framed(g)):
                    bad += 1
    detail["framed_dsquared"] = {"graphs": n, "failures": bad}
    ok = ok and bad == 0
    bad = 0
    n = 0
    chain_bad = 0
    order_bad = 0
    order_n = 0
    for k in range(1, MAX_ORDER + 1):
        for b in _bases(partial(basis, ODD), k).values():
            for g in b:
                n += 1
                if compose(underline, underline(g)):
                    bad += 1
                lhs = compose(substitution, underline(g))
                rhs = compose(framed, substitution(g))
                if lhs != rhs:
                    chain_bad += 1
                chords = g.short_chords()
                if len(chords) >= 2:
                    order_n += 1
                    alt = _substitution(g, list(reversed(chords)))
                    if alt != substitution(g):
                        order_bad += 1
    detail["underline_dsquared"] = {"graphs": n, "failures": bad}
    detail["chain_map"] = {"graphs": n, "failures": chain_bad}
    detail["order_independence"] = {"graphs": order_n,
                                    "failures": order_bad}
    ok = ok and bad == 0 and chain_bad == 0 and order_bad == 0
    return {"name": "framed_suite", "passed": ok, "detail": detail}


def criterion_astu_dimensions() -> dict:
    """The STU quotient dimension matches the short-chord-free odd
    cohomology at orders 2 and 3, computed by unrelated code paths.

    In degree 0 nothing comes in, so dim H is the basis size less the
    rank of the outgoing coboundary: no kernel is taken."""
    detail = {}
    ok = True
    for k in (2, 3):
        lhs = a_space_dim(k)
        src = basis(ODD, k, 0)
        rhs = len(src) - delta_matrix(src, basis(ODD, k, 1),
                                      op=delta_underline).rank()
        detail["k%d" % k] = {"astu": lhs, "dim_H_underline": rhs}
        ok = ok and lhs == rhs
    return {"name": "astu_dimensions", "passed": ok, "detail": detail}


def criterion_gl_weights() -> dict:
    """gl(N) weights are nonzero on every diagram with at most four
    chords, kill STU combinations, and match literal matrix traces."""
    nonzero_bad = 0
    diagrams = 0
    for k in range(5):
        for d in chord_diagram_basis(k):
            diagrams += 1
            if not gl_weight(d).coeffs:
                nonzero_bad += 1
    stu_bad = 0
    stu_n = 0
    for k in (2, 3):
        for expansions in _stu_expansions(k):
            # resolving through any leg of the same vertex must give the
            # same weight; their difference is an STU combination
            weights = []
            for expansion in expansions:
                total = WeightPolynomial({})
                for s, d in expansion:
                    total = total + gl_weight(d).scaled(s)
                weights.append(total)
            stu_n += 1
            if any(w.coeffs != weights[0].coeffs for w in weights[1:]):
                stu_bad += 1
    trace_bad = 0
    trace_n = 0
    for k in range(5):
        for d in chord_diagram_basis(k):
            for N in (2, 3, 4):
                trace_n += 1
                if gl_weight(d).evaluate(N) != gl_weight_by_traces(d, N):
                    trace_bad += 1
    ok = nonzero_bad == 0 and stu_bad == 0 and trace_bad == 0
    return {"name": "gl_weights", "passed": ok,
            "detail": {"diagrams": diagrams, "zero_weights": nonzero_bad,
                       "stu_combinations": stu_n, "stu_failures": stu_bad,
                       "trace_checks": trace_n,
                       "trace_failures": trace_bad}}


def _hidden_descriptors(max_rs: int, n: int):
    for s in range(2, max_rs + 1):
        yield FaceDescriptor(TYPE_I, 0, s, n)
    for s in range(1, max_rs + 1):
        yield FaceDescriptor(TYPE_II, 0, s, n)
    for r in range(1, max_rs + 1):
        for s in range(0, max_rs - r + 1):
            if r + s >= 2:
                yield FaceDescriptor(TYPE_III, r, s, n)


def criterion_faces_suite() -> dict:
    """Hidden-face degree bounds are strict for 4 <= n <= 10, the n = 3
    boundary case is visible, fiber dimensions check out, and face
    audits reproduce the coboundary's contraction sites."""
    strict_bad = 0
    strict_n = 0
    for n in range(4, 11):
        for fd in _hidden_descriptors(10, n):
            if not is_hidden(fd):
                continue
            strict_n += 1
            if not degree_lower_bound(fd) > vanishing_threshold(fd):
                strict_bad += 1
    boundary3 = any(
        fd.face_type == TYPE_III and
        degree_lower_bound(fd) == vanishing_threshold(fd)
        for fd in _hidden_descriptors(10, 3) if is_hidden(fd))
    fiber_ok = all(fiber_dim(FaceDescriptor(TYPE_I, 0, 2, n)) == n - 1
                   for n in range(3, 11))
    audit_bad = 0
    audit_n = 0
    for parity in (ODD, EVEN):
        for k in range(1, MAX_ORDER + 1):
            for b in _bases(partial(basis, parity), k).values():
                for g in b:
                    audit_n += 1
                    if not audit_graph(g, 5).ok:
                        audit_bad += 1
    ok = strict_bad == 0 and boundary3 and fiber_ok and audit_bad == 0
    return {"name": "faces_suite", "passed": ok,
            "detail": {"hidden_descriptors": strict_n,
                       "bound_failures": strict_bad,
                       "n3_boundary_case_found": boundary3,
                       "fiber_dim_ok": fiber_ok,
                       "graphs_audited": audit_n,
                       "audit_failures": audit_bad}}


def criterion_determinism() -> dict:
    """A representative sub-report recomputes to identical bytes, the
    second time with the canonical forms and the shape search cold.  The
    full end-to-end check reruns the CLI and compares whole files; this
    in-process version guards the caches and the serialization path."""
    first = dumps([criterion_order2_cocycle(), criterion_h10_vanishes()])
    canonical_form.cache_clear()
    _shapes_cached.cache_clear()
    second = dumps([criterion_order2_cocycle(), criterion_h10_vanishes()])
    return {"name": "determinism", "passed": first == second,
            "detail": {"bytes": len(first)}}


SUITES = {
    "dsquared": [criterion_dsquared],
    "cocycles": [criterion_order2_cocycle, criterion_order3_cocycles],
    "cohomology": [criterion_h10_vanishes, criterion_chord_diagram_presence,
                   criterion_chord_part_injective],
    "framed": [criterion_framed_suite, criterion_astu_dimensions],
    "weights": [criterion_gl_weights],
    "faces": [criterion_faces_suite],
    "all": [criterion_dsquared, criterion_order2_cocycle,
            criterion_order3_cocycles, criterion_h10_vanishes,
            criterion_chord_diagram_presence, criterion_chord_part_injective,
            criterion_framed_suite, criterion_astu_dimensions,
            criterion_gl_weights, criterion_faces_suite,
            criterion_determinism],
}


def basis_ordering(parity: str, k: int, m: int):
    """The exact basis ordering embedded in reports."""
    return [graph_to_dict(g) for g in basis(parity, k, m)]


def run_suite(name: str) -> dict:
    """Run one named suite and assemble the deterministic report."""
    if name not in SUITES:
        raise KeyError("unknown suite %r" % (name,))
    results = [f() for f in SUITES[name]]
    ordering = {"%s_%d_0" % (p, k): basis_ordering(p, k, 0)
                for p in (ODD, EVEN) for k in (1, 2, 3)}
    return {"tool": "circlegc", "version": __version__, "suite": name,
            "passed": all(r["passed"] for r in results),
            "criteria": results, "basis_ordering": ordering}
