"""Named verification suites with deterministic JSON-friendly reports.

Each criterion function returns a plain dict with a name, a boolean
``passed`` flag, and a detail payload of primitive values only, so the
assembled report serializes byte-identically across runs.  The CLI
``verify`` subcommand wraps these; the test suite calls them directly.
"""

from __future__ import annotations

from . import __version__
from .graphs import ODD, EVEN
from .coboundary import delta, delta_vector
from .enumeration import basis, framed_basis
from .homology import (cohomology, delta_matrix, _rank)
from .framed import (delta_framed, delta_framed_vector, delta_underline,
                     delta_underline_vector, short_chord_substitution,
                     short_chord_substitution_vector)
from .cocycles import (order2_cocycle, order3_cocycle_odd,
                       order3_cocycle_even)
from .weights import (chord_diagram_basis, gl_weight, gl_weight_by_traces,
                      a_space_dim, _one_vertex_graphs, _resolve_once,
                      chord_diagram_of, WeightPolynomial)
from .faces import (FaceDescriptor, TYPE_I, TYPE_II, TYPE_III, fiber_dim,
                    is_hidden, degree_lower_bound, vanishing_threshold,
                    audit_graph)
from .serialize import dumps, graph_to_dict

MAX_ORDER = 3


def _bidegrees(parity: str, k: int):
    """Degrees m with a nonempty basis at order k."""
    out = []
    m = 0
    while True:
        if basis(parity, k, m):
            out.append(m)
        elif m > 2 * k:
            break
        m += 1
    return out


def criterion_dsquared() -> dict:
    """The coboundary squares to zero: composed matrices at every
    bidegree of order <= 3 in both parities, plus a direct double
    application at odd order 4."""
    checked = 0
    failures = []
    for parity in (ODD, EVEN):
        for k in range(1, MAX_ORDER + 1):
            for m in _bidegrees(parity, k):
                sq = delta_matrix(parity, k, m + 1).compose(
                    delta_matrix(parity, k, m))
                checked += 1
                if not sq.is_zero():
                    failures.append([parity, k, m])
    order4 = sum(len(basis(ODD, 4, m)) for m in _bidegrees(ODD, 4))
    direct4 = 0
    if order4 <= 2000:
        for m in _bidegrees(ODD, 4):
            for g in basis(ODD, 4, m):
                direct4 += 1
                if not delta_vector(delta(g)).is_zero():
                    failures.append([ODD, 4, m])
    return {"name": "dsquared", "passed": not failures,
            "detail": {"bidegrees": checked, "odd_order4_graphs": direct4,
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


def _kernel_vectors(parity: str, k: int):
    mat = delta_matrix(parity, k, 0)
    return mat.col_basis, mat.kernel()


def criterion_chord_diagram_presence() -> dict:
    """Every degree-0 cocycle at orders 2 and 3 contains a chord diagram
    with nonzero coefficient, and none of its graphs has a short chord."""
    failures = []
    checked = 0
    for parity in (ODD, EVEN):
        for k in (2, 3):
            src, ker = _kernel_vectors(parity, k)
            for vec in ker:
                checked += 1
                has_chord_diagram = any(
                    c and g.v_int == 0 for c, g in zip(vec, src))
                short = any(c and g.short_chords()
                            for c, g in zip(vec, src))
                if not has_chord_diagram or short:
                    failures.append([parity, k])
    return {"name": "chord_diagram_presence", "passed": not failures,
            "detail": {"cocycles_checked": checked, "failures": failures}}


def criterion_chord_part_injective() -> dict:
    """Projecting cocycles to their chord-diagram parts loses nothing:
    the projected rank equals the cohomology dimension at (k, 0)."""
    results = {}
    ok = True
    for parity in (ODD, EVEN):
        for k in (2, 3):
            src, ker = _kernel_vectors(parity, k)
            cols = [j for j, g in enumerate(src) if g.v_int == 0]
            rows = [[vec[j] for j in cols] for vec in ker]
            rank = _rank(rows, len(cols))
            dim = cohomology(parity, k, 0).dim_H
            results["%s_%d" % (parity, k)] = {"rank": rank, "dim_H": dim}
            ok = ok and rank == dim
    return {"name": "chord_part_injective", "passed": ok,
            "detail": results}


def criterion_framed_suite() -> dict:
    """The crossed coboundary and the short-chord-free coboundary square
    to zero at order <= 3; the substitution map intertwines them and is
    independent of the chord processing order."""
    detail = {}
    ok = True
    bad = 0
    n = 0
    for k in range(1, MAX_ORDER + 1):
        m = 0
        while True:
            fb = framed_basis(k, m)
            if not fb and m > 2 * k:
                break
            for g in fb:
                n += 1
                if not delta_framed_vector(delta_framed(g)).is_zero():
                    bad += 1
            m += 1
    detail["framed_dsquared"] = {"graphs": n, "failures": bad}
    ok = ok and bad == 0
    bad = 0
    n = 0
    chain_bad = 0
    order_bad = 0
    order_n = 0
    for k in range(1, MAX_ORDER + 1):
        for m in _bidegrees(ODD, k):
            for g in basis(ODD, k, m):
                n += 1
                if not delta_underline_vector(delta_underline(g)).is_zero():
                    bad += 1
                lhs = short_chord_substitution_vector(delta_underline(g))
                rhs = delta_framed_vector(short_chord_substitution(g))
                if lhs != rhs:
                    chain_bad += 1
                chords = g.short_chords()
                if len(chords) >= 2:
                    order_n += 1
                    alt = short_chord_substitution(
                        g, chord_order=list(reversed(chords)))
                    if alt != short_chord_substitution(g):
                        order_bad += 1
    detail["underline_dsquared"] = {"graphs": n, "failures": bad}
    detail["chain_map"] = {"graphs": n, "failures": chain_bad}
    detail["order_independence"] = {"graphs": order_n,
                                    "failures": order_bad}
    ok = ok and bad == 0 and chain_bad == 0 and order_bad == 0
    return {"name": "framed_suite", "passed": ok, "detail": detail}


def criterion_astu_dimensions() -> dict:
    """The STU quotient dimension matches the short-chord-free odd
    cohomology at orders 2 and 3, computed by unrelated code paths."""
    detail = {}
    ok = True
    for k in (2, 3):
        lhs = a_space_dim(k)
        rhs = cohomology(ODD, k, 0, op=delta_underline).dim_H
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
        for g in _one_vertex_graphs(k):
            # resolving through any leg of the same vertex must give the
            # same weight; their difference is an STU combination
            weights = []
            for slot in (0, 1, 2):
                total = WeightPolynomial({})
                for s, h in _resolve_once(g, 1, slot):
                    d = chord_diagram_of(h)
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
            for m in _bidegrees(parity, k):
                for g in basis(parity, k, m):
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
    """A representative sub-report recomputes to identical bytes.  The
    full end-to-end check reruns the CLI and compares whole files; this
    in-process version guards the serialization path."""
    first = dumps([criterion_order2_cocycle(), criterion_h10_vanishes()])
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
