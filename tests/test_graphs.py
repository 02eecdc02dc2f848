"""Gradings, validity relations, and signed canonical forms."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlegc.graphs import (ODD, EVEN, WITH_CIRCLE, WITH_ORDER,
                             DecoratedGraph, GraphVector, canonical_form,
                             degree, is_zero_by_relations, perm_sign,
                             validate)
from circlegc.coboundary import contract_raw, contraction_sites
from circlegc.enumeration import _decorate, basis, framed_basis

from conftest import (decorated_variant, order, reference_framed_shapes,
                      reference_labelled_shapes, reference_shapes)

CROSSING = DecoratedGraph(ODD, 4, 0, ((1, 3), (2, 4)))
TRIPOD = DecoratedGraph(ODD, 3, 1, ((1, 4), (2, 4), (3, 4)))


def loops_graph(parity, k):
    """k external small loops on k circle vertices."""
    loops = tuple((v, WITH_CIRCLE, WITH_ORDER) for v in range(1, k + 1)) \
        if parity == ODD else ()
    edges = tuple((v, v) for v in range(1, k + 1)) if parity == EVEN else ()
    return DecoratedGraph(parity, k, 0, edges, loops)


def test_order_pinned_values():
    assert order(CROSSING) == 2
    assert order(TRIPOD) == 2
    for k in (1, 2, 3):
        assert order(loops_graph(ODD, k)) == k
        assert order(loops_graph(EVEN, k)) == k


def test_degree_pinned_values():
    assert degree(CROSSING) == 0
    assert degree(TRIPOD) == 0
    for k in (1, 2, 3):
        assert degree(loops_graph(ODD, k)) == k
        assert degree(loops_graph(EVEN, k)) == k


def test_validate_multiple_edge():
    # a multiple edge is a relation, not a malformation
    for parity in (ODD, EVEN):
        g = TRIPOD._replace(parity=parity, edges=TRIPOD.edges + ((1, 4),))
        assert validate(g) == []
        assert is_zero_by_relations(g)
        assert canonical_form(g) is None
    # zero and malformed: only the malformation is reported, and it wins
    g = DecoratedGraph(ODD, 1, 1, ((1, 2), (2, 1)), (), ())
    assert validate(g) == ["internal vertex 2 has valence 2 < 3"]
    assert is_zero_by_relations(g)
    with pytest.raises(ValueError, match="valence 2 < 3"):
        canonical_form(g)


def test_validate_internal_small_loop():
    # an internal small loop is a relation in both parities: an (a, a)
    # edge when even, a loops entry when odd
    for g in (DecoratedGraph(EVEN, 1, 1, ((1, 2), (1, 2), (2, 2))),
              DecoratedGraph(EVEN, 3, 1, TRIPOD.edges + ((4, 4),)),
              TRIPOD._replace(loops=((4, WITH_CIRCLE, WITH_ORDER),))):
        assert validate(g) == []
        assert is_zero_by_relations(g)
        assert canonical_form(g) is None


def test_validate_tripod_ok():
    assert validate(TRIPOD) == []


def test_loop_on_crossed_vertex_is_zero():
    g = DecoratedGraph(ODD, 1, 0, (), ((1, WITH_CIRCLE, WITH_ORDER),), (1,))
    assert validate(g) == []
    assert is_zero_by_relations(g)
    assert canonical_form(g) is None


def test_even_single_chord_is_zero():
    g = DecoratedGraph(EVEN, 2, 0, ((1, 2),))
    assert canonical_form(g) is None


def test_odd_single_chord_reversal_sign():
    # relabeling 1<->2 and flipping the arrow are two sign factors that
    # cancel: applying both returns the original written graph, so each
    # move alone relates the two writings with sign -1
    g1 = DecoratedGraph(ODD, 2, 0, ((1, 2),))
    g2 = DecoratedGraph(ODD, 2, 0, ((2, 1),))
    c1, s1 = canonical_form(g1)
    c2, s2 = canonical_form(g2)
    assert c1 == c2
    assert s1 == -s2


def test_canonicalize_idempotent_on_bases():
    for parity in (ODD, EVEN):
        for k in (1, 2, 3):
            for m in (0, 1, 2):
                for g in basis(parity, k, m):
                    assert canonical_form(g) == (g, 1)


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_canonical_form_tracks_decoration_signs(parity):
    rng = random.Random(20240824)
    for k in (1, 2, 3):
        for m in (0, 1, 2):
            for g in basis(parity, k, m):
                base = canonical_form(g)
                for _ in range(4):
                    h, sign = decorated_variant(g, rng)
                    res = canonical_form(h)
                    assert res is not None
                    canon, s = res
                    assert canon == base[0]
                    assert s == sign * base[1]
                    assert order(h) == order(g)
                    assert degree(h) == degree(g)


def test_graph_vector_cancellation():
    v = GraphVector(parity=ODD)
    v.add_graph(CROSSING, Fraction(1, 4))
    for c, g in v.scaled(-1).terms:
        v.add_graph(g, c)
    assert v.is_zero()


def test_graph_vector_dedup_by_canonical_form():
    # the two writings of the single chord differ by an arrow flip, so
    # equal coefficients cancel after canonicalization
    v = GraphVector(parity=ODD)
    v.add_graph(DecoratedGraph(ODD, 2, 0, ((1, 2),)), Fraction(1, 3))
    v.add_graph(DecoratedGraph(ODD, 2, 0, ((2, 1),)), Fraction(1, 3))
    assert v.is_zero()
    w = GraphVector(parity=ODD)
    w.add_graph(DecoratedGraph(ODD, 2, 0, ((1, 2),)), Fraction(1, 3))
    w.add_graph(DecoratedGraph(ODD, 2, 0, ((2, 1),)), Fraction(-1, 3))
    assert len(w.terms) == 1
    assert abs(w.terms[0][0]) == Fraction(2, 3)


def test_perm_sign():
    # inversion parity against the reference's cycle count below
    for n in range(6):
        for perm in itertools.permutations(range(n)):
            assert perm_sign(perm) == _perm_sign(perm)
    assert perm_sign([(1, 4), (1, 2), (2, 3)]) == -1      # any ordered items


# ----------------------------------------------------------------------
# reference: the orbit scan over all v_ext * v_int! relabellings, as
# numpy arrays, that the refinement search in graphs.py replaced


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def _orbit_maps(v_ext: int, v_int: int, signed_internal: bool):
    """All allowed vertex relabellings as an array of label maps.

    Returns ``(maps, signs)`` where ``maps[m][old] = new`` (index 0 unused)
    and ``signs[m]`` is the sign of the rotation times, when
    ``signed_internal``, the sign of the internal permutation.
    """
    n = v_ext + v_int
    rot_maps = []
    rot_signs = []
    for r in range(v_ext):
        perm0 = [((i + r) % v_ext) for i in range(v_ext)]
        rot_signs.append(_perm_sign(perm0))
        rot_maps.append([0] + [p + 1 for p in perm0])
    int_maps = []
    int_signs = []
    base = list(range(v_int))
    for p in itertools.permutations(base):
        int_maps.append([v_ext + 1 + x for x in p])
        int_signs.append(_perm_sign(p) if signed_internal else 1)
    maps = np.empty((v_ext * len(int_maps), n + 1), dtype=np.int64)
    signs = np.empty(v_ext * len(int_maps), dtype=np.int64)
    m = 0
    for rmap, rsign in zip(rot_maps, rot_signs):
        for imap, isign in zip(int_maps, int_signs):
            maps[m, :v_ext + 1] = rmap
            maps[m, v_ext + 1:] = imap
            signs[m] = rsign * isign
            m += 1
    return maps, signs


def _row_inversion_signs(rows: np.ndarray) -> np.ndarray:
    """Sign of the permutation sorting each row (entries assumed distinct)."""
    m, n = rows.shape
    if n < 2:
        return np.ones(m, dtype=np.int64)
    i, j = np.triu_indices(n, 1)
    inv = (rows[:, i] > rows[:, j]).sum(axis=1)
    return np.where(inv % 2 == 0, 1, -1).astype(np.int64)


def _select_minimum(rows: np.ndarray, signs: np.ndarray):
    """Index of the lexicographically least row, or None on a sign clash."""
    if rows.shape[1] == 0:
        if signs.min() != signs.max():
            return None
        return 0
    idx = np.lexsort(rows.T[::-1])
    best = idx[0]
    eq = np.all(rows == rows[best], axis=1)
    chosen = signs[eq]
    if chosen.min() != chosen.max():
        return None
    return int(best)


def _canonical_odd(g: DecoratedGraph):
    maps, base_signs = _orbit_maps(g.v_ext, g.v_int, True)
    m = maps.shape[0]
    nv = g.num_vertices
    sign0 = 1
    for _, order_flag, arrow_flag in g.loops:
        sign0 *= (-1) ** (order_flag + arrow_flag)

    blocks = []
    signs = base_signs * sign0
    if g.edges:
        tails = np.array([e[0] for e in g.edges])
        heads = np.array([e[1] for e in g.edges])
        t = maps[:, tails]
        h = maps[:, heads]
        flips = (t > h).sum(axis=1)
        signs = signs * np.where(flips % 2 == 0, 1, -1)
        codes = np.minimum(t, h) * (nv + 2) + np.maximum(t, h)
        codes = np.sort(codes, axis=1)
        blocks.append(codes)
    if g.loops:
        lv = np.array([entry[0] for entry in g.loops])
        loops = np.sort(maps[:, lv], axis=1)
        blocks.append(loops)
    if g.crosses:
        cv = np.array(list(g.crosses))
        cvm = maps[:, cv]
        signs = signs * _row_inversion_signs(cvm)
        blocks.append(np.sort(cvm, axis=1))
    rows = np.concatenate(blocks, axis=1) if blocks else np.zeros((m, 0), int)
    best = _select_minimum(rows, signs)
    if best is None:
        return None
    mapping = maps[best]
    edges = tuple(sorted(
        (min(mapping[a], mapping[b]), max(mapping[a], mapping[b]))
        for a, b in g.edges))
    loops = tuple(sorted((int(mapping[entry[0]]), 0, 0) for entry in g.loops))
    crosses = tuple(sorted(int(mapping[v]) for v in g.crosses))
    canon = DecoratedGraph(ODD, g.v_ext, g.v_int,
                           tuple((int(a), int(b)) for a, b in edges),
                           loops, crosses)
    return canon, int(signs[best])


def _canonical_even(g: DecoratedGraph):
    maps, base_signs = _orbit_maps(g.v_ext, g.v_int, False)
    m = maps.shape[0]
    nv = g.num_vertices
    if g.edges:
        us = np.array([min(e) for e in g.edges])
        vs = np.array([max(e) for e in g.edges])
        u = maps[:, us]
        v = maps[:, vs]
        codes = np.minimum(u, v) * (nv + 2) + np.maximum(u, v)
        signs = base_signs * _row_inversion_signs(codes)
        rows = np.sort(codes, axis=1)
    else:
        signs = base_signs
        rows = np.zeros((m, 0), int)
    best = _select_minimum(rows, signs)
    if best is None:
        return None
    mapping = maps[best]
    relabeled = [(min(mapping[a], mapping[b]), max(mapping[a], mapping[b]))
                 for a, b in g.edges]
    edges = tuple((int(a), int(b)) for a, b in sorted(relabeled))
    canon = DecoratedGraph(EVEN, g.v_ext, g.v_int, edges)
    return canon, int(signs[best])


def reference_canonical_form(g: DecoratedGraph):
    bad = validate(g)
    if bad:
        raise ValueError("invalid graph: %s" % "; ".join(bad))
    if is_zero_by_relations(g):
        return None
    if g.parity == ODD:
        return _canonical_odd(g)
    return _canonical_even(g)


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_canonical_form_equals_orbit_scan_on_all_shapes(parity):
    # order 5 at degrees 5..7 has internal twins next to several externals
    # (e.g. v_ext = 3, v_int = 2), which order 4 does not reach
    cases = [(k, m) for k in (1, 2, 3, 4) for m in range(2 * k)] \
        + [(5, m) for m in (5, 6, 7)]
    for k, m in cases:
        for g in reference_labelled_shapes(parity, k, m):
            assert canonical_form(g) == reference_canonical_form(g), g


def test_canonical_form_equals_orbit_scan_on_framed_shapes():
    for k in (1, 2, 3):
        for m in range(2 * k):
            for g in reference_framed_shapes(k, m):
                assert canonical_form(g) == reference_canonical_form(g), g


def test_canonical_form_equals_orbit_scan_on_contraction_terms():
    """Every raw contraction term of the order <= 3 bases: arc contractions
    over short chords put an even loop on the diagonal of the bitstring,
    or an odd loop outside it, and leave graphs that are not canonical."""
    sources = [g for parity in (ODD, EVEN) for k in (1, 2, 3)
               for m in range(2 * k) for g in basis(parity, k, m)]
    sources += [g for k in (1, 2, 3) for m in range(2 * k)
                for g in framed_basis(k, m)]
    terms = {contract_raw(g, site)[1] for g in sources
             for site in contraction_sites(g)}
    assert any(g.loops for g in terms)
    assert any(a == b for g in terms for a, b in g.edges)
    for g in sorted(terms):
        assert canonical_form(g) == reference_canonical_form(g), g


@lru_cache(maxsize=None)
def _basis_graphs():
    graphs = [g for parity in (ODD, EVEN) for k in (1, 2, 3, 4)
              for m in range(2 * k) for g in basis(parity, k, m)]
    return graphs + [g for k in (1, 2, 3) for m in range(2 * k)
                     for g in framed_basis(k, m)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_form_equals_orbit_scan_on_decorated_variants(data):
    pool = _basis_graphs()
    g = pool[data.draw(st.integers(0, len(pool) - 1))]
    h, _ = decorated_variant(g, random.Random(data.draw(st.integers(0, 9999))))
    assert canonical_form(h) == reference_canonical_form(h)


def test_canonical_form_equals_orbit_scan_on_order5_sample():
    """Order-5 shapes of degrees 2..4 with at least three externals and
    three internals: the internal order is then fixed partly by the
    externals and partly by the refinement."""
    rng = random.Random(5)
    shapes = [(v_ext, v_int, shape) for m in (2, 3, 4)
              for v_int in range(3, 8 - m)
              for v_ext in [10 - v_int - m]
              for shape in reference_shapes(v_ext, v_int, 5 + v_int,
                                            (1,) * v_ext + (3,) * v_int)]
    for v_ext, v_int, shape in rng.sample(shapes, 600):
        g = _decorate(rng.choice([ODD, EVEN]), v_ext, v_int, shape)
        h, _ = decorated_variant(g, rng)
        for graph in (g, h):
            assert canonical_form(graph) == reference_canonical_form(graph), \
                graph


def test_canonical_form_equals_orbit_scan_at_order5_high_v_int():
    """Degree-0 shapes with 7 to 9 internal vertices, where the scan runs
    over up to 9! relabellings (building the 9! maps alone takes seconds,
    hence one shape there)."""
    rng = random.Random(20261018)
    try:
        for v_int, count in ((7, 6), (8, 3), (9, 1)):
            v_ext = 10 - v_int
            shapes = reference_shapes(v_ext, v_int, 5 + v_int,
                                      (1,) * v_ext + (3,) * v_int)
            for shape in rng.sample(shapes, count):
                g = _decorate(rng.choice([ODD, EVEN]), v_ext, v_int, shape)
                h, _ = decorated_variant(g, rng)
                for graph in (g, h):
                    assert canonical_form(graph) == \
                        reference_canonical_form(graph), graph
    finally:
        _orbit_maps.cache_clear()
