"""Contraction signs, gradings, and well-definedness of the coboundary,
and the one engine behind delta, delta_underline and delta_framed."""

import hashlib
import json
import random
from fractions import Fraction
from functools import partial

import pytest

from circlegc.graphs import (ODD, EVEN, WITH_CIRCLE, WITH_ORDER, _PAIRS,
                             DecoratedGraph, GraphVector, canonical_form,
                             degree, is_zero_by_relations, validate)
from circlegc.coboundary import (ContractionSite, _coboundary, contract_raw,
                                 contraction_sites, delete_cross, delta,
                                 delta_vector, _sigma)
from circlegc.enumeration import basis, framed_basis
from circlegc.framed import (_substitute, _substitution, _underline,
                             delta_framed, delta_underline,
                             short_chord_substitution)
from circlegc.serialize import (dumps, graph_from_dict, graph_to_dict,
                                vector_to_dict)
from circlegc.verification import _bases

from conftest import decorated_variant, order

TRIPOD = DecoratedGraph(ODD, 3, 1, ((1, 4), (2, 4), (3, 4)))
CROSSING = DecoratedGraph(ODD, 4, 0, ((1, 3), (2, 4)))


def test_sigma_values():
    assert _sigma(1, 4) == 1          # (-1)^j for j > i
    assert _sigma(4, 1) == -1         # (-1)^(i+1) for j < i
    assert _sigma(2, 3) == -1
    assert _sigma(1, 2) == 1


def test_contract_tripod_edge():
    sign, raw = contract_raw(TRIPOD, ContractionSite("edge", 0))
    assert sign == 1                  # edge 1 -> 4, j = 4 > i = 1
    assert raw.v_ext == 3 and raw.v_int == 0
    assert sorted(tuple(sorted(e)) for e in raw.edges) == [(1, 2), (1, 3)]


def test_even_edge_contraction_sign():
    g = DecoratedGraph(EVEN, 3, 1, ((1, 4), (2, 4), (3, 4)))
    sign, _ = contract_raw(g, ContractionSite("edge", 0))
    assert sign == (-1) ** (1 + 1 + 3) == -1


def test_crossing_arc_contraction_nonzero():
    sign, raw = contract_raw(CROSSING, ContractionSite("arc", 1))
    assert raw.v_ext == 3 and raw.v_int == 0
    # both chords now leave the merged vertex 1
    assert sorted(tuple(sorted(e)) for e in raw.edges) == [(1, 2), (1, 3)]
    assert canonical_form(raw) is not None


def test_short_chord_arc_becomes_small_loop():
    g = DecoratedGraph(ODD, 2, 0, ((1, 2),))
    _, raw = contract_raw(g, ContractionSite("arc", 1))
    assert raw.edges == ()
    assert raw.loops == ((1, WITH_CIRCLE, WITH_ORDER),)


def test_contraction_sites_exclude_chords_and_loops():
    sites = contraction_sites(CROSSING)
    assert all(s.kind == "arc" for s in sites)
    g = DecoratedGraph(ODD, 1, 0, (), ((1, WITH_CIRCLE, WITH_ORDER),))
    assert contraction_sites(g) == []


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_delta_grading(parity):
    for k in (1, 2, 3):
        for m in (0, 1, 2):
            for g in basis(parity, k, m):
                for _, h in delta(g).terms:
                    assert order(h) == order(g)
                    assert degree(h) == degree(g) + 1


def test_delta_of_loops_graph_vanishes():
    for parity in (ODD, EVEN):
        for k in (1, 2, 3):
            if parity == ODD:
                g = DecoratedGraph(
                    parity, k, 0, (),
                    tuple((v, WITH_CIRCLE, WITH_ORDER)
                          for v in range(1, k + 1)))
            else:
                g = DecoratedGraph(parity, k, 0,
                                   tuple((v, v) for v in range(1, k + 1)))
            if canonical_form(g) is None:
                continue
            assert delta(g).is_zero()


def test_single_chord_not_closed():
    g = DecoratedGraph(ODD, 2, 0, ((1, 2),))
    assert not delta(g).is_zero()


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_delta_well_defined_on_classes(parity):
    rng = random.Random(8240824)
    for k in (1, 2, 3):
        for m in (0, 1):
            for g in basis(parity, k, m):
                base = delta(g)
                for _ in range(3):
                    h, sign = decorated_variant(g, rng)
                    assert delta(h) == base.scaled(sign)


def test_dsquared_spot_checks():
    for parity in (ODD, EVEN):
        for k in (1, 2, 3):
            for g in basis(parity, k, 0):
                assert delta_vector(delta(g)).is_zero()


def _graphs(basis_fn, top=3):
    """Every basis graph of order <= top, degrees 0..2k+1."""
    return [g for k in range(1, top + 1) for m in range(2 * k + 2)
            for g in basis_fn(k, m)]


BOTH = (lambda k, m: basis(ODD, k, m) + basis(EVEN, k, m))

# SHA-256 over the serialized outputs, pinned before the three operators
# were folded into one engine: (operator, the engine's int map behind it,
# graphs, graph count, digest)
PINNED = [
    (delta, _coboundary, BOTH, 110,
     "718efc2f3251813ed0503db66ac93242104daa66c0a8d3ece0891387f48f55b7"),
    (delta_underline, _underline, BOTH, 110,
     "49b48a0588b18479ccb203ef1259d23a31aa11a2a15f441f42e87724168a3b7c"),
    (delta_framed, _coboundary, framed_basis, 89,
     "257412bc1eb81f2fdfd99b48485ff30a3e72ab5d0e14bdc2cb6d0128429c697c"),
    (short_chord_substitution, _substitution,
     lambda k, m: basis(ODD, k, m), 55,
     "a3456611f2a9ab9a209ca9bbbebe2d377c1bd48fbd39e7dff5074064d6205c81"),
]


@pytest.mark.parametrize("op, int_map, basis_fn, count, digest", PINNED,
                         ids=[p[0].__name__ for p in PINNED])
def test_operator_outputs_are_pinned(op, int_map, basis_fn, count, digest):
    """The operators, and the vectors of their int maps, serialize to the
    pinned bytes."""
    graphs = _graphs(basis_fn)
    assert len(graphs) == count
    for image in (op, lambda g: GraphVector(g.parity, int_map(g))):
        acc = hashlib.sha256()
        for g in graphs:
            acc.update(dumps(vector_to_dict(image(g))).encode())
        assert acc.hexdigest() == digest


def _chord_orders(g):
    """The substitution's chord orders: the default one, and the short
    chords reversed where there are at least two."""
    chords = g.short_chords()
    return [()] + ([(chords[::-1],)] if len(chords) >= 2 else [])


# (operator, its int map, graphs, top order, extra argument tuples)
FRACTION_CASES = [
    (delta, _coboundary, BOTH, 4, lambda g: [()]),
    (delta_underline, _underline, BOTH, 4, lambda g: [()]),
    (delta_framed, _coboundary, framed_basis, 3, lambda g: [()]),
    (short_chord_substitution, _substitution,
     lambda k, m: basis(ODD, k, m), 4, _chord_orders),
]


@pytest.mark.parametrize("op, int_map, basis_fn, top, arg_fn",
                         FRACTION_CASES,
                         ids=[c[0].__name__ for c in FRACTION_CASES])
def test_operator_coefficients_are_fractions(op, int_map, basis_fn, top,
                                             arg_fn):
    """The engine sums the terms as ints and the operators turn them into
    Fractions; no int may leak out of an operator, which neither ``==``
    nor the serialized form would show.  The int map the d^2 checks read
    holds nonzero ints only, never a ``bool``, and is the operator's
    vector."""
    rng = random.Random(51)
    for g in _graphs(basis_fn, top):
        for h in (g, decorated_variant(g, rng)[0]):
            for args in arg_fn(h):
                vec, ints = op(h, *args), int_map(h, *args)
                assert all(type(c) is Fraction for c, _ in vec.terms), h
                assert all(type(c) is int and c for c in ints.values()), h
                assert GraphVector(h.parity, ints) == vec, h


def test_delta_is_delta_framed_on_framed_graphs():
    graphs = _graphs(framed_basis)
    assert any(g.crosses for g in graphs)
    for g in graphs:
        assert delta(g) == delta_framed(g)


def test_delta_of_a_crossed_graph_deletes_the_cross():
    g = DecoratedGraph(ODD, 3, 0, ((1, 2),), (), (3,))
    terms = delta(g).terms
    assert len(terms) == 2
    assert [h.crosses for _, h in terms].count(()) == 1   # the cross deleted


def test_doubled_cross_is_zero():
    g = DecoratedGraph(ODD, 1, 0, (), (), (1, 1))
    assert validate(g) == []           # a relation, not a malformation
    assert is_zero_by_relations(g)
    assert canonical_form(g) is None
    # contracting the arc between two crossed vertices doubles a cross
    g = DecoratedGraph(ODD, 2, 0, (), (), (1, 2))
    for site in contraction_sites(g):
        assert is_zero_by_relations(contract_raw(g, site)[1])
    assert delta(g) == delta_framed(g)


def test_delta_framed_rejects_an_even_graph():
    g = DecoratedGraph(EVEN, 3, 1, ((1, 4), (2, 4), (3, 4)))
    with pytest.raises(ValueError):
        delta_framed(g)


def _read_back(g):
    return graph_from_dict(json.loads(dumps(graph_to_dict(g))))


def _raw_sources():
    """The odd, then the even bases of orders <= 4, then the framed bases
    of orders <= 3, each walked as ``verification`` walks it."""
    sources = [g for parity in (ODD, EVEN) for k in (1, 2, 3, 4)
               for b in _bases(partial(basis, parity), k).values() for g in b]
    return sources + [g for k in (1, 2, 3)
                      for b in _bases(framed_basis, k).values() for g in b]


def _raw_terms(g):
    """Every raw ``(sign, graph)`` term built from ``g`` before any
    canonical form: one contraction per site, one deletion per cross and,
    on an uncrossed odd graph, one substitution per short chord."""
    terms = [contract_raw(g, site) for site in contraction_sites(g)]
    terms += [delete_cross(g, a) for a in range(1, g.num_crosses + 1)]
    if g.parity == ODD and not g.crosses:
        terms += [(1, _substitute(g, idx)) for idx in g.short_chords()]
    return terms


def test_raw_terms_are_pinned():
    """The raw terms themselves, labels and edge order included, are
    pinned: the operator pins hash canonical images only, so a relabelling
    slip that lands in the same class would pass them."""
    sources = _raw_sources()
    acc, count = hashlib.sha256(), 0
    for g in sources:
        for term in _raw_terms(g):
            acc.update(repr(term).encode())
            count += 1
    assert (len(sources), count) == (1481, 11204)
    assert acc.hexdigest() == ("c1ea8d0e023b5436b7b4c2e3cf208a15"
                               "c2ae3cbc69057c7e71b09bc167fe4b60")


def test_edge_pairs_are_the_shared_tuples():
    """Every graph the enumerator, the contractions, the cross deletions,
    the substitution, the canonical forms and the JSON reader build holds
    the pair table's own tuples.  The memo is cleared first, so that no
    graph an earlier test wrote out by hand comes back from it."""
    canonical_form.cache_clear()
    sources = _raw_sources()
    made = list(sources)
    for g in sources:
        made += [h for _, h in _raw_terms(g)]
        ops = [delta]
        if g.parity == ODD:
            ops.append(delta_framed)
            if not g.crosses:
                ops += [delta_underline, short_chord_substitution]
        for op in ops:
            made += [h for h, _ in op(g).items()]
    made += [_read_back(g) for g in set(made)]
    assert len(made) > 10000
    unshared = [g for g in made
                if any(p is not _PAIRS[p[0]][p[1]] for p in g.edges)]
    assert not unshared, unshared[:3]


def test_labels_beyond_the_pair_table():
    """A graph with labels past the table, which only JSON input or a
    hand-built graph can carry, round trips and maps through delta with
    tuples of its own."""
    chords = [(i, i + 13) for i in range(1, 14)]
    a, b, c, d = 31, 32, 33, 34
    edges = chords + [(27, a), (28, b), (29, c), (30, d),
                      (a, b), (b, c), (c, d), (d, a), (a, c)]
    g = DecoratedGraph(ODD, 30, 4, tuple(edges))
    assert validate(g) == []
    assert g.num_vertices >= len(_PAIRS)
    assert _read_back(g) == g
    image = delta(g)
    assert not image.is_zero()
    beyond = [h for h, _ in image.items()
              if any(y >= len(_PAIRS) for _, y in h.edges)]
    assert beyond
    assert all(_read_back(h) == h for h in beyond)
