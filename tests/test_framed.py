"""The crossed complex, the short-chord-free coboundary, and the chain
map between them."""

import random
from functools import lru_cache, partial

import pytest

from circlegc.graphs import (ODD, WITH_CIRCLE, WITH_ORDER, DecoratedGraph,
                             GraphVector, canonical_form, degree)
from circlegc.coboundary import _coboundary, compose, delete_cross, delta
from circlegc.enumeration import basis, framed_basis
from circlegc.homology import _rank, cohomology, delta_matrix
from circlegc.framed import (_branch, _substitution, _underline,
                             delta_framed, delta_underline,
                             delta_underline_vector,
                             short_chord_substitution)
from circlegc.verification import _bases

from conftest import decorated_variant, order


def test_bare_cross_maps_to_loop_graph():
    g = DecoratedGraph(ODD, 1, 0, (), (), (1,))
    v = delta_framed(g)
    assert len(v.terms) == 1
    coeff, h = v.terms[0]
    assert abs(coeff) == 1
    assert h.loops == ((1, WITH_CIRCLE, WITH_ORDER),)
    assert not h.crosses


def test_cross_deletion_grading():
    for k in (1, 2, 3):
        for m in (0, 1):
            for g in framed_basis(k, m):
                for _, h in delta_framed(g).terms:
                    assert order(h) == order(g)
                    assert degree(h) == degree(g) + 1


def test_cross_deletion_sign():
    g = DecoratedGraph(ODD, 2, 0, ((1, 2),), (), (1,))
    sign, raw = delete_cross(g, 1)
    assert sign == (-1) ** (degree(g) + 1)
    assert raw.loops[-1] == (1, WITH_CIRCLE, WITH_ORDER)


def test_framed_delta_squares_to_zero():
    for k in (1, 2, 3):
        for fb in _bases(framed_basis, k).values():
            for g in fb:
                assert not compose(delta_framed, delta_framed(g))


def _assert_framed_dsquared(k, dims):
    """d^2 = 0, in ``int`` arithmetic, on every graph of the crossed
    complex of order k, whose basis sizes by degree are ``dims``, each
    graph mapped through one memo of the engine's ``int`` map behind
    ``delta_framed``; the matrices built from that memo are nonzero below
    the top degree."""
    bases = _bases(framed_basis, k)
    top = len(dims) - 1
    assert [len(bases.get(m, [])) for m in range(top + 2)] == dims + [0]
    image = lru_cache(maxsize=None)(_coboundary)
    for m in range(top + 1):
        for g in bases[m]:
            assert not compose(image, image(g)), (m, g)
        mat = delta_matrix(bases[m], bases.get(m + 1, []), op=image)
        assert any(mat.columns) == (m < top), m


def test_framed_delta_squares_to_zero_at_order4():
    _assert_framed_dsquared(4, [105, 300, 357, 210, 57, 5])


@pytest.mark.slow
def test_framed_delta_squares_to_zero_at_order5():
    """About 9 s and 115 MB."""
    _assert_framed_dsquared(5, [1025, 4028, 6617, 5707, 2682, 651, 68, 2])


def test_underline_equals_delta_without_short_chords():
    for k in (1, 2, 3):
        for b in _bases(partial(basis, ODD), k).values():
            for g in b:
                if not g.short_chords():
                    assert delta_underline(g) == delta(g)


def test_underline_on_single_chord():
    # with two external vertices both arcs join the chord's endpoints
    # and produce the same signed term; one copy is kept
    g = DecoratedGraph(ODD, 2, 0, ((1, 2),))
    v = delta_underline(g)
    assert len(v.terms) == 1
    coeff, h = v.terms[0]
    assert abs(coeff) == 1
    assert h.loops and not h.edges


def test_underline_squares_to_zero():
    for k in (1, 2, 3):
        for b in _bases(partial(basis, ODD), k).values():
            for g in b:
                assert delta_underline_vector(
                    delta_underline(g)).is_zero()


def test_substitution_fixes_chord_free_graphs():
    for k in (1, 2, 3):
        for g in basis(ODD, k, 0):
            if g.short_chords():
                continue
            v = short_chord_substitution(g)
            assert len(v.terms) == 1
            assert v.terms[0][1] == g


def test_substitution_rejects_crossed_graphs():
    # the chain map starts from the uncrossed complex, so a crossed input
    # is refused rather than mapped
    g = DecoratedGraph(ODD, 4, 0, ((1, 3), (2, 4)), (), (1,))
    with pytest.raises(ValueError):
        short_chord_substitution(g)


def _odd_graphs(k):
    """Every odd basis graph of order k, all degrees."""
    return [g for b in _bases(partial(basis, ODD), k).values() for g in b]


def _assert_chain_map(graphs):
    """The substitution commutes with the coboundaries on ``graphs``, in
    ``int`` arithmetic on the engine's maps behind the three operators
    (``test_operator_coefficients_are_fractions`` ties each map to its
    operator)."""
    for g in graphs:
        lhs = compose(_substitution, _underline(g))
        rhs = compose(_coboundary, _substitution(g))
        assert lhs == rhs, g


def _assert_order_independent(graphs) -> int:
    """Substituting the short chords in reversed order gives the same
    map, on every graph of ``graphs`` with at least two of them; returns
    how many such graphs there are."""
    checked = 0
    for g in graphs:
        chords = g.short_chords()
        if len(chords) < 2:
            continue
        checked += 1
        assert _substitution(g, chords[::-1]) == _substitution(g), g
    return checked


def test_chain_map():
    for k in (1, 2, 3, 4):
        _assert_chain_map(_odd_graphs(k))


def test_substitution_order_independence():
    counts = []
    for k in (2, 3, 4):
        graphs = _odd_graphs(k)
        counts.append((len(graphs), _assert_order_independent(graphs)))
    assert counts[-1] == (642, 170)


@pytest.mark.slow
def test_chain_map_and_order_independence_at_order5():
    """The chain map and its order independence on every odd graph of
    order 5.  About 8 s and 115 MB."""
    graphs = _odd_graphs(5)
    _assert_chain_map(graphs)
    assert (len(graphs), _assert_order_independent(graphs)) == (13149, 3212)


def test_branch_substitutes_in_the_given_order():
    """The crosses come out numbered in processing order, the graphs
    agree otherwise, and both orders give the same signed canonical
    term."""
    g = DecoratedGraph(ODD, 4, 0, ((1, 2), (3, 4)))
    assert g.short_chords() == [0, 1]
    (s1, h1), (s2, h2) = _branch(g, [0, 1]), _branch(g, [1, 0])
    assert h1.crosses == (1, 2) and h2.crosses == (2, 1)
    assert h1._replace(crosses=()) == h2._replace(crosses=())
    (c1, e1), (c2, e2) = canonical_form(h1), canonical_form(h2)
    assert c1 == c2 and s1 * e1 == s2 * e2


def test_framed_delta_respects_decoration_classes():
    rng = random.Random(624)
    for k in (1, 2, 3):
        for m in (0, 1):
            for g in framed_basis(k, m):
                base = delta_framed(g)
                for _ in range(3):
                    h, sign = decorated_variant(g, rng)
                    assert delta_framed(h) == base.scaled(sign)


def test_cocycles_embed_into_crossed_cohomology():
    # degree-0 delta cocycles map to independent crossed cocycles
    for k in (2, 3):
        src = basis(ODD, k, 0)
        mat = delta_matrix(src, basis(ODD, k, 1))
        fb = framed_basis(k, 0)
        index = {g: i for i, g in enumerate(fb)}
        cols = []
        for vec in mat.kernel():
            v = GraphVector(parity=ODD)
            for j, c in vec.items():
                v.add_graph(src[j], c)
            img = compose(short_chord_substitution, v)
            assert not compose(delta_framed, img)
            cols.append({index[g]: c for g, c in img.items()})
        assert _rank(cols, len(fb)) == len(cols)


def test_framed_cohomology_dimensions():
    dims = [cohomology(ODD, k, 0, op=delta_framed,
                       basis_fn=framed_basis).dim_H for k in (1, 2, 3)]
    assert dims == [1, 2, 3]


def test_underline_cohomology_dimensions():
    dims = [cohomology(ODD, k, 0, op=delta_underline).dim_H
            for k in (1, 2, 3)]
    assert dims == [0, 2, 3]
