"""The crossed complex, the short-chord-free coboundary, and the chain
map between them."""

import random
from functools import lru_cache, partial

import pytest

from circlegc.graphs import (ODD, WITH_CIRCLE, WITH_ORDER, DecoratedGraph,
                             GraphVector, degree, linear)
from circlegc.coboundary import delete_cross, delta
from circlegc.enumeration import basis, framed_basis
from circlegc.homology import _rank, cohomology, delta_matrix
from circlegc.framed import (delta_framed, delta_underline,
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
                assert linear(delta_framed, delta_framed(g)).is_zero()


def test_framed_delta_squares_to_zero_at_order4():
    """d^2 = 0 on every graph of the crossed complex of order 4, each
    mapped through one memo, and the matrices built from that memo are
    nonzero below the top degree."""
    bases = _bases(framed_basis, 4)
    assert [len(bases.get(m, [])) for m in range(7)] == \
        [105, 300, 357, 210, 57, 5, 0]
    image = lru_cache(maxsize=None)(delta_framed)
    for m in range(6):
        for g in bases[m]:
            assert linear(image, image(g)).is_zero(), (m, g)
        mat = delta_matrix(bases[m], bases.get(m + 1, []), op=image)
        assert any(mat.columns) == (m < 5), m


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
    # the map starts from the uncrossed complex; a cross on the input
    # would otherwise be dropped when the new crosses are renumbered
    g = DecoratedGraph(ODD, 4, 0, ((1, 3), (2, 4)), (), (1,))
    with pytest.raises(ValueError):
        short_chord_substitution(g)


def test_chain_map():
    for k in (1, 2, 3):
        for b in _bases(partial(basis, ODD), k).values():
            for g in b:
                lhs = linear(short_chord_substitution, delta_underline(g))
                rhs = linear(delta_framed, short_chord_substitution(g))
                assert lhs == rhs, g


def test_substitution_order_independence():
    for k in (2, 3):
        for b in _bases(partial(basis, ODD), k).values():
            for g in b:
                chords = g.short_chords()
                if len(chords) < 2:
                    continue
                ref = short_chord_substitution(g)
                assert short_chord_substitution(
                    g, chord_order=list(reversed(chords))) == ref


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
            img = linear(short_chord_substitution, v)
            assert linear(delta_framed, img).is_zero()
            cols.append({index[g]: c for c, g in img.terms})
        assert _rank(cols, len(fb)) == len(cols)


def test_framed_cohomology_dimensions():
    dims = [cohomology(ODD, k, 0, op=delta_framed,
                       basis_fn=lambda parity, k2, m: framed_basis(k2, m)
                       ).dim_H for k in (1, 2, 3)]
    assert dims == [1, 2, 3]


def test_underline_cohomology_dimensions():
    dims = [cohomology(ODD, k, 0, op=delta_underline).dim_H
            for k in (1, 2, 3)]
    assert dims == [0, 2, 3]
