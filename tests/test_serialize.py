"""Bit-exact JSON round trips and the DOT export format."""

import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlegc.graphs import (ODD, EVEN, AGAINST_CIRCLE, AGAINST_ORDER,
                             WITH_CIRCLE, WITH_ORDER, DecoratedGraph,
                             GraphVector)
from circlegc.coboundary import delta
from circlegc.enumeration import basis, framed_basis
from circlegc.framed import delta_framed
from circlegc.homology import cohomology
from circlegc.serialize import (dumps, graph_from_dict, graph_text,
                                graph_to_dict, graph_to_dot, vector_text,
                                vector_to_dict, write_listing)


def _all_graphs():
    for parity in (ODD, EVEN):
        for k in (1, 2, 3):
            for m in (0, 1, 2):
                yield from basis(parity, k, m)
    for k in (1, 2, 3):
        for m in (0, 1):
            yield from framed_basis(k, m)


def test_round_trip_is_identity():
    for g in _all_graphs():
        assert graph_from_dict(json.loads(dumps(graph_to_dict(g)))) == g


def test_serialization_is_byte_stable():
    for g in _all_graphs():
        text = dumps(graph_to_dict(g))
        assert dumps(graph_to_dict(graph_from_dict(json.loads(text)))) == text


@pytest.mark.parametrize("n", [0, 1, 17])
@pytest.mark.parametrize("key", ["graphs", "a", "zz"])
def test_write_listing_matches_dumps(n, key):
    """The streamed payload is the text ``dumps`` gives for the whole of
    it, with two list-valued keys of JSON texts, whether the first sorts
    before, among or after the head, and when it sorts next to the
    second."""
    items = [graph_to_dict(g) for g in itertools.islice(_all_graphs(), n)]
    texts = [dumps(d)[:-1] for d in items]
    head = {"tool": "circlegc", "count": n, "framed": False,
            "version": "0.0", "empty": {}, "nested": {"graphs": []}}
    out = io.StringIO()
    write_listing(out, head, {key: iter(texts), "zzz": reversed(texts)})
    assert out.getvalue() == dumps(dict(head, **{key: items,
                                                 "zzz": items[::-1]}))


def _regular_and_framed_bases():
    """Every graph of the order <= 4 bases in both parities and of the
    order <= 3 framed bases, with the coboundary it takes."""
    for parity in (ODD, EVEN):
        for k in range(1, 5):
            for m in range(2 * k + 2):
                for g in basis(parity, k, m):
                    yield g, delta
    for k in range(1, 4):
        for m in range(2 * k + 2):
            for g in framed_basis(k, m):
                yield g, delta_framed


def test_graph_text_matches_dumps():
    for g, _ in _regular_and_framed_bases():
        assert graph_text(g) + "\n" == dumps(graph_to_dict(g))


def test_vector_text_matches_dumps():
    """On the coboundary images of those bases, the order-4 cocycles (not
    all of whose coefficients are integers), a vector scaled by -3/7 and
    the empty vector, with and without a parity."""
    vectors = [op(g) for g, op in _regular_and_framed_bases()]
    cocycles = [v for parity in (ODD, EVEN) for m in range(10)
                for v in cohomology(parity, 4, m).cocycle_basis]
    assert any(c.denominator > 1 for v in cocycles for c in v.values())
    vectors += cocycles
    vectors += [cocycles[-1].scaled(Fraction(-3, 7)), GraphVector(),
                GraphVector(EVEN)]
    for v in vectors:
        assert vector_text(v) + "\n" == dumps(vector_to_dict(v))


def test_schema_fields():
    g = DecoratedGraph(ODD, 2, 1, ((1, 3), (2, 3), (3, 1)),
                       (), (1,))
    data = graph_to_dict(g)
    assert data["parity"] == "odd"
    assert data["edges"][0] == {"from": {"ext": 1}, "to": {"int": 1},
                                "oriented": True}
    assert data["crosses"] == [{"vertex": 1, "label": 1}]


def test_even_edge_labels_positional():
    g = DecoratedGraph(EVEN, 3, 1, ((1, 4), (2, 4), (3, 4)))
    data = graph_to_dict(g)
    assert [e["label"] for e in data["edges"]] == [1, 2, 3]
    # shuffled label listing reloads into the same graph
    data["edges"] = data["edges"][::-1]
    with_labels = graph_from_dict(data)
    assert with_labels == g


def test_small_loop_fields():
    g = DecoratedGraph(ODD, 1, 0, (), ((1, WITH_CIRCLE, WITH_ORDER),))
    data = graph_to_dict(g)
    assert data["small_loops"] == [{"vertex": 1,
                                    "half_edge_order": "with_circle",
                                    "arrow": "with_order"}]
    assert graph_from_dict(data) == g


def test_invalid_payloads_rejected():
    with pytest.raises(ValueError):
        graph_from_dict({"parity": "weird", "v_ext": 1, "v_int": 0})
    with pytest.raises(ValueError):
        graph_from_dict({"parity": "odd", "v_ext": 1, "v_int": 0,
                         "edges": [{"from": {"ext": 5},
                                    "to": {"ext": 1}}]})
    bad = graph_to_dict(DecoratedGraph(ODD, 1, 0, (), (), (1,)))
    bad["crosses"][0]["label"] = 7
    with pytest.raises(ValueError):
        graph_from_dict(bad)


def test_dot_output_structure():
    g = DecoratedGraph(ODD, 3, 1, ((1, 4), (2, 4), (3, 4)))
    dot = graph_to_dot(g, name="t")
    assert dot.startswith("digraph t {")
    assert dot.rstrip().endswith("}")
    assert dot.count("style=bold") == 3          # the circle's arcs
    assert dot.count("style=dashed") == 3        # the graph's edges
    assert "style=filled" in dot                 # the internal vertex


def test_dot_even_edges_are_undirected_and_labelled():
    g = DecoratedGraph(EVEN, 4, 0, ((1, 3), (2, 4)))
    dot = graph_to_dot(g)
    assert dot.count("dir=none") == 2
    assert 'label="1"' in dot and 'label="2"' in dot


def test_dot_labels_a_vertex_with_all_of_its_crosses():
    """Two crosses on vertex 1 make the graph zero by the relations, but
    the drawing shows both; a vertex with one cross keeps its label."""
    g = DecoratedGraph(ODD, 2, 0, ((1, 2),), (), (1, 2, 1))
    lines = graph_to_dot(g).splitlines()
    assert '  e1 [label="1", shape=circle, xlabel="x1,x3"];' in lines
    assert '  e2 [label="2", shape=circle, xlabel="x2"];' in lines


def test_dot_draws_small_loop_decorations():
    """A loop against the circle carries a "swap" tail label, and one
    against the order points back; each of the four decorations sits on
    a vertex of its own."""
    g = DecoratedGraph(ODD, 4, 0, (), (
        (1, WITH_CIRCLE, WITH_ORDER), (2, AGAINST_CIRCLE, WITH_ORDER),
        (3, WITH_CIRCLE, AGAINST_ORDER), (4, AGAINST_CIRCLE, AGAINST_ORDER)))
    lines = graph_to_dot(g).splitlines()
    assert lines[-5:] == [
        '  e1 -> e1 [style=dashed];',
        '  e2 -> e2 [style=dashed, taillabel="swap"];',
        '  e3 -> e3 [style=dashed, dir=back];',
        '  e4 -> e4 [style=dashed, taillabel="swap", dir=back];',
        '}']


# Valid payloads covering every field: odd edges, small loops and crosses,
# internal vertices, and even edge labels with an external loop.
FUZZ_SEEDS = [
    DecoratedGraph(ODD, 3, 1, ((1, 4), (4, 2), (3, 4))),
    DecoratedGraph(ODD, 3, 0, ((1, 2),), ((3, 1, 0),), (2,)),
    DecoratedGraph(EVEN, 3, 1, ((1, 4), (2, 4), (3, 3), (3, 4))),
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6)
    | st.floats(allow_nan=False) | st.text(max_size=3)
    | st.sampled_from(["odd", "even", "with_circle", "against_order"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["ext", "int", "label", "vertex", "from", "to",
                         "arrow", "half_edge_order"]), inner, max_size=3),
    max_leaves=6)


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def mutated_payloads(draw):
    """A valid graph payload with one to three entries deleted or replaced
    by arbitrary JSON values."""
    data = graph_to_dict(draw(st.sampled_from(FUZZ_SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        if not path:
            data = draw(json_values)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return data


@settings(max_examples=400, deadline=None)
@given(mutated_payloads())
def test_malformed_payloads_raise_value_error_only(data):
    try:
        g = graph_from_dict(data)
    except ValueError:
        return
    assert isinstance(g, DecoratedGraph)
    assert graph_from_dict(graph_to_dict(g)) == g
