"""JSON and DOT serialization for decorated graphs and graph vectors.

The JSON encoding round trips bit exactly: ``graph_from_dict`` of the
parsed text ``dumps(graph_to_dict(g))`` is the same ``DecoratedGraph``
value, and ``dumps`` writes fully deterministic bytes (sorted keys,
fixed separators).  Edge endpoints are written as ``{"ext": i}`` for
circle vertices and ``{"int": j}`` for internal ones, with j counted
from 1; odd edges are flagged ``"oriented": true`` and read from tail to
head, even edges carry their positional ``"label"`` instead.

One encoder holds the JSON settings, and every writer uses it.
``dumps`` returns a payload's text whole.  ``graph_text`` and
``vector_text`` give a graph's and a vector's text; ``vector_text``
takes each graph's text from a function the caller may memoize, so a
graph met in many terms is encoded once.  ``write_listing``, the one
streamed writer, writes a payload whose list-valued keys draw JSON texts
one at a time, to the same bytes ``dumps`` gives, so the text of a long
listing or report is never held whole.

The DOT export draws the circle as a cycle of bold arcs through the
external vertices, graph edges dashed, and internal vertices filled.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .graphs import ODD, EVEN, AGAINST_CIRCLE, AGAINST_ORDER, \
    DecoratedGraph, GraphVector, edge_pair
from .weights import ChordDiagram

_ORDER_NAMES = {0: "with_circle", 1: "against_circle"}
_ARROW_NAMES = {0: "with_order", 1: "against_order"}
_ORDER_FLAGS = {v: k for k, v in _ORDER_NAMES.items()}
_ARROW_FLAGS = {v: k for k, v in _ARROW_NAMES.items()}


def _endpoint(g: DecoratedGraph, label: int) -> dict:
    if g.is_external(label):
        return {"ext": label}
    return {"int": label - g.v_ext}


def _field(obj, key):
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object, got %r" % (obj,))
    if key not in obj:
        raise ValueError("missing key %r" % (key,))
    return obj[key]


def _list(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ValueError("%r must be a list" % (key,))
    return value


def _int(value, what: str, low: int, high=None) -> int:
    """``value`` if it is an integer (not a bool) in low..high."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < low or high is not None and value > high:
        bounds = ">= %d" % low if high is None else "in %d..%d" % (low, high)
        raise ValueError("%s must be an integer %s, got %r"
                         % (what, bounds, value))
    return value


def _flag(obj: dict, key: str, flags: dict) -> int:
    value = _field(obj, key)
    if not isinstance(value, str) or value not in flags:
        raise ValueError("%r must be one of %s, got %r"
                         % (key, ", ".join(sorted(flags)), value))
    return flags[value]


def _endpoint_label(obj, v_ext: int, v_int: int) -> int:
    if isinstance(obj, dict) and "ext" in obj:
        return _int(obj["ext"], "external endpoint", 1, v_ext)
    if isinstance(obj, dict) and "int" in obj:
        return v_ext + _int(obj["int"], "internal endpoint", 1, v_int)
    raise ValueError("endpoint must name 'ext' or 'int', got %r" % (obj,))


def graph_to_dict(g: DecoratedGraph) -> dict:
    edges = []
    for idx, (a, b) in enumerate(g.edges):
        entry = {"from": _endpoint(g, a), "to": _endpoint(g, b)}
        if g.parity == ODD:
            entry["oriented"] = True
        else:
            entry["label"] = idx + 1
        edges.append(entry)
    loops = [{"vertex": v,
              "half_edge_order": _ORDER_NAMES[of],
              "arrow": _ARROW_NAMES[af]}
             for v, of, af in g.loops]
    crosses = [{"vertex": v, "label": a + 1}
               for a, v in enumerate(g.crosses)]
    return {"parity": g.parity, "v_ext": g.v_ext, "v_int": g.v_int,
            "edges": edges, "small_loops": loops, "crosses": crosses}


def graph_from_dict(data: dict) -> DecoratedGraph:
    """The graph a JSON object describes; ``ValueError`` when a key is
    missing, a count, label or endpoint is not an integer in range, a
    loop flag is unknown, or there are too few edge ends and crosses for
    the vertices.  Whether the graph is well formed (valences,
    connectivity) is left to ``graphs.validate``, and whether it is zero
    (multiple edges among others) to ``graphs.is_zero_by_relations``."""
    parity = _field(data, "parity")
    if parity not in (ODD, EVEN):
        raise ValueError("parity must be 'odd' or 'even'")
    v_ext = _int(_field(data, "v_ext"), "v_ext", 1)
    v_int = _int(_field(data, "v_int"), "v_int", 0)
    n = v_ext + v_int
    raw = _list(data, "edges")
    if parity == EVEN:
        labels = [_int(_field(e, "label"), "edge label", 1, len(raw))
                  for e in raw]
        if sorted(labels) != list(range(1, len(raw) + 1)):
            raise ValueError("even edge labels must be 1..e")
        raw = [e for _, e in sorted(zip(labels, raw), key=lambda p: p[0])]
    edges = []
    for entry in raw:
        a = _endpoint_label(_field(entry, "from"), v_ext, v_int)
        b = _endpoint_label(_field(entry, "to"), v_ext, v_int)
        if parity == ODD and a == b:
            raise ValueError("odd edge from %d to itself: small loops go "
                             "in 'small_loops'" % a)
        edges.append((a, b) if parity == ODD else (min(a, b), max(a, b)))
    loops = tuple((_int(_field(entry, "vertex"), "small-loop vertex", 1, n),
                   _flag(entry, "half_edge_order", _ORDER_FLAGS),
                   _flag(entry, "arrow", _ARROW_FLAGS))
                  for entry in _list(data, "small_loops"))
    raw_crosses = _list(data, "crosses")
    labels = [_int(_field(c, "label"), "cross label", 1, len(raw_crosses))
              for c in raw_crosses]
    if sorted(labels) != list(range(1, len(raw_crosses) + 1)):
        raise ValueError("cross labels must be 1..x")
    crosses = tuple(_int(_field(c, "vertex"), "cross vertex", 1, n)
                    for _, c in sorted(zip(labels, raw_crosses),
                                       key=lambda p: p[0]))
    # three edge ends per internal vertex, an end or a cross per external
    ends = 2 * (len(edges) + len(loops))
    if 3 * v_int > ends or v_ext > ends + len(crosses):
        raise ValueError("%d edge ends and %d crosses cannot meet %d "
                         "external and %d internal vertices"
                         % (ends, len(crosses), v_ext, v_int))
    edges = tuple([edge_pair(a, b) for a, b in edges])
    return DecoratedGraph(parity, v_ext, v_int, edges, loops, crosses)


def diagram_from_dict(data) -> ChordDiagram:
    """The chord diagram ``{"chords": [[a, b], ...], "mark": m}`` describes;
    ``ValueError`` when it is not an object, ``chords`` is missing or not a
    list of pairs of integers, ``mark`` is neither null nor an integer, or
    ``ChordDiagram.validate`` rejects the positions."""
    chords = _field(data, "chords")
    if not isinstance(chords, list):
        raise ValueError("'chords' must be a list")
    pairs = []
    for pair in chords:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError("a chord must be a pair of positions, got %r"
                             % (pair,))
        a, b = (_int(p, "chord endpoint", 1) for p in pair)
        pairs.append((min(a, b), max(a, b)))
    mark = data.get("mark")
    if mark is not None and (isinstance(mark, bool)
                             or not isinstance(mark, int)):
        raise ValueError("'mark' must be null or an integer, got %r"
                         % (mark,))
    d = ChordDiagram(tuple(pairs), mark)
    d.validate()
    return d


# The one JSON configuration: payloads are trees or DAGs built by this
# package (a report may share one dict among several places), never
# cyclic, so the cycle check is skipped.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            check_circular=False)


def dumps(obj) -> str:
    """Deterministic JSON text for any serializable payload."""
    return _ENCODER.encode(obj) + "\n"


def graph_text(g: DecoratedGraph) -> str:
    """``dumps(graph_to_dict(g))`` without its trailing newline."""
    return _ENCODER.encode(graph_to_dict(g))


def vector_text(v: GraphVector, text=graph_text) -> str:
    """``dumps(vector_to_dict(v))`` without its trailing newline, each
    graph's text given by ``text``: the keys in sorted order, terms as
    ``v.terms`` lists them."""
    terms = ",".join('{"coefficient":"%s","graph":%s}'
                     % (Fraction(c), text(g)) for c, g in v.terms)
    return '{"parity":%s,"terms":[%s]}' % (_ENCODER.encode(v.parity), terms)


def write_listing(fh, head: dict, lists: dict) -> None:
    """Write ``dumps({**head, **{k: [json.loads(t) for t in v]
    for k, v in lists.items()}})`` to ``fh`` while drawing from the
    iterables of JSON texts in ``lists``, in key order: each text is
    written before the next is drawn, so no list is ever held whole.
    All keys are strings, ``head`` and ``lists`` share none, and each
    text is one value as ``_ENCODER`` writes it (``graph_text``,
    ``vector_text``)."""
    encode = _ENCODER.encode
    sep = "{"
    for k in sorted([*head, *lists]):
        fh.write(sep + encode(k) + ":")
        sep = ","
        if k in head:
            fh.write(encode(head[k]))
            continue
        fh.write("[")
        for i, item in enumerate(lists[k]):
            if i:
                fh.write(",")
            fh.write(item)
        fh.write("]")
    fh.write("}\n")


def vector_to_dict(v: GraphVector) -> dict:
    """The vector's JSON object."""
    terms = [{"coefficient": str(Fraction(c)), "graph": graph_to_dict(g)}
             for c, g in v.terms]
    return {"parity": v.parity, "terms": terms}


def graph_to_dot(g: DecoratedGraph, name: str = "g") -> str:
    """Graphviz text: bold circle arcs, dashed edges, filled internals,
    and each crossed vertex labelled with all of its crosses."""
    lines = ["digraph %s {" % name]
    for i in range(1, g.v_ext + 1):
        attrs = ['label="%d"' % i, "shape=circle"]
        crosses = ["x%d" % a for a, v in enumerate(g.crosses, 1) if v == i]
        if crosses:
            attrs.append('xlabel="%s"' % ",".join(crosses))
        lines.append('  e%d [%s];' % (i, ", ".join(attrs)))
    for j in range(1, g.v_int + 1):
        lines.append('  i%d [label="%d", shape=point, style=filled];'
                     % (j, g.v_ext + j))
    for i in range(1, g.v_ext + 1):
        nxt = 1 if i == g.v_ext else i + 1
        lines.append("  e%d -> e%d [style=bold];" % (i, nxt))

    def node(label):
        return "e%d" % label if g.is_external(label) \
            else "i%d" % (label - g.v_ext)

    for idx, (a, b) in enumerate(g.edges):
        attrs = ["style=dashed"]
        if g.parity == EVEN:
            attrs += ["dir=none", 'label="%d"' % (idx + 1)]
        lines.append("  %s -> %s [%s];" % (node(a), node(b),
                                           ", ".join(attrs)))
    for v, of, af in g.loops:
        attrs = ["style=dashed"]
        if of == AGAINST_CIRCLE:
            attrs.append('taillabel="swap"')
        if af == AGAINST_ORDER:
            attrs.append("dir=back")
        lines.append("  %s -> %s [%s];" % (node(v), node(v),
                                           ", ".join(attrs)))
    lines.append("}")
    return "\n".join(lines) + "\n"
