"""Seeded inputs for the delta-batch workload.

Graphs are built here from the definitions alone, without circlegc's
enumerator or canonical forms, so that a change of canonical
representatives leaves the inputs unchanged.  Every graph has order 5
(e - v_int = 5) and degree m in 3..5 (2e - 3 v_int - v_ext = m), so
v_ext = 10 - v_int - m and e = 5 + v_int.  The batch is stratified: each
(parity, degree, v_int) cell the gradings allow gets an equal share, which
covers every internal-vertex count and keeps the total work close from
seed to seed.

Graphs are written in circlegc's graph JSON schema.  ``variant`` returns a
second random decoration of a graph together with the sign s such that
[variant] = s [graph] in the quotient space.
"""

from __future__ import annotations

import random

ORDER = 5
DEGREES = (3, 4, 5)
PARITIES = ("odd", "even")
BATCH = 2000


def strata():
    """All (parity, degree, v_int) cells of the batch, in a fixed order."""
    return [(p, m, v_int) for p in PARITIES for m in DEGREES
            for v_int in range(0, 2 * ORDER - m)]


def _connected(v_ext, n, pairs):
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for v in range(2, v_ext + 1):       # the circle joins the externals
        parent[find(v)] = find(1)
    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(v) for v in range(1, n + 1)}) == 1


def random_shape(rng, v_ext, v_int, m):
    """Endpoint pairs of a random valid shape: simple, connected through
    the circle, externals of valence >= 1 (small loops allowed there),
    internals of valence >= 3 and no internal small loop.  Stubs are
    matched at random and rejected until valid."""
    n = v_ext + v_int
    stubs = list(range(1, v_ext + 1)) + \
        [v for v in range(v_ext + 1, n + 1) for _ in range(3)]
    for _ in range(100000):
        pool = stubs + [rng.randint(1, n) for _ in range(m)]
        rng.shuffle(pool)
        pairs = [tuple(sorted(pool[i:i + 2])) for i in range(0, len(pool), 2)]
        if len(set(pairs)) != len(pairs):
            continue
        if any(a == b and a > v_ext for a, b in pairs):
            continue
        if _connected(v_ext, n, pairs):
            return pairs
    raise RuntimeError("no valid shape for v_ext=%d v_int=%d m=%d"
                       % (v_ext, v_int, m))


def _endpoint(v_ext, label):
    return {"ext": label} if label <= v_ext else {"int": label - v_ext}


def to_json(parity, v_ext, v_int, edges, loops):
    """Graph JSON: odd edges are (tail, head) and loops (vertex, order
    flag, arrow flag); even edges are listed in label order and carry
    their small loops as (a, a)."""
    out = []
    for i, (a, b) in enumerate(edges):
        entry = {"from": _endpoint(v_ext, a), "to": _endpoint(v_ext, b)}
        if parity == "odd":
            entry["oriented"] = True
        else:
            entry["label"] = i + 1
        out.append(entry)
    return {"parity": parity, "v_ext": v_ext, "v_int": v_int, "edges": out,
            "small_loops": [{"vertex": v,
                             "half_edge_order": ("with_circle",
                                                 "against_circle")[of],
                             "arrow": ("with_order", "against_order")[af]}
                            for v, of, af in loops],
            "crosses": []}


def _from_json(d):
    v_ext = d["v_ext"]

    def label(ep):
        return ep["ext"] if "ext" in ep else v_ext + ep["int"]

    edges = [(label(e["from"]), label(e["to"])) for e in d["edges"]]
    loops = [(s["vertex"], int(s["half_edge_order"] == "against_circle"),
              int(s["arrow"] == "against_order")) for s in d["small_loops"]]
    return d["parity"], v_ext, d["v_int"], edges, loops


def random_graph(rng, parity, m, v_int):
    """One random decorated graph of order 5 and degree m."""
    v_ext = 2 * ORDER - v_int - m
    pairs = random_shape(rng, v_ext, v_int, m)
    labels = list(range(v_ext + 1, v_ext + v_int + 1))
    rng.shuffle(labels)

    def relabel(v):
        return v if v <= v_ext else labels[v - v_ext - 1]

    pairs = [(relabel(a), relabel(b)) for a, b in pairs]
    rng.shuffle(pairs)
    if parity == "even":
        return to_json(parity, v_ext, v_int,
                       [(min(a, b), max(a, b)) for a, b in pairs], [])
    edges = [(a, b) if rng.random() < 0.5 else (b, a)
             for a, b in pairs if a != b]
    loops = [(a, rng.randint(0, 1), rng.randint(0, 1))
             for a, b in pairs if a == b]
    return to_json(parity, v_ext, v_int, edges, loops)


def batch(seed):
    """The seeded batch: BATCH graphs split evenly over the strata, in a
    seeded random order."""
    rng = random.Random(seed)
    cells = strata()
    graphs = []
    for i, (parity, m, v_int) in enumerate(cells):
        share = BATCH // len(cells) + (i < BATCH % len(cells))
        graphs += [random_graph(rng, parity, m, v_int) for _ in range(share)]
    rng.shuffle(graphs)
    return graphs


def _perm_sign(seq):
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def variant(graph, rng):
    """A random decoration change of ``graph`` and its sign: a rotation of
    the circle labels, a renaming of the internal vertices, and in odd
    parity arrow reversals and small-loop flag flips, in even parity an
    edge relabelling.  Signs follow the identifications listed in
    ``circlegc.graphs``."""
    parity, v_ext, v_int, edges, loops = _from_json(graph)
    r = rng.randrange(v_ext)
    perm = list(range(v_int))
    rng.shuffle(perm)
    sign = _perm_sign([(i + r) % v_ext for i in range(v_ext)])
    if parity == "odd":
        sign *= _perm_sign(perm)

    def remap(v):
        if v <= v_ext:
            return (v - 1 + r) % v_ext + 1
        return v_ext + perm[v - v_ext - 1] + 1

    edges = [(remap(a), remap(b)) for a, b in edges]
    loops = [(remap(v), of, af) for v, of, af in loops]
    if parity == "odd":
        flips = [rng.randint(0, 1) for _ in range(len(edges) + 2 * len(loops))]
        sign *= (-1) ** sum(flips)
        edges = [(b, a) if f else (a, b) for (a, b), f in zip(edges, flips)]
        loops = [(v, of ^ flips[len(edges) + 2 * i],
                  af ^ flips[len(edges) + 2 * i + 1])
                 for i, (v, of, af) in enumerate(loops)]
    else:
        edges = [(min(a, b), max(a, b)) for a, b in edges]
        order = list(range(len(edges)))
        rng.shuffle(order)
        sign *= _perm_sign(order)
        edges = [edges[i] for i in order]
    return to_json(parity, v_ext, v_int, edges, loops), sign
