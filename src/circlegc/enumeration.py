"""Exhaustive bases of the graph spaces, one bidegree at a time.

The gradings pin down the shape counts: with order k and degree m, a graph
with v_i internal vertices has e = k + v_i edges and v_ext = 2k - v_i - m
external vertices.  Internal vertices need valence 3, external vertices
valence 1 (crossed external vertices may be bare), and the total slack
2e - 3 v_i - v_ext equals m, so for m < 0 there is nothing and for m = 0
the valences are exact.  Underlying simple graphs are generated by a
depth-first search over the sorted endpoint pairs, row by row.  The search
keeps the valence deficit (edge ends still missing below the minimum
valences) and excess (ends above them) as running counts, updated as each
edge end is added or removed.  A branch stops when the excess passes the
slack, when the remaining edges cannot cover the deficit, or when it has
passed the row of a vertex still below its minimum valence: no later pair
reaches that vertex.  Each shape is then decorated in a fixed way,
canonicalized, and deduped.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import (ODD, EVEN, WITH_CIRCLE, WITH_ORDER, DecoratedGraph,
                     _connected, canonical_form)


def _underlying_shapes(v_ext: int, v_int: int, e: int, min_val: tuple):
    """All connected simple shapes: sorted tuples of distinct endpoint
    pairs (a, b), a <= b, loops only on external vertices, meeting the
    per-vertex minimum valences exactly up to the global slack."""
    nv = v_ext + v_int
    slack = 2 * e - sum(min_val)
    if slack < 0:
        return []
    pool = []
    for a in range(1, nv + 1):
        if a <= v_ext:
            pool.append((a, a))
        for b in range(a + 1, nv + 1):
            pool.append((a, b))
    out = []
    val = [0] * (nv + 1)
    need_val = (0,) + tuple(min_val)
    # running sums of max(0, min_val - val) and max(0, val - min_val) over
    # the vertices, updated one edge end at a time
    deficit = sum(min_val)
    excess = 0

    def grow(idx, chosen, max_int_used):
        nonlocal deficit, excess
        need = e - len(chosen)
        if need == 0:
            if deficit == 0 and _connected(v_ext, nv, chosen):
                out.append(tuple(chosen))
            return
        if len(pool) - idx < need or deficit > 2 * need:
            return
        # pairs come row by row, so a vertex gets no edge end once the
        # search has passed its row
        row = pool[idx - 1][0] if idx else 1
        for j in range(idx, len(pool)):
            a, b = pool[j]
            if a != row:
                if val[row] < need_val[row]:
                    break
                row = a
            hi_int = b if b > v_ext else 0
            # introduce anonymous internal slots in label order
            if hi_int and hi_int > max_int_used + 1:
                continue
            for v in (a, b):
                if val[v] < need_val[v]:
                    deficit -= 1
                else:
                    excess += 1
                val[v] += 1
            if excess <= slack:
                chosen.append((a, b))
                grow(j + 1, chosen, max(max_int_used, hi_int))
                chosen.pop()
            for v in (b, a):
                val[v] -= 1
                if val[v] < need_val[v]:
                    deficit += 1
                else:
                    excess -= 1

    grow(0, [], v_ext)
    return out


@lru_cache(maxsize=None)
def _shapes_cached(v_ext, v_int, e, min_val):
    return tuple(_underlying_shapes(v_ext, v_int, e, min_val))


def _decorate(parity: str, v_ext: int, v_int: int, shape,
              crossed: tuple = ()):
    """One fixed decoration of a shape; the canonical form supplies the
    rest of the orbit."""
    if parity == ODD:
        edges = tuple((a, b) for a, b in shape if a != b)
        loops = tuple((a, WITH_CIRCLE, WITH_ORDER)
                      for a, b in shape if a == b)
        return DecoratedGraph(ODD, v_ext, v_int, edges, loops,
                              tuple(crossed))
    return DecoratedGraph(EVEN, v_ext, v_int, tuple(shape))


def basis(parity: str, k: int, m: int):
    """Canonical basis of the order-k degree-m space, sorted and deduped.

    Every returned graph is its own canonical form with sign +1; zero
    classes are dropped.
    """
    found = {}
    if m < 0:
        return []
    for v_int in range(0, 2 * k - m):
        v_ext = 2 * k - v_int - m
        e = k + v_int
        if v_ext < 1 or e < 1:
            continue
        min_val = tuple([1] * v_ext + [3] * v_int)
        for shape in _shapes_cached(v_ext, v_int, e, min_val):
            g = _decorate(parity, v_ext, v_int, shape)
            res = canonical_form(g)
            if res is not None:
                found[res[0].sort_key()] = res[0]
    return [found[key] for key in sorted(found)]


def trivalent_basis(parity: str, k: int):
    """Degree-0 basis: univalent external, trivalent internal vertices."""
    return basis(parity, k, 0)


def framed_basis(k: int, m: int):
    """Canonical basis of the framed (crossed) odd space at framed order k
    and framed degree m.  A crossed external vertex may be bare; at most
    one cross sits on a vertex."""
    found = {}
    for x in range(0, k + 1):
        k0, m0 = k - x, m - x
        # e - v_int = k0 may legitimately be zero once crosses carry the
        # order; degree fixes v_ext = 2 e - 3 v_int - m0.
        for v_int in itertools.count(0):
            v_ext = 2 * k0 - v_int - m0
            e = k0 + v_int
            if v_ext < 1 or e < 0:
                break
            if e == 0 and v_int > 0:
                break
            for crossed in itertools.combinations(range(1, v_ext + 1), x):
                min_val = tuple([0 if v in crossed else 1
                                 for v in range(1, v_ext + 1)] + [3] * v_int)
                for shape in _shapes_cached(v_ext, v_int, e, min_val):
                    g = _decorate(ODD, v_ext, v_int, shape, crossed)
                    res = canonical_form(g)
                    if res is not None:
                        found[res[0].sort_key()] = res[0]
    return [found[key] for key in sorted(found)]
