"""Shared helpers: the order of a graph, random decoration changes with
their tracked signs, and the exhaustive shape search the pruned one is
checked against."""

from __future__ import annotations

import itertools
import os
import random
from functools import lru_cache

import pytest

from circlegc.enumeration import _decorate, _shapes_cached
from circlegc.graphs import ODD, EVEN, DecoratedGraph, canonical_form

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_subprocess_path():
    """Subprocesses the tests start (criterion 11 runs the CLI) import
    circlegc from this checkout's src, as the tests themselves do."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        yield


@pytest.fixture(autouse=True)
def _cold_caches_for_slow_tests(request):
    """Each slow test starts without the canonical forms and shapes the
    tests before it left memoized, so the slow tier's peak is that of
    its largest test, not of the order the tests run in."""
    if request.node.get_closest_marker("slow"):
        canonical_form.cache_clear()
        _shapes_cached.cache_clear()


def order(g: DecoratedGraph) -> int:
    """e - v_int (+ number of crosses in the framed case)."""
    return g.num_edges - g.v_int + g.num_crosses


def _perm_sign(perm) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def _rotation_sign(v_ext: int, r: int) -> int:
    # a cyclic shift by one step is a v_ext-cycle
    return (-1) ** ((v_ext - 1) * r)


def decorated_variant(g: DecoratedGraph, rng: random.Random):
    """A random graph in g's decoration orbit, with the sign relating
    them: [variant] = sign * [g]."""
    sign = 1
    r = rng.randrange(g.v_ext)
    sign *= _rotation_sign(g.v_ext, r)

    def rot(v: int) -> int:
        if v <= g.v_ext:
            return (v - 1 + r) % g.v_ext + 1
        return v

    if g.parity == ODD:
        perm = list(range(g.v_int))
        rng.shuffle(perm)
        sign *= _perm_sign(perm)

        def remap(v: int) -> int:
            if v <= g.v_ext:
                return rot(v)
            return g.v_ext + perm[v - g.v_ext - 1] + 1

        edges = []
        for a, b in g.edges:
            a, b = remap(a), remap(b)
            if rng.random() < 0.5:
                a, b = b, a
                sign *= -1
            edges.append((a, b))
        loops = []
        for v, of, af in g.loops:
            if rng.random() < 0.5:        # swap the half-edge order
                of = 1 - of
                sign *= -1
            if rng.random() < 0.5:        # flip the arrow
                af = 1 - af
                sign *= -1
            loops.append((rot(v), of, af))
        crosses = list(g.crosses)
        if len(crosses) >= 2:
            cperm = list(range(len(crosses)))
            rng.shuffle(cperm)
            sign *= _perm_sign(cperm)
            crosses = [rot(crosses[cperm[t]]) for t in range(len(crosses))]
        else:
            crosses = [rot(v) for v in crosses]
        return DecoratedGraph(ODD, g.v_ext, g.v_int, tuple(edges),
                              tuple(loops), tuple(crosses)), sign

    perm = list(range(len(g.edges)))
    rng.shuffle(perm)
    sign *= _perm_sign(perm)
    names = list(range(g.v_int))
    rng.shuffle(names)                    # unsigned internal renaming

    def remap(v: int) -> int:
        if v <= g.v_ext:
            return rot(v)
        return g.v_ext + names[v - g.v_ext - 1] + 1

    edges = []
    for t in range(len(g.edges)):
        a, b = g.edges[perm[t]]
        a, b = remap(a), remap(b)
        edges.append((min(a, b), max(a, b)))
    return DecoratedGraph(EVEN, g.v_ext, g.v_int, tuple(edges)), sign


# ----------------------------------------------------------------------
# reference: the exhaustive shape search, without the canonical-row prune,
# recomputing the valence deficit and excess over all vertices at every
# search node


def _connected(v_ext: int, v_int: int, pairs) -> bool:
    """All vertices in one component, the circle tying the externals."""
    parent = list(range(v_ext + v_int + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for v in range(2, v_ext + 1):
        union(1, v)
    for a, b in pairs:
        union(a, b)
    root = find(1)
    return all(find(v) == root for v in range(1, v_ext + v_int + 1))


@lru_cache(maxsize=None)
def reference_shapes(v_ext: int, v_int: int, e: int, min_val: tuple):
    """All connected simple shapes: sorted tuples of distinct endpoint
    pairs (a, b), a <= b, loops only on external vertices, meeting the
    per-vertex minimum valences exactly up to the global slack."""
    nv = v_ext + v_int
    slack = 2 * e - sum(min_val)
    if slack < 0:
        return ()
    pool = []
    for a in range(1, nv + 1):
        if a <= v_ext:
            pool.append((a, a))
        for b in range(a + 1, nv + 1):
            pool.append((a, b))
    out = []
    val = [0] * (nv + 1)

    def deficit():
        return sum(max(0, min_val[v - 1] - val[v]) for v in range(1, nv + 1))

    def excess():
        return sum(max(0, val[v] - min_val[v - 1]) for v in range(1, nv + 1))

    def grow(idx, chosen, max_int_used):
        need = e - len(chosen)
        if need == 0:
            if deficit() == 0 and _connected(v_ext, v_int, chosen):
                out.append(tuple(chosen))
            return
        if len(pool) - idx < need or deficit() > 2 * need:
            return
        for j in range(idx, len(pool)):
            a, b = pool[j]
            hi_int = max(a, b) if max(a, b) > v_ext else 0
            # introduce anonymous internal slots in label order
            if hi_int and hi_int > max_int_used + 1:
                continue
            val[a] += 1
            val[b] += 1
            if excess() <= slack:
                chosen.append((a, b))
                grow(j + 1, chosen, max(max_int_used, hi_int))
                chosen.pop()
            val[a] -= 1
            val[b] -= 1

    grow(0, [], v_ext)
    return tuple(out)


def reference_labelled_shapes(parity, k, m):
    """Every decorated shape of order k and degree m, one per labelled
    shape, as ``basis(parity, k, m)`` decorates them."""
    for v_int in range(0, 2 * k - m):
        v_ext = 2 * k - v_int - m
        e = k + v_int
        if v_ext < 1 or e < 1:
            continue
        min_val = (1,) * v_ext + (3,) * v_int
        for shape in reference_shapes(v_ext, v_int, e, min_val):
            yield _decorate(parity, v_ext, v_int, shape)


def reference_framed_shapes(k, m):
    """Every decorated crossed shape of framed order k and degree m, as
    ``framed_basis(k, m)`` decorates them."""
    for x in range(0, k + 1):
        k0, m0 = k - x, m - x
        for v_int in itertools.count(0):
            v_ext = 2 * k0 - v_int - m0
            e = k0 + v_int
            if v_ext < 1 or e < 0 or e == 0 and v_int > 0:
                break
            for crossed in itertools.combinations(range(1, v_ext + 1), x):
                min_val = tuple(0 if v in crossed else 1
                                for v in range(1, v_ext + 1)) + (3,) * v_int
                for shape in reference_shapes(v_ext, v_int, e, min_val):
                    yield _decorate(ODD, v_ext, v_int, shape, crossed)
