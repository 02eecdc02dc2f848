"""Shared helpers: random decoration changes with their tracked signs."""

from __future__ import annotations

import os
import random

import pytest

from circlegc.graphs import ODD, EVEN, DecoratedGraph

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
