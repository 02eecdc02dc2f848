"""Exhaustive bases of the graph spaces, one bidegree at a time.

The gradings pin down the shape counts: with order k and degree m, a graph
with v_i internal vertices has e = k + v_i edges and v_ext = 2k - v_i - m
external vertices.  Internal vertices need valence 3, external vertices
valence 1 (crossed external vertices may be bare), and the total slack
2e - 3 v_i - v_ext equals m, so for m < 0 there is nothing and for m = 0
the valences are exact.  Underlying simple graphs are generated by a
depth-first search over the sorted endpoint pairs, row by row, introducing
the anonymous internal vertices in label order.  The search keeps the
valence deficit (edge ends still missing below the minimum valences) and
excess (ends above them) as running counts, updated as each edge end is
added or removed.  A branch stops when the excess passes the slack, when
the remaining edges cannot cover the deficit, or when it has passed the row
of a vertex still below its minimum valence: no later pair reaches that
vertex.

The search also drops every labelled shape whose external rows (the pairs
(a, b) with a <= v_ext) cannot lead the greatest adjacency bitstring of
its class, read as in ``graphs`` with the small loops on the diagonal.
Write the external neighbours of an internal vertex as a mask, bit
v_ext - x standing for external x.  A shape survives only if

(a) its internal vertices have non-increasing masks, which the search
    enforces as each pair is added: a new bit is the lowest set so far, so
    two masks it puts in the wrong order stay so; and
(b) no rotation r = 1..v_ext-1 of the externals, with the internal
    vertices re-sorted by their rotated masks, gives the external rows
    strictly more bits (ties survive).  This is checked once per branch,
    at the first pair past row v_ext, or at a leaf that has none.

Test (b) starts from the leading row.  Row 1 is the top n bits of the
external rows (n = v_ext + v_int).  Under the rotation taking external x
to label 1 it holds the loop bit of x, its rotated external neighbours,
and then a run of ones, one per internal neighbour of x, since those sort
first (``graphs._lead_row``).  A rotation whose leading row is greater than
external 1's gives more bits, whatever follows, and fails (b); one whose
leading row is smaller cannot win.  Row x is complete once the search has
passed it, so a branch stops at the first pair past a row x whose leading
row beats external 1's, and the whole external rows are compared only for
the rotations that tie on it.

(a) and (b) use the ordering of ``graphs._canonical``, (b) through the
same ``graphs._external_rows``.  No class is lost.  In each class take the
relabelling with the greatest bitstring; the bitstring fixes the labelled
shape.  Its internal vertices first appear in label order (else exchanging
the first one out of order with the least unused label gives a greater
bitstring), so the search reaches its shape.  Its masks do not increase and
no rotation beats its external rows, since either would give a relabelling
with a greater bitstring, the external rows leading it.  So it survives.
The crosses of the framed spaces play no part: a rotation moves them with
the shape, and each set of crossed positions is searched.  The prune is the
same for both parities.  In the even parity the surviving shape of a class
is its canonical one; the odd canonical form leaves the small loops out of
its bitstring and breaks ties with them afterwards, so there the survivor
may be another member of the class, which is all the search needs.  Ties in
(b) and the internal rows can leave several shapes per class, so each
surviving shape is decorated in a fixed way, canonicalized, and deduped.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import (ODD, EVEN, WITH_CIRCLE, WITH_ORDER, DecoratedGraph,
                     _connected, _external_rows, _lead_row, _pair_bits,
                     canonical_form, edge_pair)


def _rotations_lose(v_ext: int, mask: list, nbrs: list, pairs) -> bool:
    """Test (b) on the external rows ``pairs``, where ``mask[u]`` is the
    non-increasing mask of internal vertex u and ``nbrs[x]`` the neighbours
    of external x: True when no rotation gives them more bits than they
    have."""
    n = len(mask) - 1
    lead = _lead_row(v_ext, n, 1, nbrs[1])
    tied = []
    for x in range(2, v_ext + 1):
        row = _lead_row(v_ext, n, x, nbrs[x])
        if row > lead:
            return False
        if row == lead:
            # the rotation taking x to label 1
            tied.append(v_ext + 1 - x)
    if not tied:
        return True
    ext_mask = {u: mask[u] for u in range(v_ext + 1, n + 1)}
    bits = _pair_bits(n)
    label = [0] * (n + 1)
    # the masks do not increase, so rotation 0 keeps every label
    own = sum([bits[a][b] for a, b in pairs])
    return all(_external_rows(r, v_ext, ext_mask, pairs, bits, label)[0]
               <= own for r in tied)


def _underlying_shapes(v_ext: int, v_int: int, e: int, min_val: tuple):
    """The connected simple shapes that pass (a) and (b): sorted tuples of
    distinct endpoint pairs (a, b), a <= b, loops only on external
    vertices, meeting the per-vertex minimum valences exactly up to the
    global slack."""
    nv = v_ext + v_int
    slack = 2 * e - sum(min_val)
    if slack < 0:
        return []
    # the shared pairs of ``graphs``, which every shape and graph reuses
    pool = []
    for a in range(1, nv + 1):
        if a <= v_ext:
            pool.append(edge_pair(a, a))
        for b in range(a + 1, nv + 1):
            pool.append(edge_pair(a, b))
    out = []
    val = [0] * (nv + 1)
    mask = [0] * (nv + 1)                # external masks, for (a) and (b)
    nbrs = [[] for _ in range(nv + 1)]   # neighbours of the externals
    need_val = (0,) + tuple(min_val)
    # running sums of max(0, min_val - val) and max(0, val - min_val) over
    # the vertices, updated one edge end at a time
    deficit = sum(min_val)
    excess = 0

    def grow(idx, chosen, max_int_used):
        nonlocal deficit, excess
        need = e - len(chosen)
        # the external rows are still open until a pair past row v_ext
        ext_open = not chosen or chosen[-1][0] <= v_ext
        if need == 0:
            if deficit == 0 and (not ext_open or _rotations_lose(
                    v_ext, mask, nbrs, chosen)) \
                    and _connected(v_ext, nv, chosen):
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
                # the rows before a are complete: an external among them
                # whose leading row beats external 1's fails (b)
                done = range(max(row, 2), min(a, v_ext + 1))
                if done:
                    lead = _lead_row(v_ext, nv, 1, nbrs[1])
                    if any(_lead_row(v_ext, nv, x, nbrs[x]) > lead
                           for x in done):
                        break
                # every later pair keeps the external rows as chosen
                if ext_open and a > v_ext:
                    if not _rotations_lose(v_ext, mask, nbrs, chosen):
                        break
                    ext_open = False
                row = a
            hi_int = b if b > v_ext else 0
            # introduce anonymous internal slots in label order
            if hi_int and hi_int > max_int_used + 1:
                continue
            bit = 1 << (v_ext - a) if a <= v_ext < b else 0
            # (a): the masks may not increase
            if bit and b > v_ext + 1 and mask[b - 1] < mask[b] | bit:
                continue
            mask[b] |= bit
            for v in (a, b):
                if val[v] < need_val[v]:
                    deficit -= 1
                else:
                    excess += 1
                val[v] += 1
            if excess <= slack:
                chosen.append(pool[j])
                if a <= v_ext:
                    nbrs[a].append(b)
                    if a < b <= v_ext:
                        nbrs[b].append(a)
                grow(j + 1, chosen, max(max_int_used, hi_int))
                if a <= v_ext:
                    nbrs[a].pop()
                    if a < b <= v_ext:
                        nbrs[b].pop()
                chosen.pop()
            for v in (b, a):
                val[v] -= 1
                if val[v] < need_val[v]:
                    deficit += 1
                else:
                    excess -= 1
            mask[b] ^= bit

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
        edges = tuple([p for p in shape if p[0] != p[1]])
        loops = tuple((a, WITH_CIRCLE, WITH_ORDER)
                      for a, b in shape if a == b)
        return DecoratedGraph(ODD, v_ext, v_int, edges, loops,
                              tuple(crossed))
    return DecoratedGraph(EVEN, v_ext, v_int, tuple(shape))


def _classes(parity: str, k: int, m: int, max_crosses: int):
    """The canonical forms of the decorated shapes of order k and degree m
    with up to ``max_crosses`` crosses, deduped and sorted; zero classes
    are dropped.  With x crosses the uncrossed graph has order k - x and
    degree m - x."""
    found = set()
    for x in range(0, max_crosses + 1):
        k0, m0 = k - x, m - x
        # e - v_int = k0 may legitimately be zero once crosses carry the
        # order; degree fixes v_ext = 2 e - 3 v_int - m0 = 2 k0 - v_int - m0,
        # which is at least 1 exactly while v_int < 2 k0 - m0.
        for v_int in range(2 * k0 - m0):
            v_ext = 2 * k0 - v_int - m0
            e = k0 + v_int
            for crossed in itertools.combinations(range(1, v_ext + 1), x):
                min_val = tuple([0 if v in crossed else 1
                                 for v in range(1, v_ext + 1)] + [3] * v_int)
                for shape in _shapes_cached(v_ext, v_int, e, min_val):
                    res = canonical_form(_decorate(parity, v_ext, v_int,
                                                   shape, crossed))
                    if res is not None:
                        found.add(res[0])
    return sorted(found)


def basis(parity: str, k: int, m: int):
    """Canonical basis of the order-k degree-m space, sorted and deduped.

    Every returned graph is its own canonical form with sign +1; zero
    classes are dropped.
    """
    return _classes(parity, k, m, 0) if m >= 0 else []


def framed_basis(k: int, m: int):
    """Canonical basis of the framed (crossed) odd space at framed order k
    and framed degree m.  A crossed external vertex may be bare; at most
    one cross sits on a vertex."""
    return _classes(ODD, k, m, k)
