"""Decorated graphs on an oriented circle, and their signed canonical forms.

A graph lives on a distinguished oriented circle.  External vertices sit on
the circle and are labelled 1..v_ext in cyclic order; internal vertices sit
off the circle and must be at least trivalent.  Edges never belong to the
circle.  The decoration depends on the parity:

* odd parity: internal vertices carry labels v_ext+1..v_ext+v_int, every
  edge carries an orientation (arrow), and every external small loop carries
  an ordering of its two half-edges (recorded relative to the circle
  orientation) plus the arrow position relative to that ordering;
* even parity: internal vertices are anonymous, edges carry labels 1..e
  (their position in the ``edges`` tuple) and are unoriented.

Two graphs that differ only by decoration are identified up to a sign:
internal relabellings (odd, signed by the permutation parity), cyclic
relabellings of the external vertices (signed), arrow reversals (odd, one
sign each), half-edge order swaps on small loops (odd, one sign each), edge
relabellings (even, signed), anonymous internal renamings (even, unsigned),
and cross renumberings (framed graphs, signed).

Four relations make a graph zero, and only ``is_zero_by_relations`` names
them: a multiple edge (two edges, or in odd parity two ``loops`` entries,
on one unordered endpoint pair); an internal small loop (an edge ``(a, a)``
when even, a ``loops`` entry when odd); and, in the framed complex, which
is odd, a small loop on a crossed vertex or two crosses on one vertex.
``validate`` reports malformations only; ``canonical_form`` refuses a
malformed graph even when it is also zero.

``canonical_form`` picks the lexicographically least representative of the
decoration orbit and accumulates the sign; it returns ``None`` when the
orbit identifies the graph with minus itself.  The representative is
compared as a row: the sorted (unordered) endpoint pairs of the edges, then
for odd parity the sorted loop vertices and the sorted cross vertices.

The least row is found without scanning the v_ext * v_int! relabellings.
Read the upper triangle of the adjacency matrix row by row as a bitstring
(the diagonal included, for the even parity's external loops).  Both the
sorted pair list and the bitstring list the same pairs in the same order,
so the pair list is least exactly when the bitstring is greatest.  Every
internal label is larger than every external one, so for a fixed rotation
of the externals the external rows come first, and they are greatest
exactly when the internal vertices are ordered by their adjacency to the
externals 1..v_ext: at the first external where two differ, the adjacent
one comes first.  That gives an ordered partition of the internal vertices;
the internal rows then pick the order inside it by individualization and
refinement in the manner of McKay & Piperno ("Practical graph isomorphism
II", 2014), branching only on ties and keeping every tie.  Row 1 leads
the external rows, so a rotation whose row 1 is not the greatest has
fewer external-row bits and is dropped before any of this.  The surviving
orderings of all rotations are exactly the relabellings whose row is least,
so the representative and the sign check equal those of a scan over the
whole orbit, which ``tests/test_graphs.py`` keeps as the reference.

A graph is a named tuple of its fields, so its identity is that tuple:
hashing, equality and the order that sorts bases, vector terms and matrix
rows all compare ``(parity, v_ext, v_int, edges, loops, crosses)``.

Edge pairs are shared.  At order 5 and above the bases and the
``canonical_form`` memo hold hundreds of thousands of graphs at once, and
with a tuple per edge those tuples are most of that memory, though a
graph of order k has at most 2k labels and so meets at most (2k + 1)^2
distinct pairs.  So one table, built at import, holds one ``(a, b)``
tuple per ordered pair of labels 0..31 (every graph of order up to 15),
and every place that builds a graph's edges from labels takes its pairs
from ``edge_pair``: the canonical forms, the contractions, the
short-chord substitution, the enumerator's shapes, the explicit
cocycles and the JSON reader.  A label outside the table gets a new
tuple; only a graph read from JSON or built by hand can carry one, and
nothing an input does grows the table.  Sharing only saves memory:
tuples compare, hash and sort by value, so identity never enters
equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

ODD = "odd"
EVEN = "even"

# Small-loop decoration flags (odd parity only).  Flag value 0 is the
# canonical state; each flip of a flag costs one sign.
WITH_CIRCLE = 0      # half-edge order agrees with the circle orientation
AGAINST_CIRCLE = 1
WITH_ORDER = 0       # arrow goes from the first half-edge to the second
AGAINST_ORDER = 1


class DecoratedGraph(NamedTuple):
    """One decorated graph of odd or even type, identified, hashed and
    ordered as the tuple of its fields.

    ``edges``:
      odd  -- tuple of oriented pairs ``(tail, head)`` between *distinct*
              vertices; small loops are kept in ``loops`` instead;
      even -- tuple of unordered pairs ``(u, v)`` with ``u <= v`` in edge
              label order (position i holds the edge labelled i+1); small
              loops appear here as ``(a, a)``.

    ``loops``: odd parity only; tuple of ``(vertex, order_flag, arrow_flag)``
    for each small loop (one on an internal vertex makes the graph zero).

    ``crosses``: framed decoration (odd parity only); tuple of vertex labels
    in cross label order (position a-1 holds the vertex of the cross
    labelled a).
    """

    parity: str
    v_ext: int
    v_int: int
    edges: tuple = ()
    loops: tuple = ()
    crosses: tuple = ()

    # -- basic counts ---------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges) + len(self.loops)

    @property
    def num_crosses(self) -> int:
        return len(self.crosses)

    @property
    def num_vertices(self) -> int:
        return self.v_ext + self.v_int

    def is_external(self, label: int) -> bool:
        return 1 <= label <= self.v_ext

    # -- derived structure ----------------------------------------------

    def chords(self):
        """Indices into ``edges`` of chords (both endpoints external)."""
        return [i for i, (a, b) in enumerate(self.edges)
                if self.is_external(a) and self.is_external(b) and a != b]

    def is_short_chord(self, a: int, b: int) -> bool:
        """True if external vertices a, b are cyclically consecutive."""
        if self.v_ext < 2:
            return False
        lo, hi = min(a, b), max(a, b)
        return hi - lo == 1 or (lo == 1 and hi == self.v_ext)

    def short_chords(self):
        return [i for i in self.chords()
                if self.is_short_chord(*self.edges[i])]

    def chord_crossings(self) -> int:
        """Number of interleaving chord pairs, read around the circle."""
        ch = [tuple(sorted(self.edges[i])) for i in self.chords()]
        count = 0
        for i, (a, b) in enumerate(ch):
            for c, d in ch[i + 1:]:
                if a < c < b < d or c < a < d < b:
                    count += 1
        return count


def degree(g: DecoratedGraph) -> int:
    """2e - 3 v_int - v_ext (+ number of crosses in the framed case)."""
    return 2 * g.num_edges - 3 * g.v_int - g.v_ext + g.num_crosses


# ----------------------------------------------------------------------
# validation


def validate(g: DecoratedGraph) -> list:
    """Return a list of malformations; empty means the graph is usable.

    A well-formed graph may still be zero by the relations, which only
    ``is_zero_by_relations`` names.
    """
    bad = []
    if g.parity not in (ODD, EVEN):
        bad.append("unknown parity %r" % (g.parity,))
        return bad
    v_ext = g.v_ext
    if v_ext < 1:
        bad.append("need at least one external vertex")
    if g.v_int < 0:
        bad.append("negative internal vertex count")
    n = v_ext + g.v_int
    val = [0] * (max(n, 0) + 1)          # edge ends per vertex label
    joined = []                          # the edges between valid labels
    for a, b in g.edges:
        if not (1 <= a <= n and 1 <= b <= n):
            bad.append("edge (%d,%d) endpoint out of range" % (a, b))
        else:
            if a == b and g.parity == ODD:
                bad.append("odd-parity loop (%d,%d) belongs in loops"
                           % (a, b))
            val[a] += 1
            val[b] += 1
            joined.append((a, b))
    if g.parity == EVEN and (g.loops or g.crosses):
        bad.append("even parity carries no loop decorations or crosses")
    for v, of, af in g.loops:
        if not 1 <= v <= n:
            bad.append("small loop vertex %d out of range" % v)
        else:
            val[v] += 2
        if of not in (0, 1) or af not in (0, 1):
            bad.append("bad small-loop decoration at %d" % v)
    crosses = g.crosses
    for v in crosses:
        if not 1 <= v <= v_ext:
            bad.append("cross on non-external vertex %d" % v)
    for v in range(v_ext + 1, n + 1):
        if val[v] < 3:
            bad.append("internal vertex %d has valence %d < 3" % (v, val[v]))
    for v in range(1, min(v_ext, n) + 1):
        if val[v] == 0 and v not in crosses:
            bad.append("external vertex %d carries no edge end" % v)
    if not _connected(v_ext, n, joined):
        bad.append("graph is disconnected from the circle")
    return bad


def _connected(v_ext: int, n: int, pairs) -> bool:
    """True if the edges ``pairs`` join all n vertices into one component,
    the circle tying the externals 1..v_ext together."""
    if n <= 1:
        return True
    nbrs = [[] for _ in range(n + 1)]
    for a, b in pairs:
        nbrs[a].append(b)
        nbrs[b].append(a)
    todo = list(range(1, min(v_ext, n) + 1)) or [1]
    seen = [False] * (n + 1)
    for v in todo:
        seen[v] = True
    reached = len(todo)
    while todo:
        for w in nbrs[todo.pop()]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                todo.append(w)
    return reached == n


def is_zero_by_relations(g: DecoratedGraph) -> bool:
    """True if the graph is zero by one of the relations, without looking
    at the decoration orbit: a multiple edge, an internal small loop, a
    small loop on a crossed vertex, or two crosses on one vertex (the
    square of an odd form)."""
    seen = set()
    for a, b in g.edges:
        if a == b and not g.is_external(a):
            return True
        pair = (a, b) if a <= b else (b, a)
        if pair in seen:
            return True
        seen.add(pair)
    for v, _, _ in g.loops:
        if v > g.v_ext or v in g.crosses or (v, v) in seen:
            return True
        seen.add((v, v))
    return len(set(g.crosses)) != len(g.crosses)


# ----------------------------------------------------------------------
# canonical forms


def perm_sign(seq) -> int:
    """Sign of the permutation that sorts ``seq`` (distinct entries): -1
    when the number of inversions is odd."""
    inv = 0
    for i, x in enumerate(seq):
        for y in seq[i + 1:]:
            if x > y:
                inv += 1
    return -1 if inv & 1 else 1


# labels 0.._PAIR_LABELS - 1: the shared edge pairs (see the module docstring)
_PAIR_LABELS = 32
_PAIRS = [[(a, b) for b in range(_PAIR_LABELS)] for a in range(_PAIR_LABELS)]


def edge_pair(a: int, b: int) -> tuple:
    """The shared tuple ``(a, b)`` of the pair table, or a new one when a
    label lies outside it."""
    if 0 <= a < _PAIR_LABELS and 0 <= b < _PAIR_LABELS:
        return _PAIRS[a][b]
    return a, b


def _best_orders(cells, adj):
    """Every ordering of the internal vertices that keeps the ordered cells
    and makes the internal rows of the adjacency bitstring greatest.

    ``cells`` is an ordered partition (lists of vertices) and ``adj[v]`` the
    set of internal neighbours of v.  The vertex given the next label comes
    from the first cell; its row is greatest when every later cell puts its
    neighbours first, so the row is fixed by the choice and is recorded as
    the neighbour count per cell.  Only the choices with the greatest row
    survive.  Surviving states have equal rows so far, hence equal cell
    sizes, so their rows compare entry by entry.
    """
    states = [((), cells)]
    while states[0][1]:
        if len(states) == 1 and all(len(cell) == 1 for cell in states[0][1]):
            placed, cells = states[0]
            return [placed + tuple(cell[0] for cell in cells)]
        best = None
        survivors = []
        for placed, cells in states:
            first, later = cells[0], cells[1:]
            for v in first:
                nb = adj[v]
                rest = [u for u in first if u != v]
                row = []
                split = []
                for cell in ([rest] + later if rest else later):
                    inside = [u for u in cell if u in nb]
                    row.append(len(inside))
                    if inside:
                        split.append(inside)
                    if len(inside) < len(cell):
                        split.append([u for u in cell if u not in nb])
                if best is None or row > best:
                    best = row
                    survivors = []
                if row == best:
                    survivors.append((placed + (v,), split))
        states = survivors
    return [placed for placed, _ in states]


@lru_cache(maxsize=None)
def _pair_bits(n: int):
    """``bits[a][b]``: the bit of the pair {a, b} in the upper-triangular
    adjacency bitstring of n vertices, read row by row with the diagonal,
    the first pair (1, 1) being the most significant."""
    bits = [[0] * (n + 1) for _ in range(n + 1)]
    pos = n * (n + 1) // 2
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            pos -= 1
            bits[a][b] = bits[b][a] = 1 << pos
    return bits


@lru_cache(maxsize=None)
def _rotations(v_ext: int):
    """``rotations[r]``: the new labels of externals 1..v_ext under the
    rotation by r steps along the circle."""
    return [[(x - 1 + r) % v_ext + 1 for x in range(1, v_ext + 1)]
            for r in range(v_ext)]


def _lead_row(v_ext: int, n: int, x: int, nbrs) -> int:
    """Row 1 of the adjacency bitstring, as an n-bit number, once the
    rotation has taken external x to label 1, ``nbrs`` being the neighbours
    of x: its loop bit, its rotated external neighbours, then one leading
    one per internal neighbour, since those sort first."""
    row = 0
    d = 0
    for y in nbrs:
        if y <= v_ext:
            row |= 1 << (n - 1 - (y - x) % v_ext)
        else:
            d += 1
    return row | ((1 << d) - 1) << (n - v_ext - d)


def _external_rows(r: int, v_ext: int, ext_mask: dict, ext_edges, bits,
                   label: list):
    """The external rows of the rotation by r steps: the bits they give
    ``ext_edges`` and the ordered cells of the internal vertices.

    ``ext_mask`` maps each internal vertex, in label order, to its external
    neighbours as a bitmask, bit v_ext - x standing for external x, so that
    a greater mask sorts first.  The externals are labelled by the rotation
    and the internals by their rotated masks, greatest first, equal masks
    kept in label order as one cell; the labels are written into ``label``.
    Any order keeping the cells gives the external rows the same bits.
    """
    label[1:v_ext + 1] = _rotations(v_ext)[r]
    full = (1 << v_ext) - 1
    # rotating the externals by r rotates every mask right by r
    key = {u: ((m >> r) | (m << (v_ext - r))) & full
           for u, m in ext_mask.items()}
    cells = []
    for j, u in enumerate(sorted(key, key=key.__getitem__, reverse=True),
                          v_ext + 1):
        if cells and key[cells[-1][0]] == key[u]:
            cells[-1].append(u)
        else:
            cells.append([u])
        label[u] = j
    return sum([bits[label[a]][label[b]] for a, b in ext_edges]), cells


def _canonical(g: DecoratedGraph):
    """Least representative and sign of a validated graph, or ``None``."""
    v_ext, v_int = g.v_ext, g.v_int
    n = v_ext + v_int
    bits = _pair_bits(n)
    internals = range(v_ext + 1, n + 1)
    ext_mask = dict.fromkeys(internals, 0)
    adj = {u: set() for u in internals}
    nbrs = [[] for _ in range(v_ext + 1)]     # neighbours of the externals
    ext_edges = []
    int_edges = []
    for a, b in g.edges:
        if a > v_ext and b > v_ext:
            adj[a].add(b)
            adj[b].add(a)
            int_edges.append((a, b))
        else:
            ext_edges.append((a, b))
            if a > v_ext:
                ext_mask[a] |= 1 << (v_ext - b)
                nbrs[b].append(a)
            elif b > v_ext:
                ext_mask[b] |= 1 << (v_ext - a)
                nbrs[a].append(b)
            else:
                nbrs[a].append(b)
                if a != b:
                    nbrs[b].append(a)
    # row 1 leads the external rows: a rotation whose leading row is not
    # the greatest has fewer external-row bits and cannot give the least row
    leads = [_lead_row(v_ext, n, x, nbrs[x]) for x in range(1, v_ext + 1)]
    top = max(leads)
    rotations = _rotations(v_ext)
    loop_vertices = [entry[0] for entry in g.loops]
    label = [0] * (n + 1)
    best_ext = best_bits = -1
    best_tail = None
    best = []
    for r in range(v_ext):
        # the rotation by r takes external -r + 1 (mod v_ext) to label 1
        if leads[-r % v_ext] < top:
            continue
        # the external rows lead the bitstring, so most rotations lose here
        ext_bits, cells = _external_rows(r, v_ext, ext_mask, ext_edges, bits,
                                         label)
        if ext_bits < best_ext:
            continue
        leaves = _best_orders(cells, adj) if cells else [()]
        for j, u in enumerate(leaves[0]):
            label[u] = v_ext + 1 + j
        total = ext_bits + sum([bits[label[a]][label[b]]
                                for a, b in int_edges])
        # the loops, then the crosses, break ties of the edges
        tail = (sorted([label[v] for v in loop_vertices]),
                sorted([label[v] for v in g.crosses]))
        if total > best_bits or total == best_bits and tail < best_tail:
            best_ext, best_bits, best_tail = ext_bits, total, tail
            best = []
        if total == best_bits and tail == best_tail:
            best.extend((r, leaf) for leaf in leaves)

    odd = g.parity == ODD
    sign = None
    for r, leaf in best:
        label[1:v_ext + 1] = rotations[r]
        for j, u in enumerate(leaf):
            label[u] = v_ext + 1 + j
        mapped = [(label[a], label[b]) for a, b in g.edges]
        pairs = [(a, b) if a < b else (b, a) for a, b in mapped]
        # a rotation by one step is a v_ext-cycle
        s = -1 if (v_ext - 1) * r & 1 else 1
        if odd:
            s *= perm_sign(leaf) * perm_sign([label[v] for v in g.crosses])
            flips = sum(of + af for _, of, af in g.loops) \
                + sum([a > b for a, b in mapped])
            if flips & 1:
                s = -s
        else:
            s *= perm_sign(pairs)
        if sign is None:
            sign = s
            edges = tuple([edge_pair(a, b) for a, b in sorted(pairs)])
        elif s != sign:
            return None
    loops, crosses = best_tail
    if odd:
        canon = DecoratedGraph(ODD, v_ext, v_int, edges,
                               tuple((v, 0, 0) for v in loops),
                               tuple(crosses))
    else:
        canon = DecoratedGraph(EVEN, v_ext, v_int, edges)
    return canon, sign


@lru_cache(maxsize=1 << 18)
def canonical_form(g: DecoratedGraph):
    """Canonical representative of the decoration orbit of ``g``.

    Returns ``(canonical, sign)`` with ``[g] = sign * [canonical]`` in the
    quotient space, or ``None`` when the graph is zero (by the relations of
    ``is_zero_by_relations``, or a decoration change identifying it with
    minus itself).

    The canonical graph is the relabelling with the least row (see the
    module docstring): its edge pairs are least exactly when its adjacency
    bitstring is greatest, which a refinement search finds for each
    rotation; ties between rotations go to the loops, then the crosses.
    The sign is the product of the rotation's, the internal permutation's,
    one per reversed arrow and per flipped loop flag, and the cross
    order's (odd), or the edge-label permutation's (even); it must agree
    over every relabelling with the least row, else the graph is zero.
    When ``g`` is its own canonical graph it is returned itself, so the
    cache keeps one object for the key and the value.
    """
    bad = validate(g)
    if bad:
        raise ValueError("invalid graph: %s" % "; ".join(bad))
    if is_zero_by_relations(g):
        return None
    res = _canonical(g)
    if res is not None and res[0] == g:
        return g, res[1]
    return res


# ----------------------------------------------------------------------
# linear combinations


class GraphVector(dict):
    """Formal linear combination of canonical graphs with exact rational
    coefficients: the ``{canonical graph: Fraction}`` map itself, plus the
    parity all its terms share.  The empty vector is neutral."""

    __slots__ = ("parity",)

    def __init__(self, parity=None, terms=None):
        """The vector with the given ``{canonical graph: coefficient}``
        terms.  The graphs are taken as canonical and the coefficients as
        nonzero, with no lookup or check; coefficients become
        ``Fraction``s."""
        if terms:
            super().__init__(zip(terms, map(Fraction, terms.values())))
        self.parity = parity

    def add_graph(self, graph: DecoratedGraph, coeff) -> None:
        coeff = Fraction(coeff)
        if coeff == 0:
            return
        res = canonical_form(graph)
        if res is None:
            return
        canon, sign = res
        if self.parity is None:
            self.parity = canon.parity
        elif self.parity != canon.parity:
            raise ValueError("parity mismatch in GraphVector")
        new = self.get(canon, 0) + coeff * sign
        if new == 0:
            self.pop(canon, None)
        else:
            self[canon] = new

    @property
    def terms(self):
        """Sorted list of ``(coefficient, canonical graph)`` pairs."""
        return [(self[g], g) for g in sorted(self)]

    def is_zero(self) -> bool:
        return not self

    def scaled(self, factor) -> "GraphVector":
        factor = Fraction(factor)
        out = GraphVector(self.parity)
        if factor != 0:
            out.update((g, c * factor) for g, c in self.items())
        return out

    def __repr__(self):
        if not self:
            return "GraphVector()"
        bits = ["%s * %s edges=%s" % (c, g.parity, g.edges)
                for c, g in self.terms[:4]]
        more = "" if len(self) <= 4 else " ..."
        return "GraphVector(%s%s)" % ("; ".join(bits), more)
