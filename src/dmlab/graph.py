"""Simple undirected graphs: construction, graph6 I/O, predicates, canonical certificates.

Vertices are always the dense range 0..n-1.  Graphs are immutable after
construction; every higher layer reads the sorted neighbor tuples.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Iterable, List, Tuple

from .errors import Graph6Error, OrderTooLargeError

# canonical_certificate skips only subtrees a twin swap or an automorphism found
# at two leaves with equal keys maps onto visited ones, so it is exact at every
# order.  This cap rejects larger graphs but does not bound the cost: small when
# refinement splits the graph into orbits, but not bounded by a polynomial where
# cells that are not orbits survive it
CERTIFICATE_MAX_ORDER = 20

# graph6 short form covers 0 <= n <= 62 and the long form 63 <= n <= 258047;
# we additionally require n >= 1
GRAPH6_SHORT_MAX_ORDER = 62
GRAPH6_MAX_ORDER = 258047


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "neighbors")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        if type(n) is not int or n < 1:  # True would be the order; 2.0 fails in range()
            raise ValueError(f"graph order must be >= 1 and an exact int, got {n!r}")
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            # a bool would end up in the neighbour tuples; a float fails as an index
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r},{v!r}) has an endpoint that is not an int")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "neighbors", tuple(tuple(sorted(a)) for a in nbrs))

    @classmethod
    def _from_neighbors(cls, neighbors: tuple) -> "Graph":
        """Graph on neighbour tuples that are already sorted, symmetric, loop-free
        and in range, taken as they are: for builders whose rules guarantee it."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(neighbors))
        object.__setattr__(g, "neighbors", neighbors)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edges(self) -> frozenset:
        """The edges as (u, v) pairs with u < v, derived from the neighbor tuples."""
        return frozenset((u, v) for u, nb in enumerate(self.neighbors) for v in nb if u < v)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        # a bare index would wrap a negative vertex round to the last one
        return 0 <= u < self.n and v in self.neighbors[u]

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """New graph with vertex v renamed to perm[v]; perm holds exact ints."""
        p = _permutation(perm, self.n, "perm")
        return Graph(self.n, ((p[u], p[v]) for u, v in self.edges))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.neighbors == other.neighbors

    def __hash__(self):
        return hash(self.neighbors)

    def __repr__(self):
        return f"Graph(n={self.n}, m={sum(map(len, self.neighbors)) // 2})"


def _permutation(perm: Iterable[int], n: int, name: str) -> List[int]:
    """perm as a list; ValueError unless it is a permutation of 0..n-1 in exact ints."""
    p = list(perm)
    # a bool or a float equal to a vertex would pass the sort test
    if any(type(x) is not int for x in p) or sorted(p) != list(range(n)):
        raise ValueError(f"{name} is not a permutation of 0..n-1")
    return p


def is_regular(g: Graph, r: int) -> bool:
    return all(g.degree(v) == r for v in range(g.n))


def is_connected(g: Graph) -> bool:
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in g.neighbors[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


# ---------------------------------------------------------------------------
# graph6 (header: byte 63+n for n <= 62, else '~' and n in three 6-bit groups
# offset by 63; body: upper triangle column-major, 6-bit groups offset by 63,
# zero padding)
# ---------------------------------------------------------------------------

def _g6_body_length(n: int) -> int:
    return (n * (n - 1) // 2 + 5) // 6


def parse_graph6(line: str) -> Graph:
    """Decode one header-less graph6 line (short form, or long form for order 63..258047)."""
    text = line.rstrip("\n")
    if not text:
        raise Graph6Error("empty graph6 line")
    first = ord(text[0])
    if first == 126:
        n = _parse_long_order(text)
        body = text[4:]
    elif 63 <= first <= 125:
        n = first - 63
        body = text[1:]
    else:
        raise Graph6Error(f"invalid graph6 order byte {text[0]!r}")
    if n < 1:
        raise Graph6Error("graphs of order 0 are not supported")
    if len(body) != _g6_body_length(n):
        raise Graph6Error(
            f"graph6 body has {len(body)} characters, expected {_g6_body_length(n)} for order {n}"
        )
    nbits = n * (n - 1) // 2
    edges = []
    for k, ch in enumerate(body):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"graph6 character {ch!r} out of range")
        while val:  # set bits, most significant first
            shift = val.bit_length() - 1
            val ^= 1 << shift
            idx = 6 * k + 5 - shift  # column-major: bit j(j-1)/2 + i is edge (i, j)
            if idx >= nbits:  # only the last character has padding
                raise Graph6Error("nonzero padding bits in graph6 line")
            j = (1 + math.isqrt(1 + 8 * idx)) // 2
            edges.append((idx - j * (j - 1) // 2, j))
    return Graph(n, edges)


def _parse_long_order(text: str) -> int:
    """Order from a long-form header: '~' and three 6-bit groups, 63 <= n <= 258047."""
    if text[1:2] == "~":
        raise Graph6Error(f"graph6 orders above {GRAPH6_MAX_ORDER} are not supported")
    if len(text) < 4:
        raise Graph6Error("truncated long-form graph6 header")
    n = 0
    for ch in text[1:4]:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"graph6 character {ch!r} out of range")
        n = (n << 6) | val
    if n <= GRAPH6_SHORT_MAX_ORDER:
        raise Graph6Error(f"long-form graph6 header for order {n}; orders <= 62 use the short form")
    return n


def require_graph6_order(n: int) -> None:
    """Graph6Error when graph6 cannot encode order n."""
    if n > GRAPH6_MAX_ORDER:
        raise Graph6Error(f"order {n} exceeds the graph6 limit of {GRAPH6_MAX_ORDER}")


def write_graph6(g: Graph) -> str:
    """Encode as a canonical graph6 line: short form up to order 62, long form above."""
    require_graph6_order(g.n)
    adj = [set(a) for a in g.neighbors]
    return _pack_graph6(g.n, (i in adj[j] for j in range(1, g.n) for i in range(j)))


def _pack_graph6(n: int, bits) -> str:
    """graph6 line of order n from an iterable of its upper-triangle bits,
    column-major, consumed 6 bits at a time."""
    if n <= GRAPH6_SHORT_MAX_ORDER:
        out = bytearray([63 + n])
    else:
        out = bytearray(b"~") + bytes(63 + ((n >> shift) & 63) for shift in (12, 6, 0))
    it = iter(bits)
    for a, b, c, d, e, f in itertools.zip_longest(*[it] * 6, fillvalue=0):  # zero padding
        out.append(63 + (a << 5 | b << 4 | c << 3 | d << 2 | e << 1 | f))
    return out.decode("ascii")


# ---------------------------------------------------------------------------
# Canonical certificate via individualization-refinement: the graph6 line, as
# bytes, of the least relabeled copy the search finds.  Its two prunings skip
# only keys already seen, so equal certificates <=> isomorphic graphs.
# Refinement counts neighbours only in the cells that just split (McKay &
# Piperno, Practical graph isomorphism II, 2014); leaf keys are compared as
# ints, and only the least one is packed into graph6.
# ---------------------------------------------------------------------------

def _refine(neighbors, partition, fresh=None):
    """Equitable refinement of an ordered partition (deterministic).

    The vertices of a cell agree on their neighbour counts in every cell but
    those in fresh (indices; every cell when None).  Each round packs a
    vertex's counts in the fresh cells into one int, a digit of n.bit_length()
    bits per cell with earlier cells more significant, and splits each cell by
    it, sub-cells in ascending order: the order of the full count vectors,
    since a larger count in an earlier cell sorts higher in both.  A count is
    below n, so no digit carries.  The sub-cells are the next round's fresh
    cells."""
    if fresh is None:
        fresh = range(len(partition))
    width = len(neighbors).bit_length()
    while True:
        sig = [0] * len(neighbors)
        place = width * len(fresh)
        for k in fresh:
            place -= width
            digit = 1 << place
            for v in partition[k]:
                for w in neighbors[v]:
                    sig[w] += digit
        new, fresh = [], []
        for cell in partition:
            if len(cell) > 1:
                by_sig = {}
                for v in cell:
                    by_sig.setdefault(sig[v], []).append(v)
                if len(by_sig) > 1:
                    for s in sorted(by_sig):
                        fresh.append(len(new))
                        new.append(by_sig[s])
                    continue
            new.append(cell)
        if not fresh:
            return partition
        partition = new


def _adjacency_key(neighbors, order):
    """Column-major upper-triangle bits of the graph relabeled so order[i] -> i,
    as an int, first bit most significant.  Keys of one order have one bit
    count, so comparing them compares their graph6 lines."""
    position = [0] * len(order)
    for i, v in enumerate(order):
        position[v] = i
    key = 0
    for j, v in enumerate(order):
        column = 0
        for w in neighbors[v]:
            i = position[w]
            if i < j:
                column |= 1 << (j - 1 - i)
        key = key << j | column
    return key


def canonical_certificate(g: Graph) -> bytes:
    """Isomorphism-invariant certificate, exact at every order: the least key of
    the search started from one cell, which the first refinement splits by
    degree.  Equal certificates <=> isomorphic graphs."""
    return _least_key(g, [list(range(g.n))])


def _least_key(g: Graph, start) -> bytes:
    """graph6 line, as bytes, of the least adjacency key over the search tree
    that starts from the ordered partition start.

    A node skips a child that is a twin of a child already tried, since
    swapping the two maps one subtree onto the other (K_n costs one leaf).  A
    leaf whose key equals the least one gives an automorphism that maps the
    least leaf's branch onto the current one where their paths part, so the
    search goes back up to that node and on with its next child.  Pruning
    holds for any start, since every automorphism a prune relies on maps each
    cell of start onto itself: a twin swap stays inside one cell, and a map
    between two leaf orders, both of which refine start, keeps each position.
    Equal keys mean isomorphic graphs; a start built by an isomorphism
    invariant gives isomorphic graphs equal keys.  A vertex alone in the first
    cell of start stays first in every ordering, so keys from [[a], rest] of g
    and [[b], rest] of h are equal iff some isomorphism g -> h maps a to b."""
    if g.n > CERTIFICATE_MAX_ORDER:
        raise OrderTooLargeError(
            f"canonical certificate is limited to order {CERTIFICATE_MAX_ORDER}, got {g.n}; "
            "refinement, twin swaps and the backjumps of its search do not keep the tree small "
            "at every order"
        )
    neighbors = g.neighbors
    best = best_path = None  # the least key, and the path to its leaf
    path = []  # the vertices individualised on the way to the current node

    def descend(partition, fresh):
        """Walk the subtree of the node that path leads to; return the length of
        the path whose node goes on with its next child."""
        nonlocal best, best_path
        partition = _refine(neighbors, partition, fresh)
        for target, cell in enumerate(partition):
            if len(cell) > 1:
                break
        else:
            key = _adjacency_key(neighbors, [c[0] for c in partition])
            if best is None or key < best:
                best, best_path = key, path[:]
            elif key == best:
                # both orders give the same relabeled graph, so mapping one onto
                # the other is an automorphism.  Each path vertex sits at its
                # target cell's place in the order, so it fixes the vertices the
                # two paths share and maps the best path's child at the node where
                # they part onto this one's: this child's subtree repeats the
                # keys of one already walked
                return next(i for i, (u, w) in enumerate(zip(best_path, path)) if u != w)
            return len(path)
        depth = len(path)
        tried_open, tried_closed = set(), set()
        for v in cell:
            # twins u, v have N(u) - {v} = N(v) - {u}: swapping them is an
            # automorphism fixing every cell, so v's subtree repeats u's keys
            closed = tuple(sorted((*neighbors[v], v)))
            if neighbors[v] in tried_open or closed in tried_closed:
                continue
            tried_open.add(neighbors[v])
            tried_closed.add(closed)
            rest = [w for w in cell if w != v]
            path.append(v)
            # the parent is equitable, so only the two new cells can split others
            child = partition[:target] + [[v], rest] + partition[target + 1:]
            resume = descend(child, (target, target + 1))
            path.pop()
            if resume < depth:
                return resume
        return depth

    descend(start, None)
    # short form, since n <= CERTIFICATE_MAX_ORDER: the bits padded with zeros
    # to whole 6-bit groups, most significant group first
    groups = _g6_body_length(g.n)
    best <<= 6 * groups - g.n * (g.n - 1) // 2
    return bytes([63 + g.n, *(63 + (best >> 6 * k & 63) for k in reversed(range(groups)))])
