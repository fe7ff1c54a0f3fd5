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
        if n < 1:
            raise ValueError(f"graph order must be >= 1, got {n}")
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
# Canonical certificate via individualization-refinement.  The certificate of
# a graph is the graph6 line of its canonically relabeled copy, as bytes, so
# equal certificates <=> isomorphic graphs.  The search skips a twin's subtree,
# and on reaching a leaf whose key equals the least one it leaves the subtree
# it is in; both skip only keys already seen, so this holds at every order.
# ---------------------------------------------------------------------------

def _refine(neighbors, partition):
    """Equitable refinement of an ordered partition (deterministic)."""
    while True:
        cell_id = {}
        for ci, cell in enumerate(partition):
            for v in cell:
                cell_id[v] = ci
        new = []
        changed = False
        for cell in partition:
            if len(cell) == 1:
                new.append(cell)
                continue
            by_sig = {}
            for v in cell:
                counts = [0] * len(partition)
                for w in neighbors[v]:
                    counts[cell_id[w]] += 1
                by_sig.setdefault(tuple(counts), []).append(v)
            if len(by_sig) == 1:
                new.append(cell)
            else:
                changed = True
                for sig in sorted(by_sig):
                    new.append(by_sig[sig])
        partition = new
        if not changed:
            return partition


def _adjacency_key(adj_sets, order):
    """Upper-triangle bit list, column-major, of the graph relabeled so order[i] -> i."""
    bits = []
    for j in range(1, len(order)):
        oj = order[j]
        for i in range(j):
            bits.append(1 if order[i] in adj_sets[oj] else 0)
    return bits


def canonical_certificate(g: Graph, root: int | None = None) -> bytes:
    """Isomorphism-invariant certificate, exact at every order.

    It is the graph6 line of the least adjacency key over the search tree.  A
    node skips a child that is a twin of a child already tried, since swapping
    the two maps one subtree onto the other (K_n costs one leaf).  A leaf whose
    key equals the least one gives an automorphism that maps the least leaf's
    branch onto the current one where their paths part, so the search goes
    back up to that node and on with its next child.  With a root the
    search starts from [[root], rest], which keeps the root first in every
    ordering: certificates of (g, a) and (h, b) are equal iff some isomorphism
    g -> h maps a to b.
    """
    if root is None:
        return _least_key(g, [list(range(g.n))])  # the first refinement splits it by degree
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for order {g.n}")
    rest = [v for v in range(g.n) if v != root]
    return _least_key(g, [[root], rest] if rest else [[root]])


def _least_key(g: Graph, start) -> bytes:
    """graph6 line of the least adjacency key over the search tree that starts
    from the ordered partition start.  Pruning holds for any start, since every
    automorphism a prune relies on maps each cell of start onto itself: a twin
    swap stays inside one cell, and a map between two leaf orders, both of
    which refine start, keeps each position.  Equal keys mean isomorphic
    graphs; a start built by an isomorphism invariant gives isomorphic graphs
    equal keys."""
    if g.n > CERTIFICATE_MAX_ORDER:
        raise OrderTooLargeError(
            f"canonical certificate is limited to order {CERTIFICATE_MAX_ORDER}, got {g.n}; "
            "refinement, twin swaps and the backjumps of its search do not keep the tree small "
            "at every order"
        )
    neighbors = g.neighbors
    adj_sets = [set(a) for a in neighbors]
    closed = [tuple(sorted((*a, v))) for v, a in enumerate(neighbors)]

    best = best_path = None  # the least key, and the path to its leaf
    path = []  # the vertices individualised on the way to the current node

    def descend(partition):
        """Walk the subtree of the node that path leads to; return the length of
        the path whose node goes on with its next child."""
        nonlocal best, best_path
        partition = _refine(neighbors, partition)
        target = next((i for i, c in enumerate(partition) if len(c) > 1), None)
        if target is None:
            key = _adjacency_key(adj_sets, [c[0] for c in partition])
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
        cell = partition[target]
        depth = len(path)
        tried_open, tried_closed = set(), set()
        for v in cell:
            # twins u, v have N(u) - {v} = N(v) - {u}: swapping them is an
            # automorphism fixing every cell, so v's subtree repeats u's keys
            if neighbors[v] in tried_open or closed[v] in tried_closed:
                continue
            tried_open.add(neighbors[v])
            tried_closed.add(closed[v])
            rest = [w for w in cell if w != v]
            path.append(v)
            resume = descend(partition[:target] + [[v], rest] + partition[target + 1:])
            path.pop()
            if resume < depth:
                return resume
        return depth

    descend(start)
    return _pack_graph6(g.n, best).encode("ascii")
