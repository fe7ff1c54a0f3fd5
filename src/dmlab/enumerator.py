"""Complete isomorph-free generation of small connected regular graphs.

Strategy: row-by-row edge completion over labeled graphs with three symmetry
quotients baked in (vertex 0's neighborhood is fixed to {1..r}; vertices not
yet incident to any edge are introduced in index order; a finished labeled
graph is kept only if vertex 0 has the largest vertex invariant), one
rejection (at each row v <= r + 1, a partial graph isomorphic, with vertex 0
fixed, to one already walked at row v is dropped) and one twin rule (row v
takes twins, touched vertices with equal neighbour sets, in index order).  A
kept leaf with a new certificate yields the graph that certificate encodes.
The counts match OEIS through order 13, the largest order accepted.

Nothing is lost.  Take any graph of the class and call a vertex of largest
invariant (triangles at v, then the descending common-neighbour counts of v
with the vertices at distance 2; unchanged by relabeling) 0, its neighbours
1..r in any order.  Number the remaining vertices in the order in which rows
1, 2, ... first reach them, a vertex that no row reaches numbering itself
when its own row comes.  The quotients generate this labeled copy and keep
it.  When row v begins, vertices 0..v-1 have degree r and fresh..n-1 have no
edge, so the graphs a node leads to are the r-regular supergraphs of its
partial graph on 0..fresh-1, up to renaming fresh..n-1, filtered by
properties that only look at which vertex is 0.  Two partial graphs related
by an isomorphism fixing 0 therefore lead to the same classes.  By induction
on v from the last row down, every class that the walk without rejection
or twin rule reaches from a node at row v is still yielded: a dropped node
leads to the classes of the walked node it repeats.

Nor does the twin rule lose anything.  Row v joins v to a set S of touched
vertices (above v, below fresh) and to the next fresh ones.  Two touched
vertices with equal neighbour sets, read before v's edges are added, are not
adjacent (neither is its own neighbour) and are neither 0 nor v, so swapping
them is an automorphism of the partial graph that fixes 0 and v.  It maps the
child for S onto the child for the swapped S, at the same row with the same
fresh, so the two children lead to the same classes.  Permuting a twin class
maps any chosen subset of it onto the class's first vertices in index order,
so the walk takes only those: a vertex with an earlier twin is chosen only
with that twin.  The induction above carries over, a skipped child leading
to the classes of the kept child it repeats, and the kept choice comes
first in the walk's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, List, Sequence

from .errors import EnumerationError, InvariantError
from .graph import Graph, canonical_certificate, is_connected, is_regular, parse_graph6

GUARANTEED_MAX_ORDER = 13


@dataclass(frozen=True)
class EnumerationTask:
    order: int
    valency: int = 4
    connected: bool = True


def enumerate_regular(task: EnumerationTask) -> Iterator[Graph]:
    """Yield one r-regular graph per isomorphism class, as found, in its canonical form."""
    n, r = task.order, task.valency
    if r < 0 or n < 1:
        raise EnumerationError(f"bad task: order {n}, valency {r}")
    if r >= n:
        raise EnumerationError(f"valency {r} must be below order {n}")
    if (n * r) % 2:
        raise EnumerationError(f"order {n} times valency {r} must be even")
    if n > GUARANTEED_MAX_ORDER:
        raise EnumerationError(
            f"enumeration is only tested complete up to order {GUARANTEED_MAX_ORDER} "
            f"(OEIS counts), got order {n}; filter an external graph6 corpus instead"
        )
    adj: List[set] = [set() for _ in range(n)]
    for v in range(1, r + 1):
        adj[0].add(v)
        adj[v].add(0)

    seen = set()
    walked = set()  # (row, certificate rooted at 0) of the partial graphs walked

    def leaf():
        if not _root_is_largest(adj):
            return
        g = Graph._from_neighbors(tuple(tuple(sorted(a)) for a in adj))
        if task.connected and not is_connected(g):
            return
        cert = canonical_certificate(g)
        if cert not in seen:
            seen.add(cert)
            yield parse_graph6(cert.decode("ascii"))

    def complete_row(v: int, fresh: int):
        # fresh = smallest vertex with no incident edge yet (untouched suffix)
        if v == n:
            # every row filled its vertex to degree r and none went past r,
            # so the labeled graph is r-regular
            yield from leaf()
            return
        if v <= r + 1:
            # only vertices below fresh have edges, so adj[:fresh] is a graph
            partial = Graph._from_neighbors(tuple(tuple(sorted(a)) for a in adj[:fresh]))
            key = (v, canonical_certificate(partial, root=0))
            if key in walked:
                return  # an isomorphic partial graph, vertex 0 fixed, was walked at this row
            walked.add(key)
        if v == fresh:
            fresh = v + 1  # vertex introduces itself; symmetry makes it the smallest
        near = adj[v]
        need = r - len(near)
        touched = [u for u in range(v + 1, fresh) if len(adj[u]) < r and u not in near]
        twin = {}  # touched vertex -> the last touched vertex before it with its neighbours
        last = {}
        for u in touched:
            nb = frozenset(adj[u])
            if nb in last:
                twin[u] = last[nb]
            last[nb] = u
        max_new = min(need, n - fresh)
        for q in range(max_new + 1):
            new = list(range(fresh, fresh + q))
            for old in combinations(touched, need - q):
                if any(u in twin and twin[u] not in old for u in old):
                    continue  # a twin permutation maps old onto an earlier choice
                for u in (*old, *new):
                    near.add(u)
                    adj[u].add(v)
                yield from complete_row(v + 1, fresh + q)
                for u in (*old, *new):
                    near.discard(u)
                    adj[u].discard(v)

    yield from complete_row(1, r + 1)


def _vertex_invariant(adj: List[set], v: int):
    """(triangles at v, descending common-neighbour counts with the vertices at distance 2)."""
    near = adj[v]
    common = {}
    twice_triangles = 0
    for u in near:
        for w in adj[u]:
            if w in near:
                twice_triangles += 1
            elif w != v:
                common[w] = common.get(w, 0) + 1
    return twice_triangles // 2, sorted(common.values(), reverse=True)


def _root_is_largest(adj: List[set]) -> bool:
    """Vertex 0 has the largest invariant."""
    top = _vertex_invariant(adj, 0)
    return all(_vertex_invariant(adj, v) <= top for v in range(1, len(adj)))


@dataclass(frozen=True)
class CensusRow:
    order: int
    total: int
    candidates: tuple  # Graphs surviving the eigenvector filter
    dm_confirmed: int


def census_pipeline(orders: Sequence[int], valency: int = 4) -> List[CensusRow]:
    """Per order: enumerate, filter each graph as it arrives, and search-confirm the candidates."""
    from .search import FOUND, find_labeling
    from .spectral import corollary_filter

    rows = []
    for n in orders:
        total = 0
        candidates = []
        for g in enumerate_regular(EnumerationTask(n, valency, connected=True)):
            if not is_regular(g, valency):
                raise InvariantError(f"enumeration at order {n} produced an irregular graph")
            total += 1
            if corollary_filter(g).candidate:
                candidates.append(g)
        confirmed = sum(
            1 for g in candidates if n % 2 == 0 and find_labeling(g).verdict == FOUND
        )
        rows.append(CensusRow(n, total, tuple(candidates), confirmed))
    return rows
