"""Complete isomorph-free generation of small regular graphs, connected or not.

Strategy: row-by-row edge completion over labeled graphs with three symmetry
quotients baked in (vertex 0's neighborhood is fixed to {1..r}; vertices not
yet incident to any edge are introduced in index order; a finished labeled
graph is kept only if vertex 0 has the largest vertex invariant), one
rejection (at each row v <= r + 1, a partial graph isomorphic, with vertex 0
fixed, to one already walked at row v is dropped), one prune (at rows r and
r + 1, a partial graph in which some vertex has more triangles than vertex 0
is dropped first) and one twin rule (row v takes twins, touched vertices with
equal neighbour sets, in index order).  The counts match OEIS through order
13, the largest order accepted.

Both keys are graph.py's _least_key.  A kept leaf starts from the cells of
equal vertex invariant, in ascending order, which the pass that checks vertex
0 returns: an isomorphism invariant, so every automorphism maps each cell onto
itself (the twin rule and backjump need this) and keys are equal exactly when
the graphs are isomorphic, as with the canonical certificate that
enumerate_regular runs once per class and the census once per candidate.  A
partial graph starts from [[0], rest], which keeps 0 first: keys are equal
exactly when an isomorphism fixing 0 maps one graph onto the other.

Nothing is lost.  Take any graph of the class and call a vertex of largest
invariant (_vertex_invariant, unchanged by relabeling) 0, its neighbours 1..r
in any order.  Number the remaining vertices in the order in which rows 1, 2,
... first reach them, a vertex that no row reaches numbering itself when its
own row comes: never in a connected graph, so a connected task stops there.
The quotients generate and keep this copy.  When row v begins, vertices
0..v-1 have degree r and fresh..n-1 have no edge, so the graphs a node leads
to are the r-regular supergraphs of its partial graph on 0..fresh-1, up to
renaming fresh..n-1, filtered by properties that only look at which vertex is
0.  Two partial graphs related by an isomorphism fixing 0 thus lead to the
same classes.  By induction on v from the last row down, every class that the
walk without rejection or twin rule reaches from a node at row v is still
yielded: a dropped node leads to the classes of the walked node it repeats.

The prune drops only nodes below which no leaf is kept.  Rows 1..r-1 fix
every edge among 0's neighbours 1..r, so from row r on 0's triangle count is
final, and adding edges never lowers any vertex's count.  A vertex with more
triangles than 0 has more in every leaf below the node, and the invariant
compares triangles first, so no such leaf passes the leaf quotient.  A
dropped node is not added to walked; a later node at its row with the same
key is isomorphic to it with 0 fixed, so it holds such a vertex too and is
dropped by the same test.  The yields and their order are therefore
unchanged.  Testing at every row cut more leaves but cost more than it saved.

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
from .graph import (
    Graph,
    _least_key,
    canonical_certificate,
    is_regular,
    parse_graph6,
)

GUARANTEED_MAX_ORDER = 13


@dataclass(frozen=True)
class EnumerationTask:
    order: int
    valency: int = 4
    connected: bool = True


def enumerate_regular(task: EnumerationTask) -> Iterator[Graph]:
    """Yield one r-regular graph per isomorphism class, as found, in its canonical form."""
    for g in _classes(task):
        yield _canonical_form(g)


def _canonical_form(g: Graph) -> Graph:
    return parse_graph6(canonical_certificate(g).decode("ascii"))


def _classes(task: EnumerationTask) -> Iterator[Graph]:
    """Yield one r-regular graph per isomorphism class, as found, as the walk labeled it."""
    n, r = task.order, task.valency
    # exact ints: bool is an int subclass, and a float order would reach range()
    if type(n) is not int or type(r) is not int or r < 0 or n < 1:
        raise EnumerationError(f"bad task: order {n!r}, valency {r!r}")
    if type(task.connected) is not bool:  # 'no' is truthy and would walk connected
        raise EnumerationError(f"connected must be a bool, got {task.connected!r}")
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

    seen = set()  # leaf keys of the classes yielded
    walked = set()  # (row, key rooted at 0) of the partial graphs walked

    def leaf():
        cells = _root_cells(adj)
        if cells is None:
            return
        g = Graph._from_neighbors(tuple(tuple(sorted(a)) for a in adj))
        key = _least_key(g, cells)
        if key not in seen:
            seen.add(key)
            yield g

    def complete_row(v: int, fresh: int):
        # fresh = smallest vertex with no incident edge yet (untouched suffix)
        if v == n:
            # every row filled its vertex to degree r and none went past r,
            # so the labeled graph is r-regular
            yield from leaf()
            return
        if v <= r + 1:
            if v >= r:
                # triangles, final for 0: rows 1..r-1 fixed every edge among 1..r
                top = _triangles(adj, 0)
                if any(_triangles(adj, u) > top for u in range(1, fresh)):
                    return  # no count falls as edges are added, so no leaf below is kept
            # only vertices below fresh have edges, so adj[:fresh] is a graph
            partial = Graph._from_neighbors(tuple(tuple(sorted(a)) for a in adj[:fresh]))
            key = (v, _least_key(partial, [[0], list(range(1, fresh))] if fresh > 1 else [[0]]))
            if key in walked:
                return  # an isomorphic partial graph, vertex 0 fixed, was walked at this row
            walked.add(key)
        if v == fresh:
            if task.connected:
                return  # 0..v-1 are full and reach no later vertex: a closed component
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
    return twice_triangles // 2, tuple(sorted(common.values(), reverse=True))


def _triangles(adj: List[set], v: int) -> int:
    """Triangles at v, _vertex_invariant's first entry, without its common-neighbour counts."""
    near = adj[v]
    return sum([len(near & adj[u]) for u in near]) // 2


def _root_cells(adj: List[set]):
    """None if some vertex has a larger invariant than vertex 0 (the leaf
    quotient), else the vertices in cells of equal invariant, in ascending
    order of invariant."""
    top = _vertex_invariant(adj, 0)
    cells = {top: [0]}
    for v in range(1, len(adj)):
        inv = _vertex_invariant(adj, v)
        if inv > top:
            return None
        cells.setdefault(inv, []).append(v)
    return [cells[inv] for inv in sorted(cells)]


@dataclass(frozen=True)
class CensusRow:
    order: int
    total: int
    candidates: tuple  # Graphs surviving the eigenvector filter
    dm_confirmed: int


def census_pipeline(orders: Sequence[int], valency: int = 4) -> List[CensusRow]:
    """Per order: enumerate, filter each class as the walk labeled it (a relabeling
    keeps the verdict), and search-confirm the candidates in canonical form.

    A class with a near_twin_pair, two vertices sharing all but one neighbour,
    skips the kernel filter: A(e_u - e_w) = e_x - e_y pins a pair on its
    kernel, so the filter would rule it out anyway, and the rows and
    candidates are the same.  1, 3 and 9 classes reach the filter at orders
    6, 8 and 10, of 1, 6 and 59.
    """
    from .search import FOUND, find_labeling
    from .spectral import corollary_filter, near_twin_pair, require_even_regular

    rows = []
    for n in orders:
        total = 0
        candidates = []
        for g in _classes(EnumerationTask(n, valency, connected=True)):
            if not is_regular(g, valency):
                raise InvariantError(f"enumeration at order {n} produced an irregular graph")
            total += 1
            require_even_regular(g)  # an odd valency ends the census before the screen
            if near_twin_pair(g) is None and corollary_filter(g).candidate:
                candidates.append(_canonical_form(g))
        confirmed = sum(
            1 for g in candidates if n % 2 == 0 and find_labeling(g).verdict == FOUND
        )
        rows.append(CensusRow(n, total, tuple(candidates), confirmed))
    return rows
