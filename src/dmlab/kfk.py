"""Order-(n+2) expansion of a labeled tetravalent distance magic graph.

Given a 4-cycle whose antipodal label pairs both sum to zero, delete the
cycle's four edges, add two fresh vertices joined to all four cycle vertices,
and label the fresh pair +-(n+1).  The result is again tetravalent and
distance magic; the implementation re-verifies instead of trusting the
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Tuple

from .errors import ExpansionError
from .graph import Graph, is_regular
from .labeling import CenteredLabeling, verify


@dataclass(frozen=True)
class ZeroAntipodal4Cycle:
    """4-cycle (a, b, c, d) with edges ab, bc, cd, da and zero-sum antipodal
    label pairs (a, c) and (b, d)."""

    vertices: Tuple[int, int, int, int]

    @property
    def edges(self):
        a, b, c, d = self.vertices
        return ((a, b), (b, c), (c, d), (d, a))


def find_zero_antipodal_cycles(g: Graph, lab: CenteredLabeling) -> List[ZeroAntipodal4Cycle]:
    """All qualifying 4-cycles, one representative per rotation/reflection
    class, sorted lexicographically.  Representative convention: a is the
    smallest vertex of the cycle and b < d."""
    if not verify(g, lab).ok:
        raise ExpansionError("labeling is not distance magic")
    labels = lab.labels
    # a bijection onto a symmetric label set: -l(a) is on exactly one vertex
    vertex_of = {label: v for v, label in enumerate(labels)}
    found = []
    for a in range(g.n):
        c = vertex_of[-labels[a]]
        if c <= a:
            continue
        near_c = set(g.neighbors[c])
        common = [w for w in g.neighbors[a] if w > a and w in near_c]  # ascending
        for b, d in combinations(common, 2):
            if labels[b] + labels[d] == 0:
                found.append(ZeroAntipodal4Cycle((a, b, c, d)))
    return found  # in lexicographic order: a ascends, and each a has one c


def _edge_set(cycle: ZeroAntipodal4Cycle):
    return {(min(u, v), max(u, v)) for u, v in cycle.edges}


def expand(
    g: Graph, lab: CenteredLabeling, cycle: ZeroAntipodal4Cycle
) -> Tuple[Graph, CenteredLabeling]:
    """Apply the expansion; returns the order-(n+2) graph and its labeling."""
    if not is_regular(g, 4):
        raise ExpansionError("expansion requires a tetravalent graph")
    if not verify(g, lab).ok:
        raise ExpansionError("labeling is not distance magic")
    a, b, c, d = cycle.vertices
    if len({a, b, c, d}) != 4:
        raise ExpansionError("cycle vertices are not distinct")
    for u, v in cycle.edges:
        if not g.has_edge(u, v):
            raise ExpansionError(f"cycle edge ({u},{v}) missing from graph")
    labels = lab.labels
    if labels[a] + labels[c] != 0 or labels[b] + labels[d] != 0:
        raise ExpansionError("cycle antipodal label pairs do not sum to zero")
    return _expand_qualifying(g, lab, cycle)


def _expand_qualifying(g, lab, cycle):
    """The expansion along a cycle known to qualify; the result is re-verified."""
    n = g.n
    added = [(x, v) for x in (n, n + 1) for v in cycle.vertices]
    g2 = Graph(n + 2, [*(g.edges - _edge_set(cycle)), *added])
    lab2 = CenteredLabeling(n + 2, (*lab.labels, n + 1, -(n + 1)))
    if not verify(g2, lab2).ok:
        raise ExpansionError("expansion produced a non-magic labeling")
    return g2, lab2


def expand_default(g: Graph, lab: CenteredLabeling) -> Tuple[Graph, CenteredLabeling]:
    """Expand along a deterministic default cycle.

    Among qualifying cycles (in lexicographic order) the first one whose
    deletion leaves some triangle of g intact is preferred: wreath graphs of
    order >= 8 are triangle-free, so a surviving triangle certifies that the
    expansion produced a genuinely new graph rather than collapsing back onto
    a wreath graph.  If no cycle preserves a triangle, the lexicographically
    least qualifying cycle is used.
    """
    cycles = find_zero_antipodal_cycles(g, lab)  # verifies lab, once on this path
    if not cycles:
        raise ExpansionError("no zero-antipodal 4-cycle exists for this labeling")
    if not is_regular(g, 4):
        raise ExpansionError("expansion requires a tetravalent graph")
    adj = [set(nb) for nb in g.neighbors]
    triangles = [  # each triangle once, as its edge set
        {(u, v), (u, w), (v, w)}
        for u, nb in enumerate(g.neighbors)
        for v in nb if v > u
        for w in nb if w > v and w in adj[v]
    ]
    # at most 4(d-1) triangles share an edge with a cycle in a graph of
    # maximum degree d, so each test reads at most 4d-3 of them (13 when d = 4)
    for cycle in cycles:
        removed = _edge_set(cycle)
        if any(t.isdisjoint(removed) for t in triangles):
            return _expand_qualifying(g, lab, cycle)
    return _expand_qualifying(g, lab, cycles[0])
