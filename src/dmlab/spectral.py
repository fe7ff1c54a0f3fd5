"""Exact adjacency-kernel computation and the eigenvector-based filter.

nullspace_basis gives the kernel of a graph, eliminated in a given order,
returned in vertex numbering; its working rows are written straight from the
neighbour tuples.  Everything is exact rational arithmetic: the filter tests
coordinate equalities across the whole kernel, which floating point
eigensolvers cannot do reliably.  Elimination pivots on an entry of 1 or -1
where the column has one, and every integral entry is kept as an int: a
fractions.Fraction appears only where a division is inexact.  Elimination
touches only the nonzero entries of each pivot row, so its cost follows the
nonzeros of the pivot rows rather than the square of the order.

corollary_filter eliminates in breadth-first band order (a Cuthill-McKee
order), which keeps the fill of the reduced rows near the diagonal; the
search eliminates in natural order.  On the 589 quasi wreath graphs of order
16-28, in band order, 959 of 9,630 pivots are not a unit and 199 a Fraction,
and 17,082 of 413,538 row-update results are computed in Fractions (natural
order: 1,322, 44, and 100,160 of 452,064).  In both orders all 134,576
kernel vector entries are ints.  The band order takes QW((7,5)^20), n = 480,
from 0.8 to 0.04 s and QW((7,5)^40), n = 960, from 5.3 to 0.18 s (CPython
3.11, one core of a 2-CPU x86-64 machine).

The filter is one-sided: RuledOut is a proof of non-magicness, Candidate is
not a proof of magicness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .errors import NotEvenRegularError
from .graph import Graph, _permutation

Vector = Tuple[Union[int, Fraction], ...]  # ints where integral, Fractions elsewhere


@dataclass(frozen=True)
class NullspaceBasis:
    """Exact kernel basis derived from the reduced row echelon form."""

    dimension: int
    vectors: Tuple[Vector, ...]
    pivot_columns: Tuple[int, ...]


@dataclass(frozen=True)
class FilterVerdict:
    candidate: bool
    reason: Optional[str] = None


def _rref(mat: List[List], cols: int) -> List[int]:
    """Reduce mat to reduced row echelon form in place; the pivot columns.

    Column c pivots on the first candidate row holding 1 or -1, else on the
    first nonzero one.  Each row update reads and writes only the columns
    where the normalised pivot row is nonzero; every integral quotient or
    row-update result is stored as an int.  The reduced row echelon form is
    unique, so the row choice moves no pivot column, basis vector, verdict
    or search node count; it changes only the intermediate arithmetic.
    """
    rows = len(mat)
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        nonzero = [i for i in range(r, rows) if mat[i][c]]
        if not nonzero:
            continue
        pivot = next((i for i in nonzero if mat[i][c] in (1, -1)), nonzero[0])
        mat[r], mat[pivot] = mat[pivot], mat[r]
        row = mat[r]
        lead = row[c]
        support = [(j, row[j]) for j in range(c, cols) if row[j]]
        if lead != 1:
            for k, (j, a) in enumerate(support):
                q, rest = divmod(a, lead)
                row[j] = Fraction(a, lead) if rest else q
                support[k] = j, row[j]
        for other in mat:
            f = other[c]
            if f and other is not row:
                for j, b in support:
                    x = other[j] - f * b
                    other[j] = x if type(x) is int or x.denominator != 1 else x.numerator
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def nullspace_basis(g: Graph, order: Sequence[int] = ()) -> NullspaceBasis:
    """Exact kernel basis of g's adjacency matrix, eliminated in the given
    vertex order (0..n-1 when order is empty) and returned in vertex
    numbering: one vector per free vertex, 1 there and 0 at the other free
    vertices, with pivot_columns the pivot vertices in elimination order.
    Each entry is an int where it is integral and a Fraction elsewhere.  A
    non-empty order that is not a permutation of 0..n-1 in exact ints raises
    ValueError."""
    n = g.n
    order = _permutation(order, n, "order") if order else range(n)
    position = [0] * n
    for p, v in enumerate(order):
        position[v] = p
    mat = []  # row p is vertex order[p], its column q is vertex order[q]
    for v in order:
        row = [0] * n
        for w in g.neighbors[v]:
            row[position[w]] = 1
        mat.append(row)
    pivots = _rref(mat, n)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    vectors = []
    for fc in free:
        v = [0] * n
        v[order[fc]] = 1
        for r, pc in enumerate(pivots):
            v[order[pc]] = -mat[r][fc]
        vectors.append(tuple(v))
    return NullspaceBasis(len(vectors), tuple(vectors), tuple(order[pc] for pc in pivots))


def require_even_regular(g: Graph) -> int:
    """The valency of a regular graph of even valency; NotEvenRegularError otherwise."""
    degrees = {g.degree(v) for v in range(g.n)}
    if len(degrees) != 1:
        raise NotEvenRegularError("graph is not regular")
    r = degrees.pop()
    if r % 2:
        raise NotEvenRegularError(f"valency {r} is odd; no distance magic labeling exists")
    return r


def pinned_equal_pair(vectors, n: int) -> Optional[Tuple[int, int]]:
    """First vertex pair (i, j), i < j, of an order-n graph equal in every
    given kernel vector, the vectors in vertex numbering.

    Equality across a basis is equivalent to equality across the whole span,
    so the answer does not depend on the basis choice.  Coordinates are
    grouped by their column across the vectors in one pass over the vertices;
    the first pair is the least (first, second) member pair of a group.
    """
    columns = list(zip(*vectors)) if vectors else [()] * n
    first, second = {}, {}  # column -> its least vertex; that one -> the next
    for j, column in enumerate(columns):
        i = first.setdefault(column, j)
        if i != j:
            second.setdefault(i, j)
    return min(second.items(), default=None)


def near_twin_pair(g: Graph) -> Optional[Tuple[int, int]]:
    """First vertex pair (u, w), u < w, of a regular graph of valency r whose
    neighbour sets share exactly r - 1 vertices, adjacent or not (true twins
    share r).  With N(u) = S + {x} and N(w) = S + {y}, a magic labeling would
    need l(x) = l(y) (Miller, Rodger & Simanjuntak 2003): A(e_u - e_w) =
    e_x - e_y pins x and y equal on the kernel, so the filter rules it out."""
    sets = [set(nb) for nb in g.neighbors]
    near = len(sets[0]) - 1
    for u, nu in enumerate(sets):
        for w in range(u + 1, g.n):
            if len(nu & sets[w]) == near:
                return u, w
    return None


def _band_order(g: Graph) -> List[int]:
    """The vertices in breadth-first order from vertex 0, neighbours in
    ascending order, restarting at the least unvisited vertex until every
    component is covered: a Cuthill-McKee order, in which each adjacency row
    reaches only a few rows back or ahead."""
    order: List[int] = []
    seen = [False] * g.n
    for s in range(g.n):
        if not seen[s]:
            seen[s] = True
            i = len(order)
            order.append(s)
            while i < len(order):
                for w in g.neighbors[order[i]]:
                    if not seen[w]:
                        seen[w] = True
                        order.append(w)
                i += 1
    return order


def corollary_filter(g: Graph) -> FilterVerdict:
    """Rule out graphs whose adjacency kernel cannot contain a centered
    labeling: trivial kernel, or some vertex pair pinned equal on the whole
    kernel (a labeling is injective, so pinned-equal is fatal).

    The kernel is eliminated in _band_order, which keeps the fill of the
    reduced rows inside a narrow band, and comes back in vertex numbering,
    so the verdict and its reason do not depend on the elimination order."""
    require_even_regular(g)
    return basis_verdict(nullspace_basis(g, _band_order(g)), g.n)


def basis_verdict(basis: NullspaceBasis, n: int) -> FilterVerdict:
    """The filter's verdict on a kernel basis, in vertex numbering, of an
    order-n graph."""
    if basis.dimension == 0:
        return FilterVerdict(False, "trivial nullspace")
    pair = pinned_equal_pair(basis.vectors, n)
    if pair is not None:
        return FilterVerdict(
            False, f"coordinates {pair[0]} and {pair[1]} equal across the nullspace"
        )
    return FilterVerdict(True)
