"""Exact adjacency-kernel computation and the eigenvector-based filter.

Everything here is exact rational arithmetic (fractions.Fraction); the filter
tests coordinate equalities across the whole kernel, which floating point
eigensolvers cannot do reliably.

The filter is one-sided: RuledOut is a proof of non-magicness, Candidate is
not a proof of magicness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import NotEvenRegularError
from .graph import Graph

Vector = Tuple[Fraction, ...]


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


def adjacency_matrix(g: Graph) -> Tuple[Vector, ...]:
    """The adjacency matrix as a tuple of Fraction rows."""
    zero, one = Fraction(0), Fraction(1)
    rows = []
    for v in range(g.n):
        row = [zero] * g.n
        for w in g.neighbors[v]:
            row[w] = one
        rows.append(tuple(row))
    return tuple(rows)


def _rref(entries, cols):
    mat = [list(r) for r in entries]
    rows = len(mat)
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return mat, pivots


def nullspace_basis(rows: Tuple[Vector, ...]) -> NullspaceBasis:
    """Kernel basis of a non-empty tuple of equal-length rows: one vector per
    free column, 1 at the free coordinate."""
    cols = len(rows[0])
    mat, pivots = _rref(rows, cols)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    vectors = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        vectors.append(tuple(v))
    return NullspaceBasis(len(vectors), tuple(vectors), tuple(pivots))


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
    """First coordinate pair (i, j), i < j, equal in every given kernel vector.

    Equality across a basis is equivalent to equality across the whole span,
    so the answer does not depend on the basis choice.  Coordinates are
    grouped by their column across the vectors in one pass; the first pair is
    the least (first, second) member pair of a group.
    """
    first, second = {}, {}  # column -> its least coordinate; that one -> the next
    for j, column in enumerate(zip(*vectors) if vectors else [()] * n):
        i = first.setdefault(column, j)
        if i != j:
            second.setdefault(i, j)
    return min(second.items(), default=None)


def corollary_filter(g: Graph) -> FilterVerdict:
    """Rule out graphs whose adjacency kernel cannot contain a centered
    labeling: trivial kernel, or some coordinate pair pinned equal on the
    whole kernel (a labeling is injective, so pinned-equal is fatal)."""
    require_even_regular(g)
    return basis_verdict(nullspace_basis(adjacency_matrix(g)), g.n)


def basis_verdict(basis: NullspaceBasis, n: int) -> FilterVerdict:
    """The filter's verdict on a kernel basis of an order-n graph."""
    if basis.dimension == 0:
        return FilterVerdict(False, "trivial nullspace")
    pair = pinned_equal_pair(basis.vectors, n)
    if pair is not None:
        return FilterVerdict(
            False, f"coordinates {pair[0]} and {pair[1]} equal across the nullspace"
        )
    return FilterVerdict(True)
