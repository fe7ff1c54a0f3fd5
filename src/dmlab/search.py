"""Exhaustive backtracking oracle for distance magic labelings.

With no budget set the search is complete: a NOT_FOUND answer is a proof
that no labeling exists.  Budgets always yield the distinct BUDGET_EXHAUSTED
verdict instead.

By Lemma EV a labeling is a kernel vector of the adjacency matrix that is a
bijection onto the centered labels.  Every kernel vector is fixed by its
free coordinates in the basis of `spectral.nullspace_basis`: pivot p is
sum_k vectors[k][p] * l(free[k]).  So the search branches on the free
coordinates, in ascending order, over all unused labels, and derives each
pivot once the last free coordinate in its sum is labeled; that reaches
every labeling.  A complete neighborhood then sums to 0 by construction.

Rules, fixed and always applied ((d) in count-all mode only):
  (a) kernel derivation - a derived label, floor(l'(p)) for the kernel
      vector l' with the free coordinates labeled so far, must be an unused
      label.  It equals l'(p) at every leaf: there the n labels are the whole
      pool, which sums to 0 as l' does (A is symmetric with A*1 = r*1, r > 0),
      and each floor is at most its value, so none is below it.  A pivot with
      no free term, such as any coordinate of a trivial kernel, is 0 on the
      whole kernel: NOT_FOUND at once;
  (b) interval feasibility - on the branched vertex, the derived vertices
      and their neighbors, the partial neighbor sum plus the extreme
      completions from the remaining label pool must straddle 0.  Once per
      branched label, after its derivations, the pool's prefix sums give
      the j least and the j greatest unused labels' sums for j <= r; a
      vertex with j open neighbors reads its bounds there;
  (c) sign folding - the first free coordinate is labeled positive
      (labelings come in +-pairs, since negation preserves both conditions);
  (d) twin ordering - twins (vertices with equal neighbor sets) u < v must
      have l(u) > l(v), checked on branched and on derived vertices, and
      rule (c) moves to the first free coordinate that has no twin.  Swapping
      two twins is an automorphism, so the group T of twin permutations, of
      order prod k! over the twin classes, maps labelings to labelings; it
      acts freely since labels are distinct, so each T-orbit holds exactly
      one twin-ordered labeling, and the leaves times prod k! count every
      labeling.  T commutes with negation, so l -> sort(-l) (negate, then
      reorder each twin class) is an involution on twin-ordered labelings
      that flips the sign at every vertex without a twin: the fold there
      still halves the count exactly.  When every free coordinate has a twin
      there is no fold and the total is halved instead (prod k! is then
      even).  Find-one mode keeps rule (c) on the first free coordinate and
      its search order.  The twins of each vertex v are split once, before
      the walk, into above[v] (twins u < v, which need l(u) > l(v)) and
      below[v] (twins u > v, which need l(u) < l(v)).
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from . import spectral
from .errors import DmlabError, InvariantError, NotEvenRegularError
from .graph import Graph, is_connected
from .labeling import CenteredLabeling, centered_label_set, verify
from .qw import build_qw, profile_to_sequence

FOUND = "found"
NOT_FOUND = "not-found"
BUDGET_EXHAUSTED = "budget-exhausted"

FIND_ONE = "find-one"
COUNT_ALL = "count-all"


@dataclass(frozen=True)
class SearchOptions:
    mode: str = FIND_ONE
    node_budget: Optional[int] = None
    time_budget: Optional[float] = None  # seconds
    prefilter: bool = False              # run the kernel filter before searching

    def __post_init__(self):
        if self.mode not in (FIND_ONE, COUNT_ALL):
            raise DmlabError(
                f"unknown search mode {self.mode!r}; use {FIND_ONE!r} or {COUNT_ALL!r}"
            )
        # exact types: bool is an int subclass, and 2.5 nodes must not round
        nodes, secs = self.node_budget, self.time_budget
        if nodes is not None and (type(nodes) is not int or nodes < 0):
            raise DmlabError(f"node budget must be an int >= 0, got {nodes!r}")
        if secs is not None and (type(secs) not in (int, float) or not 0 <= secs < math.inf):
            raise DmlabError(f"time budget must be a finite number >= 0, got {secs!r}")
        if type(self.prefilter) is not bool:  # 'no' is truthy and would run the filter
            raise DmlabError(f"prefilter must be a bool, got {self.prefilter!r}")


@dataclass(frozen=True)
class SearchOutcome:
    verdict: str
    labeling: Optional[CenteredLabeling] = None
    count_folded: Optional[int] = None
    count_raw: Optional[int] = None
    stats: Dict[str, int] = field(default_factory=dict)


class _Budget(Exception):
    pass


def find_labeling(g: Graph, opts: Optional[SearchOptions] = None) -> SearchOutcome:
    opts = opts or SearchOptions()
    n = g.n
    r = spectral.require_even_regular(g)
    labels = centered_label_set(n)  # raises OddOrderError on an odd order
    if not is_connected(g):
        raise NotEvenRegularError("search requires a connected graph")

    stats = {"nodes": 0, "prune_interval": 0, "prune_kernel": 0}
    basis = spectral.nullspace_basis(g)
    if opts.prefilter and not spectral.basis_verdict(basis, n).candidate:
        stats["prefilter_ruled_out"] = 1
        return _outcome(g, opts, None, 0, stats)

    pivots = set(basis.pivot_columns)
    free = [c for c in range(n) if c not in pivots]
    # derive[k] holds (p, scale, terms) for each pivot p whose last free term is
    # free[k]: l(p) = sum(c * l(w) for w, c in terms) // scale, by rule (a)
    derive: list = [[] for _ in free]
    for p in basis.pivot_columns:
        coeffs = [vec[p] for vec in basis.vectors]
        nonzero = [k for k, c in enumerate(coeffs) if c]
        if not nonzero:  # l(p) = 0 on the whole kernel, but centered labels are odd
            return _outcome(g, opts, None, 0, stats)
        scale = math.lcm(*(coeffs[k].denominator for k in nonzero))
        terms = [(free[k], int(coeffs[k] * scale)) for k in nonzero]
        derive[nonzero[-1]].append((p, scale, terms))

    nbrs = g.neighbors
    # rule (d) in count-all mode: above[v] and below[v] split v's twins, and
    # orbit is prod k!
    above: list = [()] * n
    below: list = [()] * n
    orbit = 1
    if opts.mode == COUNT_ALL:
        classes: dict = {}
        for v in range(n):
            classes.setdefault(nbrs[v], []).append(v)  # sorted tuples
        for cls in classes.values():
            orbit *= math.factorial(len(cls))
            for v in cls:
                above[v] = tuple(u for u in cls if u < v)
                below[v] = tuple(u for u in cls if u > v)
    fold = next((k for k, v in enumerate(free) if not above[v] and not below[v]), None)
    labels_desc = sorted(labels, key=lambda x: (-abs(x), -x))
    assigned: list = [None] * n
    remaining = list(labels)  # ascending pool of unused labels
    in_pool = set(remaining)
    deadline = None if opts.time_budget is None else time.monotonic() + opts.time_budget
    first: Optional[CenteredLabeling] = None  # the only labeling kept
    leaves = 0

    def ordered(v: int, x: int) -> bool:
        for u in above[v]:
            y = assigned[u]
            if y is not None and y < x:
                return False
        for u in below[v]:
            y = assigned[u]
            if y is not None and y > x:
                return False
        return True

    def put(v: int, x: int):
        assigned[v] = x
        in_pool.discard(x)
        remaining.remove(x)

    def settle(k: int, placed: list) -> bool:
        # derive the pivots that free[k] completes, then apply the interval rule
        for p, scale, terms in derive[k]:
            s = 0
            for w, c in terms:
                s += c * assigned[w]
            x = s // scale
            if x not in in_pool:
                stats["prune_kernel"] += 1
                return False
            if not ordered(p, x):
                return False
            put(p, x)
            placed.append(p)
        # low[j] and high[j]: the sums of the j least and the j greatest unused labels
        low = [0]
        high = [0]
        for j in range(min(r, len(remaining))):
            low.append(low[j] + remaining[j])
            high.append(high[j] + remaining[-1 - j])
        for u in {u for v in placed for u in (v, *nbrs[v])}:
            s = 0
            k_open = r
            for w in nbrs[u]:
                y = assigned[w]
                if y is not None:
                    s += y
                    k_open -= 1
            if k_open and not low[k_open] <= -s <= high[k_open]:
                stats["prune_interval"] += 1
                return False
        return True

    def descend(k: int) -> bool:
        """Returns True when find-one mode should stop."""
        nonlocal first, leaves
        if deadline is not None and time.monotonic() > deadline:
            raise _Budget
        if k == len(free):
            leaves += 1
            if first is None:
                first = CenteredLabeling(n, tuple(assigned))
            return opts.mode == FIND_ONE
        if opts.node_budget is not None and stats["nodes"] >= opts.node_budget:
            raise _Budget
        stats["nodes"] += 1
        v = free[k]
        for x in labels_desc:
            if x not in in_pool or (k == fold and x < 0) or not ordered(v, x):
                continue
            put(v, x)
            placed = [v]
            if settle(k, placed) and descend(k + 1):
                return True
            for w in placed:
                y = assigned[w]
                in_pool.add(y)
                bisect.insort(remaining, y)
                assigned[w] = None
        return False

    try:
        descend(0)
    except _Budget:
        return SearchOutcome(BUDGET_EXHAUSTED, stats=stats)
    folded = leaves * orbit if fold is not None else leaves * orbit // 2
    return _outcome(g, opts, first, folded, stats)


def _outcome(g: Graph, opts: SearchOptions, first, folded: int, stats) -> SearchOutcome:
    if first is not None and not verify(g, first).ok:
        raise InvariantError("search produced a non-magic labeling")
    verdict = NOT_FOUND if first is None else FOUND
    if opts.mode == COUNT_ALL:
        return SearchOutcome(verdict, first, folded, 2 * folded, stats)
    return SearchOutcome(verdict, first, stats=stats)


def decide_profile(profile: Sequence[int], opts: Optional[SearchOptions] = None) -> bool:
    """Ground-truth decision for a segment profile via complete search; a budget
    that runs out leaves no verdict and raises DmlabError."""
    seq = profile_to_sequence(profile)
    outcome = find_labeling(build_qw(seq), opts)
    if outcome.verdict == BUDGET_EXHAUSTED:
        raise DmlabError("search budget exhausted; no verdict")
    return outcome.verdict == FOUND
