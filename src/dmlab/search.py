"""Exhaustive backtracking oracle for distance magic labelings.

With no budget set the search is complete: a NOT_FOUND answer is a proof
that no labeling exists.  Budgets always yield the distinct BUDGET_EXHAUSTED
verdict instead.

Pruning rules, fixed and always applied:
  (a) zero-sum closure - a fully labeled neighborhood must sum to 0; also
      applied eagerly as value forcing when one neighbor is missing;
  (b) interval feasibility - the partial neighbor sum plus the extreme
      completions from the remaining label pool must straddle 0;
  (c) sign folding - the first assigned label is taken positive (labelings
      come in +-pairs, since negation preserves both conditions).
The next vertex is the unlabeled one with the most labeled neighbors.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from .errors import InvariantError, NotEvenRegularError, OddOrderError
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
    prefilter: bool = False              # run corollary_filter before searching


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
    degrees = {g.degree(v) for v in range(n)}
    if len(degrees) != 1:
        raise NotEvenRegularError("search requires a regular graph")
    r = degrees.pop()
    if r % 2:
        raise NotEvenRegularError(f"valency {r} is odd; no distance magic labeling exists")
    if n % 2:
        raise OddOrderError(
            f"order {n} is odd; the centered label set needs an even order"
        )
    if not is_connected(g):
        raise NotEvenRegularError("search requires a connected graph")

    stats = {"nodes": 0, "prune_zero_sum": 0, "prune_interval": 0, "prune_forced": 0}

    if opts.prefilter:
        from .spectral import corollary_filter

        verdict = corollary_filter(g)
        if not verdict.candidate:
            stats["prefilter_ruled_out"] = 1
            if opts.mode == COUNT_ALL:
                return SearchOutcome(NOT_FOUND, count_folded=0, count_raw=0, stats=stats)
            return SearchOutcome(NOT_FOUND, stats=stats)

    nbrs = g.neighbors
    labels_desc = sorted(centered_label_set(n), key=lambda x: (-abs(x), -x))

    assigned: list = [None] * n
    psum = [0] * n                 # sum of labels over assigned neighbors
    open_nbrs = [r] * n            # unassigned neighbor count
    done_nbrs = [0] * n            # assigned neighbor count (ordering heuristic)
    remaining = sorted(labels_desc)  # ascending pool of unused labels
    in_pool = set(remaining)

    deadline = None
    if opts.time_budget is not None:
        deadline = time.monotonic() + opts.time_budget

    first: Optional[CenteredLabeling] = None  # the only labeling kept
    folded = 0

    def select() -> Tuple[int, Sequence[int]]:
        # value forcing: a vertex with one open neighbor pins that neighbor
        for u in range(n):
            if open_nbrs[u] == 1:
                v = next(w for w in nbrs[u] if assigned[w] is None)
                forced = -psum[u]
                if forced in in_pool:
                    return v, (forced,)
                stats["prune_forced"] += 1
                return v, ()
        v = max(
            (w for w in range(n) if assigned[w] is None),
            key=lambda w: (done_nbrs[w], -w),
        )
        return v, [x for x in labels_desc if x in in_pool]

    def feasible_after(v: int) -> bool:
        # check v and its neighbors against the pruning rules
        for u in (v, *nbrs[v]):
            k = open_nbrs[u]
            if k == 0:
                if psum[u] != 0:
                    stats["prune_zero_sum"] += 1
                    return False
                continue
            lo = psum[u] + sum(remaining[:k])
            hi = psum[u] + sum(remaining[-k:])
            if lo > 0 or hi < 0:
                stats["prune_interval"] += 1
                return False
        return True

    def descend(depth: int) -> bool:
        """Returns True when find-one mode should stop."""
        nonlocal first, folded
        if opts.node_budget is not None and stats["nodes"] > opts.node_budget:
            raise _Budget
        if deadline is not None and time.monotonic() > deadline:
            raise _Budget
        if depth == n:
            folded += 1
            if first is None:
                first = CenteredLabeling(n, tuple(assigned))
            return opts.mode == FIND_ONE
        stats["nodes"] += 1
        v, candidates = select()
        if depth == 0:
            candidates = [x for x in candidates if x > 0]
        for x in candidates:
            assigned[v] = x
            in_pool.discard(x)
            remaining.remove(x)
            for u in nbrs[v]:
                psum[u] += x
                open_nbrs[u] -= 1
                done_nbrs[u] += 1
            if feasible_after(v) and descend(depth + 1):
                return True
            for u in nbrs[v]:
                psum[u] -= x
                open_nbrs[u] += 1
                done_nbrs[u] -= 1
            assigned[v] = None
            in_pool.add(x)
            bisect.insort(remaining, x)
        return False

    try:
        descend(0)
    except _Budget:
        return SearchOutcome(BUDGET_EXHAUSTED, stats=stats)

    if opts.mode == COUNT_ALL:
        return SearchOutcome(
            FOUND if first is not None else NOT_FOUND,
            labeling=first,
            count_folded=folded,
            count_raw=2 * folded,
            stats=stats,
        )
    if first is None:
        return SearchOutcome(NOT_FOUND, stats=stats)
    if not verify(g, first).ok:
        raise InvariantError("search produced a non-magic labeling")
    return SearchOutcome(FOUND, labeling=first, stats=stats)


def decide_profile(profile: Sequence[int], opts: Optional[SearchOptions] = None) -> bool:
    """Ground-truth decision for a segment profile via complete search."""
    seq = profile_to_sequence(profile)
    outcome = find_labeling(build_qw(seq), opts)
    if outcome.verdict == BUDGET_EXHAUSTED:
        raise RuntimeError("search budget exhausted; no verdict")
    return outcome.verdict == FOUND
