"""Closed-form distance magic labeling of quasi wreath graphs.

Implements the explicit block-by-block labeling that proves the sufficient
half of the classification: any sequence whose segments are all of type A
(length = 3 mod 4) or type B (length = 1 mod 4), with an even number of
type-B segments, gets a labeling with every vertex weight 0.

Blocks are written exactly once each; a second write raises InvariantError,
so a mis-scoped index range fails loudly instead of silently overwriting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import InvariantError, NotDistanceMagicError
from .labeling import CenteredLabeling, block_labels
from .qw import TYPE_A, TYPE_B, QWSequence, classify, segments


@dataclass(frozen=True)
class PlannedSegment:
    index: int            # 1-based
    start: int            # k_i
    length: int
    kind: str             # TYPE_A or TYPE_B
    b: int                # number of type-B segments before this one (b_1 = 0)
    partner: Optional[int]  # for type-B with b even: index of the next type-B segment


@dataclass(frozen=True)
class SegmentPlan:
    m: int
    segments: Tuple[PlannedSegment, ...]


def plan(seq: QWSequence) -> SegmentPlan:
    """Sign/pairing bookkeeping for the labeling equations.

    Only defined for distance-magic sequences: every type-B segment with an
    even count of type-B predecessors is matched to the next type-B segment,
    which is a perfect matching exactly because the type-B count is even.
    """
    verdict = classify(seq)
    if not verdict.distance_magic:
        raise NotDistanceMagicError(verdict.reason)
    segs = segments(seq)
    planned = []
    b = 0
    b_indices = [s.index for s in segs if s.kind == TYPE_B]
    for s in segs:
        partner = None
        if s.kind == TYPE_B and b % 2 == 0:
            pos = b_indices.index(s.index)
            partner = b_indices[pos + 1]
        planned.append(
            PlannedSegment(s.index, s.start, s.length, s.kind, b, partner)
        )
        if s.kind == TYPE_B:
            b += 1
    return SegmentPlan(seq.m, tuple(planned))


class _BlockWriter:
    def __init__(self, m: int):
        self.m = m
        self.pairs: Dict[int, Tuple[int, int]] = {}

    def put(self, block: int, x_label: int, y_label: int):
        block %= self.m
        if block in self.pairs:
            raise InvariantError(f"block {block} written twice")
        self.pairs[block] = (x_label, y_label)

    def finish(self) -> CenteredLabeling:
        if len(self.pairs) != self.m:
            raise InvariantError("some block was never labeled")
        labels = [0] * (2 * self.m)
        for i, (lx, ly) in self.pairs.items():
            labels[i] = lx
            labels[self.m + i] = ly
        return CenteredLabeling(2 * self.m, tuple(labels))


def _interior_pair(j: int) -> Tuple[int, int]:
    """(alpha, beta) for interior block k_i + j, 2 <= j <= length - 3."""
    res = j % 4
    if res == 0:
        return 2 * j + 3, 2 * j + 3
    if res == 1:
        return 2 * j - 1, 2 * j - 3
    if res == 2:
        return 2 * j + 1, 2 * j + 1
    return 2 * j + 1, 2 * j + 3


def _assign(seq: QWSequence, starred: bool) -> CenteredLabeling:
    p = plan(seq)
    m = p.m
    segs = p.segments
    # k_end[i] = k_{i+1}, the zero position after segment i (k_{t+1} = m)
    k_end = {s.index: (segs[s.index].start if s.index < len(segs) else m) for s in segs}
    out = _BlockWriter(m)

    for s in segs:
        sign = -1 if s.b % 2 else 1
        ki = s.start
        off = 2 * ki
        out.put(ki, sign * (off + 1), sign * (-off - 3))
        out.put(ki + 1, sign * (off + 3), sign * (-off - 1))
        for j in range(2, s.length - 2):  # 2 <= j <= length - 3
            alpha, beta = _interior_pair(j)
            out.put(ki + j, sign * (off + alpha), sign * (-off - beta))

    # paired type-B segments
    for s in segs:
        if s.partner is None:
            continue
        ke = 2 * k_end[s.index]          # 2 k_{i+1}
        ke_p = 2 * k_end[s.partner]      # 2 k_{i'+1}
        if starred:
            # label exchange between blocks B_{k_{i+1}-1} and B_{k_{i'+1}-2}
            out.put(k_end[s.partner] - 2, ke_p - 3, -ke_p + 3)
            out.put(k_end[s.index] - 1, ke - 1, -ke + 3)
        else:
            out.put(k_end[s.partner] - 2, ke - 1, -ke + 3)
            out.put(k_end[s.index] - 1, ke_p - 3, -ke_p + 3)
        out.put(k_end[s.index] - 2, ke - 3, -ke + 1)

    # penultimate block of long type-A segments
    for s in segs:
        if s.kind == TYPE_A and s.length > 3:
            sign = -1 if s.b % 2 else 1
            ke = 2 * k_end[s.index]
            out.put(k_end[s.index] - 2, sign * (ke - 5), sign * (-ke + 7))

    # last block of type-A segments and of type-B segments with odd b
    for s in segs:
        if s.kind == TYPE_A or s.b % 2:
            ke = 2 * k_end[s.index]
            out.put(k_end[s.index] - 1, ke - 1, -ke + 1)

    return out.finish()


def construct_labeling(seq: QWSequence) -> CenteredLabeling:
    """The distance magic labeling; weight 0 at every vertex."""
    return _assign(seq, starred=False)


def construct_tilde_labeling(seq: QWSequence) -> CenteredLabeling:
    """Variant with the paired type-B label exchange applied.

    Same label multiset as construct_labeling (so the bijectivity argument
    transfers), and each per-segment subgraph receives exactly the labels
    with absolute value in (2 k_i, 2 k_{i+1}).  Not itself distance magic in
    general.
    """
    return _assign(seq, starred=True)


def block_label_pattern(seq: QWSequence, lab: CenteredLabeling) -> bool:
    """Check the block-label shape of the constructed labeling: every block
    label is 0 or +-2, with the per-segment case analysis.

    Only meaningful for construct_labeling output.
    """
    p = plan(seq)
    bl = block_labels(seq, lab)
    for s in p.segments:
        sign = -1 if s.b % 2 else 1
        k_next = p.segments[s.index].start if s.index < len(p.segments) else p.m
        if bl[s.start] != -2 * sign:
            return False
        if bl[s.start + 1] != 2 * sign:
            return False
        for j in range(2, s.length - 2):
            expect = 0 if j % 2 == 0 else (2 * sign if j % 4 == 1 else -2 * sign)
            if bl[s.start + j] != expect:
                return False
        if s.length > 3:
            expect = 2 * sign if s.kind == TYPE_A else -2 * sign
            if bl[k_next - 2] != expect:
                return False
        if bl[k_next - 1] != 0:
            return False
    return True
