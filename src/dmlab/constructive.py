"""Closed-form distance magic labeling of quasi wreath graphs.

Implements the explicit block-by-block labeling that proves the sufficient
half of the classification: any sequence whose segments are all of type A
(length = 3 mod 4) or type B (length = 1 mod 4), with an even number of
type-B segments, gets a labeling with every vertex weight 0.  ``plan`` is
the classifier's guard in front of ``qw.segments``, which carry the pairing.

Blocks are written exactly once each; a second write raises InvariantError,
so a mis-scoped index range fails loudly instead of silently overwriting.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .errors import InvariantError, NotDistanceMagicError
from .labeling import CenteredLabeling, block_labels
from .qw import TYPE_A, QWSequence, Segment, classify, segments


def plan(seq: QWSequence) -> Tuple[Segment, ...]:
    """The segments of seq, whose ``b`` and ``partner`` the labeling is written
    from; NotDistanceMagicError with the classifier's reason if seq is not DM."""
    verdict = classify(seq)
    if not verdict.distance_magic:
        raise NotDistanceMagicError(verdict.reason)
    return tuple(segments(seq))


class _BlockWriter:
    def __init__(self, m: int):
        self.m = m
        self.labels: List[Optional[int]] = [None] * (2 * m)  # x_0..x_{m-1}, y_0..y_{m-1}

    def put(self, block: int, x_label: int, y_label: int):
        block %= self.m
        if self.labels[block] is not None:
            raise InvariantError(f"block {block} written twice")
        self.labels[block] = x_label
        self.labels[self.m + block] = y_label

    def finish(self) -> CenteredLabeling:
        if None in self.labels:
            raise InvariantError("some block was never labeled")
        return CenteredLabeling(2 * self.m, tuple(self.labels))


# (alpha - 2j, beta - 2j) for interior block k_i + j, 2 <= j <= length - 3, by j mod 4
_INTERIOR_OFFSETS = ((3, 3), (-1, -3), (1, 1), (1, 3))


def _assign(seq: QWSequence, starred: bool) -> CenteredLabeling:
    """Write each segment's blocks in one pass: its first two blocks, its
    interior blocks, then its last two.

    A type-B segment i with even b also writes the penultimate block of its
    partner i', which then writes only its own last block.
    """
    segs = plan(seq)
    out = _BlockWriter(seq.m)
    for s in segs:
        sign = -1 if s.b % 2 else 1
        ki = s.start
        off = 2 * ki
        out.put(ki, sign * (off + 1), sign * (-off - 3))
        out.put(ki + 1, sign * (off + 3), sign * (-off - 1))
        for j in range(2, s.length - 2):  # 2 <= j <= length - 3
            alpha, beta = _INTERIOR_OFFSETS[j % 4]
            out.put(ki + j, sign * (off + 2 * j + alpha), sign * (-off - 2 * j - beta))
        ke = 2 * s.end  # 2 k_{i+1}
        if s.partner is not None:
            p_end = segs[s.partner - 1].end
            ke_p = 2 * p_end  # 2 k_{i'+1}
            at_partner, at_own = (ke - 1, -ke + 3), (ke_p - 3, -ke_p + 3)
            if starred:
                # label exchange between blocks B_{k_{i+1}-1} and B_{k_{i'+1}-2}
                at_partner, at_own = at_own, at_partner
            out.put(p_end - 2, *at_partner)
            out.put(s.end - 1, *at_own)
            out.put(s.end - 2, ke - 3, -ke + 1)
            continue
        if s.kind == TYPE_A and s.length > 3:
            out.put(s.end - 2, sign * (ke - 5), sign * (-ke + 7))
        out.put(s.end - 1, ke - 1, -ke + 1)
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
    bl = block_labels(seq, lab)
    for s in plan(seq):
        sign = -1 if s.b % 2 else 1
        want = [-2 * sign, 2 * sign]
        for j in range(2, s.length - 2):
            want.append(0 if j % 2 == 0 else (2 * sign if j % 4 == 1 else -2 * sign))
        if s.length > 3:
            want.append(2 * sign if s.kind == TYPE_A else -2 * sign)
        want.append(0)
        if list(bl[s.start:s.end]) != want:
            return False
    return True
