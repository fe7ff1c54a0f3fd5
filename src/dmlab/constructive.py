"""Closed-form distance magic labeling of quasi wreath graphs.

Implements the explicit block-by-block labeling that proves the sufficient
half of the classification: any sequence whose segments are all of type A
(length = 3 mod 4) or type B (length = 1 mod 4), with an even number of
type-B segments, gets a labeling with every vertex weight 0.  ``plan`` is
the classifier's guard in front of the sequence's segments, which carry the
pairing; both read the one scan the sequence keeps.

Labels are appended in block order, so each block is written exactly once.
The one block a segment fixes ahead of the order, its type-B partner's
penultimate, is held until the partner reaches it; a hold that is missing or
left over, or a label count other than m, raises InvariantError.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .errors import InvariantError, NotDistanceMagicError
from .labeling import CenteredLabeling, block_labels
from .qw import TYPE_A, QWSequence, Segment, classify


def plan(seq: QWSequence) -> Tuple[Segment, ...]:
    """The segments of seq, whose ``b`` and ``partner`` the labeling is written
    from; NotDistanceMagicError with the classifier's reason if seq is not DM."""
    verdict = classify(seq)
    if not verdict.distance_magic:
        raise NotDistanceMagicError(verdict.reason)
    return seq.segments


# (alpha - 2j, beta - 2j) for interior block k_i + j, 2 <= j <= length - 3, by j mod 4
_INTERIOR_OFFSETS = ((3, 3), (-1, -3), (1, 1), (1, 3))


def _assign(seq: QWSequence, starred: bool) -> CenteredLabeling:
    """Append each segment's blocks in block order: its first two blocks, its
    interior blocks, then its last two.

    A type-B segment i with even b also fixes the penultimate block of its
    partner i', which is held until i' reaches it.
    """
    segs = plan(seq)
    xs: List[int] = []  # x_0, x_1, ... in block order
    ys: List[int] = []
    held: Dict[int, Tuple[int, int]] = {}  # block -> labels fixed by its partner
    for _, start, length, kind, b, partner in segs:
        end = start + length
        sign = -1 if b % 2 else 1
        off = 2 * start
        xs += (sign * (off + 1), sign * (off + 3))
        ys += (sign * (-off - 3), sign * (-off - 1))
        for j in range(2, length - 2):  # 2 <= j <= length - 3
            alpha, beta = _INTERIOR_OFFSETS[j % 4]
            xs.append(sign * (off + 2 * j + alpha))
            ys.append(sign * (-off - 2 * j - beta))
        ke = 2 * end  # 2 k_{i+1}
        last = (ke - 1, -ke + 1)
        if partner is not None:
            p_end = segs[partner - 1].end
            ke_p = 2 * p_end  # 2 k_{i'+1}
            at_partner, last = (ke - 1, -ke + 3), (ke_p - 3, -ke_p + 3)
            if starred:
                # label exchange between blocks B_{k_{i+1}-1} and B_{k_{i'+1}-2}
                at_partner, last = last, at_partner
            held[p_end - 2] = at_partner
            penultimate = (ke - 3, -ke + 1)
        elif kind == TYPE_A:
            if length == 3:  # the first two blocks were all but the last
                xs.append(last[0])
                ys.append(last[1])
                continue
            penultimate = (sign * (ke - 5), sign * (-ke + 7))
        else:  # the second of a type-B pair
            penultimate = held.pop(end - 2, None)
            if penultimate is None:
                raise InvariantError(f"block {end - 2} was not fixed by a type-B partner")
        xs += (penultimate[0], last[0])
        ys += (penultimate[1], last[1])
    if held:
        raise InvariantError(f"blocks {sorted(held)} were fixed but never reached")
    if len(xs) != seq.m:
        raise InvariantError(f"{len(xs)} blocks labeled for m = {seq.m}")
    xs += ys
    return CenteredLabeling(2 * seq.m, tuple(xs))


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
