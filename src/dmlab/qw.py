"""Quasi wreath graphs: bit sequences, segment profiles, builders, and the
distance-magic classifier.

A quasi wreath graph QW(S) of order 2m lives on two m-cycles (x_0..x_{m-1}
and y_0..y_{m-1}); position i carries a "rung" pair of edges when s_i = 0 and
a "crossing" pair when s_i = 1.  Vertex convention everywhere: x_i -> i,
y_i -> m + i.

One scan of the bits per sequence gives its segments with their type-B
pairing, kept by the sequence; the profile, the classifier and the
constructive labeling all read them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import InvalidSequenceError
from .graph import Graph

TYPE_A = "A"          # segment length = 3 (mod 4)
TYPE_B = "B"          # segment length = 1 (mod 4)
TYPE_OTHER = "OTHER"  # even length; never distance magic


@dataclass(frozen=True)
class QWSequence:
    """Validated bit sequence of the quasi wreath construction."""

    bits: Tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.bits)

    @cached_property
    def segments(self) -> Tuple[Segment, ...]:
        """The segments in order, scanned from the bits once and kept with the
        sequence; equality, hash and repr read the bits only."""
        return _scan(self.bits)


def validate_sequence(bits: Sequence[int]) -> QWSequence:
    """Check the construction rules: s_0 = 0, s_{m-1} = 1, no two consecutive zeros."""
    bits = tuple(bits)
    m = len(bits)
    if m < 3:
        raise InvalidSequenceError(f"sequence length must be >= 3, got {m}")
    # exact ints only: bool is an int subclass, and floats such as 1.9 must not round
    if not set(map(type, bits)) <= {int} or not set(bits) <= {0, 1}:
        raise InvalidSequenceError("sequence entries must be 0 or 1")
    if bits[0] != 0:
        raise InvalidSequenceError("s_0 must be 0")
    if bits[-1] != 1:
        raise InvalidSequenceError("s_{m-1} must be 1")
    i = bytes(bits).find(b"\0\0")
    if i >= 0:
        raise InvalidSequenceError(f"consecutive zeros at positions {i}, {i + 1}")
    return QWSequence(bits)


def parse_profile(text: str) -> Tuple[int, ...]:
    """Parse the CLI profile syntax, e.g. "11,3,5,3,7,5,3"."""
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InvalidSequenceError(f"malformed profile {text!r}") from None
    return parts


def profile_to_sequence(parts: Sequence[int]) -> QWSequence:
    """(a_1,...,a_r) -> [0,1,...,1, 0,1,...,1, ...] with a_k - 1 ones per run."""
    parts = tuple(parts)
    if not parts:
        raise InvalidSequenceError("profile needs at least one part")
    for a in parts:
        if type(a) is not int or a < 2:
            raise InvalidSequenceError(f"profile parts must be integers >= 2, got {a!r}")
    bits: List[int] = []
    for a in parts:
        bits.append(0)
        bits.extend([1] * (a - 1))
    return validate_sequence(bits)


def sequence_to_profile(seq: QWSequence) -> Tuple[int, ...]:
    """Run lengths between consecutive zero bits (inverse of profile_to_sequence)."""
    return tuple(s.length for s in seq.segments)


def segment_type(length: int) -> str:
    if length % 4 == 3:
        return TYPE_A
    if length % 4 == 1:
        return TYPE_B
    return TYPE_OTHER


class Segment(NamedTuple):
    """Maximal run of blocks between consecutive zero bits.

    Segment i (1-based) starts at the zero bit k_i and covers blocks
    B_{k_i+1} .. B_{k_i+length}.  Its ``end`` is k_{i+1}, the next zero bit,
    with k_{t+1} = m after the last of the t segments.

    ``b`` and ``partner`` are the theorem's type-B pairing: in order, the
    type-B segments pair up (1st-2nd, 3rd-4th, ...) exactly when their count
    is even, and the constructive labeling writes each pair together.
    """

    index: int     # 1-based
    start: int     # k_i, position of the zero bit
    length: int
    kind: str      # TYPE_A / TYPE_B / TYPE_OTHER
    b: int                  # number of type-B segments before this one
    partner: Optional[int]  # for type-B with b even: index of the next type-B segment

    @property
    def end(self) -> int:
        return self.start + self.length


def segments(seq: QWSequence) -> List[Segment]:
    """The segments of seq in order, with their type-B pairing, as a new list."""
    return list(seq.segments)


def _scan(bits: Tuple[int, ...]) -> Tuple[Segment, ...]:
    """One scan of the bits: each segment is a zero bit and the run of ones after it."""
    lengths = [len(run) + 1 for run in bytes(bits).split(b"\0")[1:]]
    kinds = [segment_type(a) for a in lengths]
    type_b = [i for i, kind in enumerate(kinds, 1) if kind == TYPE_B]  # 1-based indices
    partner = dict(zip(type_b[::2], type_b[1::2]))
    starts = itertools.accumulate(lengths, initial=0)
    before = itertools.accumulate((kind == TYPE_B for kind in kinds), initial=0)
    return tuple(
        Segment(i, k, a, kind, b, partner.get(i))
        for i, (a, kind, k, b) in enumerate(zip(lengths, kinds, starts, before), 1)
    )


@dataclass(frozen=True)
class Classification:
    distance_magic: bool
    reason: str | None = None


def classify(seq: QWSequence) -> Classification:
    """Distance magic iff every segment length is odd and the number of
    segments of length = 1 (mod 4) is even."""
    lengths = [s.length for s in seq.segments]
    even = ", ".join(f"segment {i} (length {a})" for i, a in enumerate(lengths, 1) if a % 2 == 0)
    if even:
        return Classification(False, f"segments of even length: {even}")
    b_count = sum(a % 4 == 1 for a in lengths)
    if b_count % 2:
        return Classification(
            False, f"odd number of type-B segments (length = 1 mod 4): {b_count}"
        )
    return Classification(True)


def build_qw(seq: QWSequence) -> Graph:
    """Order-2m graph of the construction: cycle edges on both rows, plus a
    rung pair {x_i,y_i},{x_{i+1},y_{i+1}} when s_i = 0 and a crossing pair
    {x_i,y_{i+1}},{x_{i+1},y_i} when s_i = 1 (indices mod m)."""
    return Graph._from_neighbors(_neighbor_rows(seq.bits))


def build_wreath(k: int) -> Graph:
    """Wreath graph W(k): N(u_i) = N(v_i) = {u_{i+-1}, v_{i+-1}}.

    u_i -> i, v_i -> k + i.  These are the construction's rules with every
    s_i = 1.
    """
    if k < 3:
        raise InvalidSequenceError(f"wreath parameter must be >= 3, got {k}")
    return Graph._from_neighbors(_neighbor_rows((1,) * k))


def _neighbor_rows(bits: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """Sorted neighbour tuples of the construction on bits (length m >= 3, no
    two cyclically consecutive zeros).

    x_i is joined to x_{i-1}, x_{i+1}, to y_i or y_{i-1} by s_{i-1} and to y_i
    or y_{i+1} by s_i; y_i likewise with the rows swapped.  Every tuple is in
    ascending order except at i = 0 and i = m-1, where the cycles wrap.
    When s_{i-1} = s_i = 1, x_i and y_i are twins and share one tuple.
    """
    m = len(bits)
    # xs[i + 1] is x_i and ys[i + 1] is y_i, with one wrapped entry at each
    # end; every tuple holds these int objects, one per vertex
    xs, ys = list(range(-1, m + 1)), list(range(m - 1, 2 * m + 1))
    xs[0], xs[-1], ys[0], ys[-1] = xs[m], xs[1], ys[m], ys[1]
    rows = [None] * (2 * m)
    for i, (r, s) in enumerate(zip(itertools.chain(bits[-1:], bits), bits)):
        lo, hi = i + 1 - r, i + 1 + s  # the partners chosen by s_{i-1} and s_i
        rows[i] = row = (xs[i], xs[i + 2], ys[lo], ys[hi])
        rows[m + i] = row if r and s else (xs[lo], xs[hi], ys[i], ys[i + 2])
    for v in (0, m - 1, m, 2 * m - 1):
        rows[v] = tuple(sorted(rows[v]))
    return tuple(rows)
