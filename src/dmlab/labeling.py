"""Labeling data model and verification.

The centered scheme (labels {1-n, 3-n, ..., n-1}, target weight 0) is the
internal canonical representation; the standard 1..n scheme exists at I/O
boundaries only.  Conversion: standard = (centered + n + 1) / 2.  Each class
names its scheme, and SCHEMES, read by both JSON functions, maps it back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress, count
from operator import add
from typing import Tuple

from .errors import DmlabError, OddOrderError, OrderMismatchError
from .graph import Graph
from .qw import QWSequence

SCHEMA = "dmlab/1"


def centered_label_set(n: int) -> range:
    """N = {1-n, 3-n, ..., n-1}; requires n even so labels are odd integers."""
    if n % 2:
        raise OddOrderError(f"centered label set needs even order, got {n}")
    return range(1 - n, n, 2)


@dataclass(frozen=True)
class _Labeling:
    order: int
    labels: Tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != self.order:
            raise OrderMismatchError(f"{len(self.labels)} labels for order {self.order}")


@dataclass(frozen=True)
class CenteredLabeling(_Labeling):
    """Vertex-indexed labels intended to be a bijection onto {1-n, 3-n, ..., n-1}.

    The bijection is not enforced at construction so that broken labelings can
    be fed to verify() and reported.  An odd order is representable (the labels
    are then even), so a standard labeling of any order converts and verifies.
    """

    scheme = "centered"

    def is_bijection(self) -> bool:
        # len(labels) == order, so covering the order distinct targets is a bijection
        return set(self.labels).issuperset(range(1 - self.order, self.order, 2))


@dataclass(frozen=True)
class StandardLabeling(_Labeling):
    """Vertex-indexed permutation of {1, ..., order}."""

    scheme = "standard"


@dataclass(frozen=True)
class VerificationReport:
    """Per-vertex weights plus the overall distance magic verdict."""

    weights: Tuple[int, ...]
    bijective: bool
    ok: bool
    first_violation: int | None  # vertex whose weight misses the target, if any


def verify(g: Graph, lab: CenteredLabeling) -> VerificationReport:
    """Distance magic check in the centered scheme (target weight 0).

    One pass over the neighbour tuples, for a graph of any degrees, sums each
    vertex's neighbour labels.  All weights are computed even after a
    violation, for diagnostics.
    """
    if lab.order != g.n:
        raise OrderMismatchError(f"labeling order {lab.order} != graph order {g.n}")
    labels = lab.labels
    weights = []
    for nb in g.neighbors:
        w = 0
        for u in nb:
            w += labels[u]
        weights.append(w)
    bijective = lab.is_bijection()
    first = next(compress(count(), weights), None)  # the first vertex of nonzero weight
    return VerificationReport(tuple(weights), bijective, bijective and first is None, first)


def to_standard(lab: CenteredLabeling) -> StandardLabeling:
    n = lab.order
    for v, x in enumerate(lab.labels):
        if (x + n) % 2 == 0:  # (x + n + 1) / 2 is no integer; rounding would change the label
            raise DmlabError(f"centered label {x} at vertex {v} has the parity of order {n}")
    return StandardLabeling(n, tuple((x + n + 1) // 2 for x in lab.labels))


def from_standard(lab: StandardLabeling) -> CenteredLabeling:
    n = lab.order
    return CenteredLabeling(n, tuple(2 * x - 1 - n for x in lab.labels))


def wreath_labeling(k: int) -> CenteredLabeling:
    """Distance magic labeling of W(k): pair (u_i, v_i) gets +-(2k - 2i - 1)."""
    if k < 3:
        raise DmlabError(f"wreath parameter must be >= 3, got {k}")
    labels = [0] * (2 * k)
    for i in range(k):
        labels[i] = 2 * k - 2 * i - 1
        labels[k + i] = -(2 * k - 2 * i - 1)
    return CenteredLabeling(2 * k, tuple(labels))


def block_labels(seq: QWSequence, lab: CenteredLabeling) -> Tuple[int, ...]:
    """Block label of B_i is l(x_i) + l(y_i)."""
    m = seq.m
    if lab.order != 2 * m:
        raise OrderMismatchError(f"labeling order {lab.order} != 2m = {2 * m}")
    return tuple(map(add, lab.labels[:m], lab.labels[m:]))


def check_block_recurrence(seq: QWSequence, bl: Tuple[int, ...]) -> bool:
    """Block-label recurrence every distance magic labeling must satisfy:

        s_i = s_{i+1} = 1:  l_{i+2} = -l_i
        s_i = 0, s_{i+1}=1: l_{i+2} = -(l_i + l_{i+1}) / 2
        s_i = 1, s_{i+1}=0: l_{i+2} = -2 l_i - l_{i+1}
    """
    m = seq.m
    if len(bl) != m:
        raise OrderMismatchError(f"{len(bl)} block labels for m = {m}")
    bits = seq.bits
    rows = zip(bits, bits[1:] + bits[:1], bl, bl[1:] + bl[:1], bl[2:] + bl[:2])
    for si, sj, li, lj, nxt in rows:  # s_i, s_{i+1}, l_i, l_{i+1}, l_{i+2}, indices mod m
        if si == 1 and sj == 1:
            if nxt != -li:
                return False
        elif si == 0 and sj == 1:
            if 2 * nxt != -(li + lj):
                return False
        else:  # si == 1, sj == 0; (0,0) is excluded by sequence validation
            if nxt != -2 * li - lj:
                return False
    return True


# ---------------------------------------------------------------------------
# JSON interchange: {"schema": "dmlab/1", "order": n, "scheme": ..., "labels": [...]}
# ---------------------------------------------------------------------------

SCHEMES = {cls.scheme: cls for cls in (CenteredLabeling, StandardLabeling)}


def labeling_to_json(lab) -> str:
    if not isinstance(lab, SCHEMES.get(getattr(lab, "scheme", None), ())):
        raise TypeError(f"not a labeling: {lab!r}")
    return json.dumps(
        {"schema": SCHEMA, "order": lab.order, "scheme": lab.scheme, "labels": lab.labels}
    )


def labeling_from_json(text: str):
    """Parse a labeling document; order and labels must be JSON integers."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DmlabError(f"malformed labeling JSON: {exc}") from None
    try:
        schema = doc["schema"]
        (order,) = _exact_ints((doc["order"],))
        scheme = doc["scheme"]
        labels = _exact_ints(doc["labels"])
    except (KeyError, TypeError) as exc:
        raise DmlabError(f"bad labeling document: {exc}") from None
    if schema != SCHEMA:
        raise DmlabError(f"unsupported labeling schema {schema!r}, expected {SCHEMA!r}")
    cls = SCHEMES.get(scheme) if isinstance(scheme, str) else None  # a list would not hash
    if cls is None:
        raise DmlabError(f"unknown labeling scheme {scheme!r}")
    return cls(order, labels)


def _exact_ints(values) -> Tuple[int, ...]:
    """values as a tuple, if every one is an exact int, checked in one pass over their types."""
    values = tuple(values)
    # bool is an int subclass, and floats such as 1.9 or Infinity must not round
    if not set(map(type, values)) <= {int}:
        bad = next(x for x in values if type(x) is not int)
        raise DmlabError(f"bad labeling document: {bad!r} is not an integer")
    return values
