"""Exception hierarchy shared by all dmlab modules.

Everything user-facing derives from DmlabError so the CLI can map any
expected failure to exit code 2 without enumerating types.
"""


class DmlabError(Exception):
    """Base class for all expected dmlab failures."""


class Graph6Error(DmlabError, ValueError):
    """Malformed or unsupported graph6 input/output."""


class OrderTooLargeError(DmlabError, ValueError):
    """Graph order exceeds a documented desk-scale guarantee."""


class InvalidSequenceError(DmlabError, ValueError):
    """Bit sequence violates the quasi-wreath construction rules."""


class NotDistanceMagicError(DmlabError, ValueError):
    """A labeling was requested for a sequence classified not distance magic."""


class OrderMismatchError(DmlabError, ValueError):
    """Labeling order differs from graph order."""


class NotEvenRegularError(DmlabError, ValueError):
    """Operation requires a regular graph of even valency."""


class OddOrderError(DmlabError, ValueError):
    """Centered labelings need an even number of vertices."""


class EnumerationError(DmlabError, ValueError):
    """Infeasible or out-of-range enumeration request."""


class ExpansionError(DmlabError, ValueError):
    """4-cycle expansion preconditions violated."""


class InvariantError(DmlabError, RuntimeError):
    """An internal consistency check failed: a bug in dmlab, not bad input."""
