"""dmlab: distance magic labelings of tetravalent quasi wreath graphs.

Builders and classifier for quasi wreath graphs, the closed-form labeling,
weight verification, an exact-rational eigenvector filter, a complete
backtracking search oracle, small-order regular graph enumeration, and the
4-cycle expansion producing new distance magic graphs.
"""

from .constructive import (
    block_label_pattern,
    construct_labeling,
    construct_tilde_labeling,
    plan,
)
from .enumerator import EnumerationTask, census_pipeline, enumerate_regular
from .errors import DmlabError
from .graph import (
    Graph,
    canonical_certificate,
    is_connected,
    is_regular,
    parse_graph6,
    write_graph6,
)
from .kfk import ZeroAntipodal4Cycle, expand, expand_default, find_zero_antipodal_cycles
from .labeling import (
    CenteredLabeling,
    StandardLabeling,
    VerificationReport,
    block_labels,
    centered_label_set,
    check_block_recurrence,
    from_standard,
    to_standard,
    verify,
    wreath_labeling,
)
from .qw import (
    QWSequence,
    Segment,
    build_qw,
    build_wreath,
    classify,
    parse_profile,
    profile_to_sequence,
    segments,
    sequence_to_profile,
    validate_sequence,
)
from .search import SearchOptions, SearchOutcome, decide_profile, find_labeling
from .spectral import NullspaceBasis, corollary_filter, nullspace_basis

__version__ = "0.1.0"
