"""Periods and competition structure of Boolean Toeplitz matrices.

A Toeplitz descriptor T_n<S;T> fixes a 0/1 matrix whose powers, like
those of every Boolean matrix, are eventually periodic.  This package
computes the exact index and period of that sequence and of the
competition sequence A^m (A^T)^m, decides the walk-ensured property
(congruence-allowed displacements are all eventually realized by
walks), certifies it through cheap sufficient rules where possible,
and cross-validates every formula it uses against brute force on
small instances.
"""

from .boolmat import (
    BoolMatrix,
    CapExceededError,
    PowerSequence,
    default_power_cap,
    from_toeplitz,
)
from .digraph import (
    Digraph,
    contract,
    cycle_decomposition,
    has_source_or_sink,
    to_dot,
    walk_exists,
)
from .engine import (
    CompetitionResult,
    PeriodReport,
    TheoremViolationError,
    analyze,
    competition_analysis,
    decide_walk_ensured_exact,
    limits_match,
    matrix_period,
    period_via_theorem,
    predicted_limit,
    sink_source_same_period,
    superset_same_period,
)
from .oracle import (
    ALL_CHECK_NAMES,
    Finding,
    SweepConfig,
    enumerate_specs,
    render_report,
    run_sweep,
)
from .toeplitz import (
    Certificate,
    GcdProfile,
    Rule,
    SpecFormatError,
    ToeplitzSpec,
    Verdict,
    certify_walk_ensured,
    check_coprime_pair,
    check_main1,
    check_star,
    extension_chain,
    gcd_after_extension,
    gcd_profile,
    tail_extension_applicable,
)
from .walksets import (
    WalkSets,
    p_set,
    q_sequence,
    q_set,
    r_set,
    walksets_at,
    window,
)

__version__ = "0.1.0"
