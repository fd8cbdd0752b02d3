"""Periods and competition structure of Boolean Toeplitz matrices.

The exact index and period of the powers of T_n<S;T> and of the competition
sequence A^m (A^T)^m, the walk-ensured property, certified by sufficient
rules where they apply and decided exactly otherwise, and sweeps that check
every formula against brute force on small instances.  The top level exports
the twelve names the README uses; the rest is imported from its submodule.
"""

from .boolmat import BoolMatrix, PowerSequence, from_toeplitz
from .engine import (
    TheoremViolationError,
    analyze,
    competition_analysis,
    decide_walk_ensured_exact,
    sink_source_same_period,
    superset_same_period,
)
from .toeplitz import ToeplitzSpec, certify_walk_ensured
from .walksets import walksets_at

__version__ = "0.1.0"
