"""Periods and competition structure of Boolean Toeplitz matrices.

A Toeplitz descriptor T_n<S;T> fixes a 0/1 matrix whose powers, like
those of every Boolean matrix, are eventually periodic.  This package
computes the exact index and period of that sequence and of the
competition sequence A^m (A^T)^m, decides the walk-ensured property
(congruence-allowed displacements are all eventually realized by
walks), certifies it through cheap sufficient rules where possible,
and cross-validates every formula it uses against brute force on
small instances.

The top level exports the thirteen names the README uses; everything
else is imported from its submodule.
"""

from .boolmat import BoolMatrix, CapExceededError, PowerSequence, from_toeplitz
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
