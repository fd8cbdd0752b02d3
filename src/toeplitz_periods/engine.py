"""Period and competition analysis of Boolean Toeplitz matrices.

Ground truth throughout is direct iteration of a fixed map: the powers
A^m are the orbit of X -> X A and the competition sequence
B_m = A^m (A^T)^m is the orbit of X -> A X A^T, so for both the first
repeat found by ``PowerSequence`` pins down the least transient (index)
and least period.  On top of that sit the congruence-class limit B
converges to in the walk-ensured case, an exact decision procedure for
the walk-ensured property, and appliers for the structural rules that
transfer a known period to larger matrices.  ``analyze`` is the one
path that assembles all of it into a ``PeriodReport``; the rules are
tried first and the exact decision settles what they leave open.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional

from .boolmat import (
    BoolMatrix,
    PowerSequence,
    _powers_of,
    _right_multiplier,
    from_toeplitz,
)
from .digraph import Digraph, contract, has_source_or_sink
from .toeplitz import (
    Certificate,
    GcdProfile,
    Rule,
    ToeplitzSpec,
    Verdict,
    certify_walk_ensured,
    gcd_profile,
)
from .walksets import p_set, r_set

class TheoremViolationError(RuntimeError):
    """A rule application contradicted the brute-force ground truth."""


def matrix_period(
    a: BoolMatrix, max_power: Optional[int] = None
) -> tuple[int, int]:
    """(index, period): least M and p with A^m = A^(m+p) for all m >= M.

    Found by scanning A^1, A^2, ... with a first-occurrence map; the
    scan is capped (order-dependent default) and overrunning the cap
    raises rather than returning something unverified.
    """
    return PowerSequence(a).cycle(max_power)


@dataclass(frozen=True)
class CompetitionResult:
    """Transient and period of B_m = A^m (A^T)^m, plus its limit.

    limit is the eventual constant value of the sequence when the
    period is 1 and None otherwise.
    """

    index: int
    period: int
    limit: Optional[BoolMatrix]


def competition_analysis(
    a: BoolMatrix,
    max_power: Optional[int] = None,
    *,
    powers: Optional[PowerSequence] = None,
) -> CompetitionResult:
    """Least q and p with B_m = B_(m+p) for all m >= q, B_m = A^m (A^T)^m.

    B_(m+1) = A B_m A^T, so B is the orbit of a fixed map and its first
    repeat gives q and p.  B_m is a function of A^m, so that orbit
    closes no later than step index + period of A's power cycle, which
    bounds the scan.  The limit is B_q when p is 1.
    """
    powers = _powers_of(a, powers)
    al, pl = powers.cycle(max_power)
    at = a.transpose()
    right = _right_multiplier(at)
    orbit = PowerSequence(a @ at, lambda x: right(a @ x))
    index, period = orbit.cycle(al + pl)
    limit = orbit.power(index) if period == 1 else None
    return CompetitionResult(index=index, period=period, limit=limit)


def predicted_limit(spec: ToeplitzSpec) -> Optional[BoolMatrix]:
    """Congruence-class matrix: (x, y) = 1 iff x = y mod d+, diagonal included.

    This is the claimed competition limit only while d+ <= n; beyond
    that no limit shape is claimed and None is returned.
    """
    prof = gcd_profile(spec)
    if prof.d_plus > spec.n:
        return None
    n = spec.n
    rows = []
    for i in range(1, n + 1):
        r = 0
        for j in range(1, n + 1):
            if (j - i) % prof.d_plus == 0:
                r |= 1 << (j - 1)
        rows.append(r)
    return BoolMatrix(rows)


def decide_walk_ensured_exact(
    spec: ToeplitzSpec,
    max_power: Optional[int] = None,
    *,
    powers: Optional[PowerSequence] = None,
) -> tuple[bool, Optional[int]]:
    """Decide the walk-ensured property; on True also return a threshold M.

    Congruence sets repeat in the length with period d+/d, realized
    sets with period pl from al on; agreement on every length in
    [al, al + lcm(pl, d+/d)) is therefore equivalent to agreement on
    all lengths from al on, and al itself serves as the threshold
    witness.  powers, when given, must be the power sequence of spec's
    matrix (ValueError otherwise).
    """
    prof = gcd_profile(spec)
    powers = _powers_of(from_toeplitz(spec), powers)
    al, pl = powers.cycle(max_power)
    span = lcm(pl, prof.d_plus // prof.d)
    for i in range(al, al + span):
        if p_set(spec, i) != r_set(powers.power(i)):
            return False, None
    return True, al


def _settled_certificate(
    spec: ToeplitzSpec, max_power: Optional[int], powers: Optional[PowerSequence]
) -> Certificate:
    """The first sufficient rule that applies, else the exact decision; never UNKNOWN."""
    cert = certify_walk_ensured(spec)
    if cert.verdict is not Verdict.UNKNOWN:
        return cert
    ok, threshold = decide_walk_ensured_exact(spec, max_power, powers=powers)
    if ok:
        return Certificate(Verdict.PROVEN_BY_EXACT_DECISION, Rule.EXACT_DECISION, threshold)
    return Certificate(Verdict.NOT_WALK_ENSURED, Rule.EXACT_DECISION)


def period_via_theorem(
    spec: ToeplitzSpec, max_power: Optional[int] = None
) -> Optional[tuple[int, Certificate]]:
    """Period d+/d with a certificate, for walk-ensured descriptors.

    Sufficient rules are tried first; if they abstain the exact
    decision settles it.  None when the descriptor is not walk-ensured
    (the formula is not claimed there).
    """
    cert = _settled_certificate(spec, max_power, None)
    if not cert.walk_ensured:
        return None
    prof = gcd_profile(spec)
    return prof.d_plus // prof.d, cert


def superset_same_period(
    spec: ToeplitzSpec,
    spec_star: ToeplitzSpec,
    max_power: Optional[int] = None,
) -> Optional[int]:
    """Transfer the period to an offset superset with the same gcd(S + T).

    Requires the base walk-ensured and S <= S*, T <= T* at equal order;
    returns d+/d (the shared period) when gcd(S + T) is preserved,
    None when it is not (no claim then).
    """
    if spec_star.n != spec.n:
        raise ValueError("order mismatch")
    if not (set(spec.S) <= set(spec_star.S) and set(spec.T) <= set(spec_star.T)):
        raise ValueError("offset sets do not extend the base")
    claim = period_via_theorem(spec, max_power)
    if claim is None:
        raise ValueError(f"{spec} is not walk-ensured")
    if gcd_profile(spec_star).d_plus != gcd_profile(spec).d_plus:
        return None
    return claim[0]


def sink_source_same_period(
    spec: ToeplitzSpec,
    b: BoolMatrix,
    max_power: Optional[int] = None,
) -> Optional[int]:
    """Period transfer to any entrywise-larger matrix via the added arcs.

    The arcs of b missing from the base matrix are contracted modulo
    d = gcd(S u T); a source or sink there guarantees b keeps the base
    period.  The conclusion is verified against direct iteration on b
    and a mismatch raises TheoremViolationError.  None when the
    contraction has neither source nor sink (no claim).
    """
    a = from_toeplitz(spec)
    if b.n != a.n:
        raise ValueError("order mismatch")
    if not a.dominated_by(b):
        raise ValueError("base matrix is not dominated by the extension")
    if period_via_theorem(spec, max_power) is None:
        raise ValueError(f"{spec} is not walk-ensured")
    prof = gcd_profile(spec)
    added = Digraph(b.and_not(a))
    if not has_source_or_sink(contract(added, prof.d)):
        return None
    _, base_period = matrix_period(a, max_power)
    _, ext_period = matrix_period(b, max_power)
    if ext_period != base_period:
        raise TheoremViolationError(
            f"extension of {spec} changed the period: "
            f"{base_period} -> {ext_period}"
        )
    return ext_period


@dataclass(frozen=True)
class PeriodReport:
    """Everything the analyzer knows about one descriptor.

    limit_matrix is present exactly when the competition period is 1.
    certificate is never UNKNOWN here: when the sufficient rules
    abstain the exact decision fills in a positive or negative verdict.
    """

    spec: ToeplitzSpec
    profile: GcdProfile
    matrix_index: int
    matrix_period: int
    competition_index: int
    competition_period: int
    limit_matrix: Optional[BoolMatrix]
    certificate: Certificate

    @property
    def walk_ensured(self) -> bool:
        return bool(self.certificate.walk_ensured)


def analyze(
    spec: ToeplitzSpec,
    max_power: Optional[int] = None,
    *,
    powers: Optional[PowerSequence] = None,
) -> PeriodReport:
    """Full analysis: period data, competition data, walk-ensured status.

    powers, when given, must be the power sequence of spec's matrix
    (ValueError otherwise); a caller that reads further powers passes
    it so that the cycle is found once.
    """
    a = from_toeplitz(spec)
    powers = _powers_of(a, powers)
    comp = competition_analysis(a, max_power, powers=powers)
    index, period = powers.cycle(max_power)
    return PeriodReport(
        spec=spec,
        profile=gcd_profile(spec),
        matrix_index=index,
        matrix_period=period,
        competition_index=comp.index,
        competition_period=comp.period,
        limit_matrix=comp.limit,
        certificate=_settled_certificate(spec, max_power, powers),
    )
