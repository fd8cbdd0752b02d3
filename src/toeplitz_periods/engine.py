"""Period and competition analysis of Boolean Toeplitz matrices.

Index and period are found by lifting over the binary powers A^(2^k),
never by stepping through the powers:

* the period p is the lcm of the cyclicities of A's strong components
  (``digraph.power_period``), checked least at the index M;
* a test on A^m that fails exactly below some m, known to fail at lo
  and to pass at hi, is settled by one descent over (lo, hi], one test
  per bit of hi - lo - 1 from the top (``_Lift.least``);
* A^m = A^(m+p) is such a test, so M, the least m where it holds, is
  found by galloping over A^(2^k) to the bracket (2^(k-1), 2^k] and
  descending: O(log M) products and matrices held.  Heap and Lynn (1964)
  bound M by (n-1)^2 + 1; a larger M raises TheoremViolationError;
* B_m = A^m (A^T)^m steps by X -> A X A^T and B_(M+p) = B_M, so the
  walk from B_M until it returns gives the cycle, of size the period c.
  The map keeps the cycle, so "B_m is on it", the same as B_m = B_(m+c),
  is monotone in m; B_M is on it, so the index q is found by the descent
  over (0, M], at most ceil(log2 M) grams and set lookups.  A gram x x^T
  is all ones without a product when the two lightest rows of x hold
  more than n ones between them (pigeonhole).

Heap-Lynn is the only bound on the search, and it is asserted; the
sweep and the tests hold all this to ``PowerSequence``'s linear scan.
On top sit the congruence-class limit, an exact decision procedure for
the walk-ensured property and the rules that transfer a known period;
``analyze`` assembles a ``PeriodReport``, rules first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, count, islice, repeat, takewhile
from math import lcm
from typing import Callable, Iterator, Optional

from .boolmat import (
    BoolMatrix,
    PowerSequence,
    _check_powers,
    _product,
    from_toeplitz,
)
from .digraph import Digraph, contract, has_source_or_sink, power_period
from .toeplitz import (
    Certificate,
    GcdProfile,
    Rule,
    ToeplitzSpec,
    Verdict,
    certify_walk_ensured,
    gcd_profile,
)
from .walksets import _comb, _p_mask, _r_mask


class TheoremViolationError(RuntimeError):
    """A rule application contradicted the brute-force ground truth."""


def _power_product(x: BoolMatrix, y: BoolMatrix) -> BoolMatrix:
    """x y for two powers of one matrix.  They commute, so from order 32
    on the sparser goes left, where row selection costs a step per 1."""
    if x.n < 32:
        return _product(x, y)
    x_ones, y_ones = x.count(), y.count()
    return _product(y, x, y_ones) if x_ones > y_ones else _product(x, y, x_ones)


def _gram(x: BoolMatrix) -> BoolMatrix:
    """x x^T: (u, v) = 1 iff rows u and v of x share a column.  Two rows with
    more than n ones between them share one, so when the two lightest rows
    do, every pair does and x x^T is all ones, diagonal included."""
    row_ones = sorted(map(int.bit_count, x.rows))
    if sum(row_ones[:2]) > x.n:
        return BoolMatrix.ones(x.n)
    return _product(x, x.transpose(), sum(row_ones))


class _Lift:
    """Index and period of A's powers by lifting, with A^index and A^(2^k) kept."""

    def __init__(self, a: BoolMatrix):
        self.a, self._squares = a, [a]
        self.period = p = power_period(Digraph(a))
        a_p = self.power(p)
        bound = (a.n - 1) ** 2 + 1  # Heap and Lynn (1964): the index is at most this
        test = lambda y: True if _power_product(y, a_p) == y else None
        failed = TheoremViolationError(f"A^m = A^(m+{p}) holds for no m <= {bound}")
        k = 0  # gallop to the bracket (2^(k-1), 2^k] of the index
        while (value := test(self.square(k))) is None:
            if 1 << k >= bound:
                raise failed
            k += 1
        lo = (1 << (k - 1), self.square(k - 1)) if k else (0, None)
        self.index, x, _ = self.least(test, lo, (1 << k, self.square(k), value))
        if self.index > bound:
            raise failed
        if any(p % e == 0 and _power_product(x, self.power(e)) == x for e in range(1, p)):
            raise TheoremViolationError(f"period {p} of the components is not least")
        self.at_index = x

    def square(self, k: int) -> BoolMatrix:
        """A^(2^k), made once, when first asked for."""
        while len(self._squares) <= k:
            self._squares.append(_power_product(self._squares[-1], self._squares[-1]))
        return self._squares[k]

    def power(self, e: int) -> BoolMatrix:
        """A^e for e >= 1."""
        bits = (k for k in range(e.bit_length()) if e >> k & 1)
        return reduce(_power_product, map(self.square, bits))

    def walk(self) -> Iterator[BoolMatrix]:
        """A^index, A^(index+1), ..., each made when asked for."""
        return accumulate(repeat(self.a), _power_product, initial=self.at_index)

    def least(
        self,
        test: Callable[[BoolMatrix], object],
        lo: tuple[int, Optional[BoolMatrix]],
        hi: tuple[int, BoolMatrix, object],
    ) -> tuple[int, BoolMatrix, object]:
        """(m, A^m, test(A^m)) for the least m in (lo, hi] with test(A^m) not None,
        where test fails exactly below some m, fails at lo = (m, A^m) (A^0 is None)
        and passes at hi = (m, A^m, value).  One test per bit of hi - lo - 1, from
        the top: the failing m goes up by 2^j whenever the test fails there."""
        m, x = lo
        best = hi
        for j in reversed(range((hi[0] - m - 1).bit_length())):
            if m + (1 << j) >= hi[0]:
                continue
            y = self.square(j) if x is None else _power_product(x, self.square(j))
            if (value := test(y)) is None:
                m, x = m + (1 << j), y
            else:
                best = (m + (1 << j), y, value)
        return best

    def competition(self) -> "CompetitionResult":
        """B_m = A^m (A^m)^T; its cycle is B_M, B_(M+1), ... up to the return to B_M."""
        grams = map(_gram, self.walk())
        b_index = next(grams)
        cycle = {b_index, *takewhile(b_index.__ne__, islice(grams, self.period - 1))}
        period = len(cycle)
        on_cycle = lambda x: g if (g := _gram(x)) in cycle else None
        index, _, b = self.least(on_cycle, (0, None), (self.index, self.at_index, b_index))
        return CompetitionResult(index, period, b if period == 1 else None)


def matrix_period(a: BoolMatrix) -> tuple[int, int]:
    """(index, period): least M and p with A^m = A^(m+p) for all m >= M."""
    lift = _Lift(a)
    return lift.index, lift.period


@dataclass(frozen=True)
class CompetitionResult:
    """Transient and period of B_m = A^m (A^T)^m; limit is B_index when the period is 1."""

    index: int
    period: int
    limit: Optional[BoolMatrix]


def competition_analysis(
    a: BoolMatrix,
    max_power: Optional[int] = None,
    *,
    powers: Optional[PowerSequence] = None,
) -> CompetitionResult:
    """Least q and c with B_m = B_(m+c) for all m >= q, B_m = A^m (A^T)^m.

    The limit is B_q when c is 1.  powers, when given, must be the power
    sequence of a (ValueError otherwise); it is not read.  max_power is
    accepted and not read, because perfbench/tracing.py still passes it.
    """
    _check_powers(a, powers)
    return _Lift(a).competition()


def predicted_limit(spec: ToeplitzSpec) -> Optional[BoolMatrix]:
    """Congruence-class matrix: (x, y) = 1 iff x = y mod d+, diagonal included.

    This is the claimed competition limit only while d+ <= n; beyond
    that no limit shape is claimed and None is returned.
    """
    step, n = gcd_profile(spec).d_plus, spec.n
    if step > n:
        return None
    comb, full = _comb(step, n), (1 << n) - 1
    return BoolMatrix((comb << (i % step)) & full for i in range(n))


def _decide_exact(
    spec: ToeplitzSpec, index: int, period: int, powers_from_index: Iterator[BoolMatrix]
) -> tuple[bool, Optional[int]]:
    prof = gcd_profile(spec)
    span = range(index, index + lcm(period, prof.d_plus // prof.d))
    for i, x in zip(span, powers_from_index):
        if _p_mask(spec, i) != _r_mask(x):
            return False, None
    return True, index


def decide_walk_ensured_exact(
    spec: ToeplitzSpec,
    max_power: Optional[int] = None,
    *,
    powers: Optional[PowerSequence] = None,
) -> tuple[bool, Optional[int]]:
    """Decide the walk-ensured property; on True also return a threshold M.

    Congruence sets repeat in the length with period d+/d, realized
    sets with period p from the index M on; agreement on every length
    in [M, M + lcm(p, d+/d)) is therefore agreement on all lengths from
    M on, and M is the threshold witness.  M, p and A^M A^j are lifted,
    or read from powers when given, which must then be the power
    sequence of spec's matrix (ValueError otherwise).  max_power is
    accepted and not read, because perfbench/tracing.py still passes it.
    """
    a = from_toeplitz(spec)
    if powers is None:
        lift = _Lift(a)
        return _decide_exact(spec, lift.index, lift.period, lift.walk())
    _check_powers(a, powers)
    index, period = powers.cycle()
    return _decide_exact(spec, index, period, map(powers.power, count(index)))


def _settled_certificate(
    spec: ToeplitzSpec, decide: Callable[[], tuple[bool, Optional[int]]]
) -> Certificate:
    """The first sufficient rule that applies, else decide(); never UNKNOWN."""
    cert = certify_walk_ensured(spec)
    if cert.verdict is not Verdict.UNKNOWN:
        return cert
    ok, threshold = decide()
    if ok:
        return Certificate(Verdict.PROVEN_BY_EXACT_DECISION, Rule.EXACT_DECISION, threshold)
    return Certificate(Verdict.NOT_WALK_ENSURED, Rule.EXACT_DECISION)


def period_via_theorem(spec: ToeplitzSpec) -> Optional[tuple[int, Certificate]]:
    """Period d+/d with a certificate, for walk-ensured descriptors.

    Sufficient rules are tried first; if they abstain the exact
    decision settles it.  None when the descriptor is not walk-ensured
    (the formula is not claimed there).
    """
    cert = _settled_certificate(spec, lambda: decide_walk_ensured_exact(spec))
    if not cert.walk_ensured:
        return None
    prof = gcd_profile(spec)
    return prof.d_plus // prof.d, cert


def superset_same_period(spec: ToeplitzSpec, spec_star: ToeplitzSpec) -> Optional[int]:
    """Transfer the period to an offset superset with the same gcd(S + T).

    Requires the base walk-ensured and S <= S*, T <= T* at equal order;
    returns d+/d (the shared period) when gcd(S + T) is preserved,
    None when it is not (no claim then).
    """
    if spec_star.n != spec.n:
        raise ValueError("order mismatch")
    if not (set(spec.S) <= set(spec_star.S) and set(spec.T) <= set(spec_star.T)):
        raise ValueError("offset sets do not extend the base")
    claim = period_via_theorem(spec)
    if claim is None:
        raise ValueError(f"{spec} is not walk-ensured")
    if gcd_profile(spec_star).d_plus != gcd_profile(spec).d_plus:
        return None
    return claim[0]


def sink_source_same_period(spec: ToeplitzSpec, b: BoolMatrix) -> Optional[int]:
    """Period transfer to any entrywise-larger matrix via the added arcs.

    The arcs of b missing from the base matrix are contracted modulo
    d = gcd(S u T); a source or sink there guarantees b keeps the base
    period.  The conclusion is verified against the periods of both
    matrices and a mismatch raises TheoremViolationError.  None when the
    contraction has neither source nor sink (no claim).
    """
    a = from_toeplitz(spec)
    if b.n != a.n:
        raise ValueError("order mismatch")
    if not a.dominated_by(b):
        raise ValueError("base matrix is not dominated by the extension")
    if period_via_theorem(spec) is None:
        raise ValueError(f"{spec} is not walk-ensured")
    prof = gcd_profile(spec)
    added = Digraph(b.and_not(a))
    if not has_source_or_sink(contract(added, prof.d)):
        return None
    _, base_period = matrix_period(a)
    _, ext_period = matrix_period(b)
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


def analyze(spec: ToeplitzSpec) -> PeriodReport:
    """Full analysis: period data, competition data, walk-ensured status."""
    lift = _Lift(from_toeplitz(spec))
    comp = lift.competition()
    return PeriodReport(
        spec=spec,
        profile=gcd_profile(spec),
        matrix_index=lift.index,
        matrix_period=lift.period,
        competition_index=comp.index,
        competition_period=comp.period,
        limit_matrix=comp.limit,
        certificate=_settled_certificate(
            spec, lambda: _decide_exact(spec, lift.index, lift.period, lift.walk())
        ),
    )
