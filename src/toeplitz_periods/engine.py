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
  more than n ones between them (pigeonhole);
* from order 32 on (below it, row selection on a few rows costs less
  than packing), a Toeplitz A = T_n<S;T> steps by its offsets on its
  rows packed into one integer (``boolmat._ShiftKernel``): x -> x A is
  |S| + |T| shifts and B -> A B A^T twice that.  The offsets come from
  the caller's ToeplitzSpec when it has one, else from A's rows, and
  also give A's columns to ``power_period``.  One cost rule,
  ``_ShiftKernel.cheaper``, takes e steps of a map of c shifts instead
  of the product they stand for when e c n <= min(8 (n + ones), n^2),
  ones being those of the product's sparser factor: e c <= n against a
  dense one, fewer steps against a sparse one.  So x A^e, priced by the
  ones of A^e, is steps wherever the rule takes them: in the period
  test, the minimality check, the walk from A^M and on the low levels
  of the index descent.  B_m moves by 2^j steps of its map, against a
  gram, on every level of the descent for q with 2^j * 2(|S| + |T|) <= n,
  and the cycle of B_M by single steps; since 2^j halves from level to
  level, these are the last levels, and A^m is dropped on reaching them.
  A power made by shifts stays packed, since packed integers compare and
  hash as the matrices do; only a product, a gram, A^M and the powers
  the walk yields unpack.  The squares A^(2^k) stay products (see
  ``_Lift.square``).

Heap-Lynn is the only bound on the search, and it is asserted; the
sweep and the tests hold the index, period and exact verdict to
``PowerSequence``'s linear scan.  On top sit the congruence-class
limit, an exact decision procedure for the walk-ensured property and
the rules that transfer a period, each lifting its base at most once;
``analyze`` assembles a ``PeriodReport``, rules first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, count, islice, repeat, takewhile
from math import lcm
from typing import Callable, Iterator, Optional, TypeVar

from .boolmat import (
    BoolMatrix,
    Offsets,
    PowerSequence,
    _check_powers,
    _product,
    _shift_kernel,
    _toeplitz_offsets,
    from_toeplitz,
)
from .digraph import contract, has_source_or_sink, power_period
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


_State = TypeVar("_State")


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
    """Index and period of A's powers by lifting, with A^index and A^(2^k) kept.

    offsets = (S, T) with A = T_n<S;T>, when the caller holds them; they are
    read from A otherwise, and are None for a matrix that is not Toeplitz.
    shifts is A's shift kernel (boolmat._shift_kernel), None below order 32
    and without offsets.  With it, x A^e is e steps of shifts on packed rows
    wherever the kernel's cost rule takes them (``times``), and a power stays
    in the form that made it: an int when shifts made it, a BoolMatrix when a
    product did.  Rows are unpacked only for a product or a gram and for the
    powers that leave the lift: at_index and walk().
    """

    def __init__(self, a: BoolMatrix, offsets: Optional[Offsets] = None):
        if offsets is None:
            offsets = _toeplitz_offsets(a)
        self.a, self._squares, self._powers, self._ones = a, [a], {}, {}
        self.shifts = _shift_kernel(a.n, offsets)
        self.period = p = power_period(a, offsets)
        bound = (a.n - 1) ** 2 + 1  # Heap and Lynn (1964): the index is at most this
        # test(A^m) is A^m, in the form the step by A^p reads, when A^m = A^(m+p)
        test = lambda y: y if self.times(y := self.form(y, p), p) == y else None
        failed = TheoremViolationError(f"A^m = A^(m+{p}) holds for no m <= {bound}")
        k = 0  # gallop to the bracket (2^(k-1), 2^k] of the index
        while (value := test(self.square(k))) is None:
            if 1 << k >= bound:
                raise failed
            k += 1
        lo = (1 << (k - 1), self.square(k - 1)) if k else (0, None)
        self.index, x, value = self.least(test, lo, (1 << k, self.square(k), value))
        if self.index > bound:
            raise failed
        # A^index as rows and packed, where the descent (x) or the test (value)
        # made that form; the other one is made when first asked for
        self._rows_at = self._packed_at = None
        for form in (x, value):
            if isinstance(form, BoolMatrix):
                self._rows_at = form
            else:
                self._packed_at = form
        if any(p % e == 0 and self._returns(e) for e in range(1, p)):
            raise TheoremViolationError(f"period {p} of the components is not least")

    @property
    def at_index(self) -> BoolMatrix:
        """A^index, unpacked at most once."""
        if self._rows_at is None:
            self._rows_at = self.shifts.unpack(self._packed_at)
        return self._rows_at

    def _index_form(self, e: int) -> BoolMatrix | int:
        """A^index in the form times(., e) reads; each form made at most once."""
        if not self._steps(e):
            return self.at_index
        if self._packed_at is None:
            self._packed_at = self.shifts.pack(self._rows_at)
        return self._packed_at

    def _returns(self, e: int) -> bool:
        """A^(index+e) = A^index."""
        x = self._index_form(e)
        return self.times(x, e) == x

    def _steps(self, e: int) -> bool:
        """Whether x A^e is e steps of shifts: A has shifts and they cost less
        than the product by A^e (_ShiftKernel.cheaper), whose ones are
        counted once per e."""
        if self.shifts is None:
            return False
        if e not in self._ones:
            self._ones[e] = self.power(e).count()
        return self.shifts.cheaper(e, self._ones[e])

    def form(self, x: BoolMatrix | int, e: int) -> BoolMatrix | int:
        """x in the form times(x, e) reads: packed for shifts, else rows."""
        if not self._steps(e):
            return self.rows(x)
        return x if isinstance(x, int) else self.shifts.pack(x)

    def rows(self, x: BoolMatrix | int) -> BoolMatrix:
        """x as rows."""
        return x if isinstance(x, BoolMatrix) else self.shifts.unpack(x)

    def square(self, k: int) -> BoolMatrix:
        """A^(2^k), made once, when first asked for, by a product.

        Making them by shifts too cut the products of an analyze-random pass
        by more than half in a prototype, but that waits for the benchmark to
        stop keeping every answer (ROADMAP item 1): a faster run completes
        more passes, keeps more answers and so reads as a rise in peak memory
        beyond the benchmark's bound."""
        while len(self._squares) <= k:
            self._squares.append(_power_product(self._squares[-1], self._squares[-1]))
        return self._squares[k]

    def power(self, e: int) -> BoolMatrix:
        """A^e for e >= 1, made once, when first asked for."""
        if e not in self._powers:
            bits = (k for k in range(e.bit_length()) if e >> k & 1)
            self._powers[e] = reduce(_power_product, map(self.square, bits))
        return self._powers[e]

    def times(self, x: BoolMatrix | int, e: int) -> BoolMatrix | int:
        """x A^e for a power x of A: e steps of shifts on x packed where
        ``_steps`` takes them, else a product on x as rows."""
        x = self.form(x, e)
        return self.shifts.times(x, e) if isinstance(x, int) else _power_product(x, self.power(e))

    def advance(self, x: Optional[BoolMatrix | int], j: int) -> BoolMatrix | int:
        """A^(m+2^j) from x = A^m, where None stands for A^0."""
        return self.square(j) if x is None else self.times(x, 1 << j)

    def walk(self) -> Iterator[BoolMatrix]:
        """A^index, A^(index+1), ..., each made when asked for."""
        later = accumulate(repeat(1), self.times, initial=self._index_form(1))
        return chain([self.at_index], map(self.rows, islice(later, 1, None)))

    def least(
        self,
        test: Callable[[_State], object],
        lo: tuple[int, Optional[_State]],
        hi: tuple[int, _State, object],
        advance: Optional[Callable[[Optional[_State], int], _State]] = None,
    ) -> tuple[int, _State, object]:
        """(m, x_m, test(x_m)) for the least m in (lo, hi] with test(x_m) not None,
        where test fails exactly below some m, fails at lo = (m, x_m) and passes at
        hi = (m, x_m, value).  x_m is A^m (A^0 is None) and advance(x_m, j) is
        x_(m+2^j), ``self.advance`` unless given.  One test per bit of hi - lo - 1,
        from the top: the failing m goes up by 2^j whenever the test fails there."""
        advance = advance or self.advance
        m, x = lo
        best = hi
        for j in reversed(range((hi[0] - m - 1).bit_length())):
            if m + (1 << j) >= hi[0]:
                continue
            y = advance(x, j)
            if (value := test(y)) is None:
                m, x = m + (1 << j), y
            else:
                best = (m + (1 << j), y, value)
        return best

    def competition(self) -> "CompetitionResult":
        """B_m = A^m (A^m)^T; its cycle is B_M, B_(M+1), ... up to the return to B_M,
        walked by B -> A B A^T on packed rows where the cost rule takes one step
        of it, else as the grams of walk()."""
        shifts = self.shifts if self.shifts and self.shifts.cheaper(1, conjugate=True) else None
        n = self.a.n
        limit = _gram(self.at_index)  # B_M, which on a cycle of one is B_q
        if shifts is None:
            b_index, later = limit, map(_gram, islice(self.walk(), 1, None))
        else:
            b_index = shifts.pack(limit)
            later = islice(accumulate(repeat(1), shifts.conjugate, initial=b_index), 1, None)
        cycle = {b_index, *takewhile(b_index.__ne__, islice(later, self.period - 1))}
        period = len(cycle)

        def advance(state: tuple, j: int) -> tuple:
            """(A^m, B_m) -> (A^(m+2^j), B_(m+2^j)): 2^j steps of the map where
            the kernel's cost rule takes them, else A^(m+2^j) and a gram.  A^m
            is dropped on the shifted levels, which, as 2^j falls, are the
            last.  B_0 = I is None until a shifted level steps from it."""
            x, b = state
            if shifts and shifts.cheaper(1 << j, conjugate=True):
                b = shifts.pack(BoolMatrix.identity(n)) if b is None else b
                return None, shifts.conjugate(b, 1 << j)
            y = self.advance(x, j)
            b = _gram(self.rows(y))
            return y, shifts.pack(b) if shifts else b

        on_cycle = lambda state: True if state[1] in cycle else None
        hi = (self.index, (self.at_index, b_index), True)
        index, _, _ = self.least(on_cycle, (0, (None, None)), hi, advance)
        return CompetitionResult(index, period, limit if period == 1 else None)


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
        lift = _Lift(a, (spec.S, spec.T))
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
    if not _settled_certificate(spec, lambda: decide_walk_ensured_exact(spec)).walk_ensured:
        raise ValueError(f"{spec} is not walk-ensured")
    prof = gcd_profile(spec)
    if gcd_profile(spec_star).d_plus != prof.d_plus:
        return None
    return prof.d_plus // prof.d


def sink_source_same_period(spec: ToeplitzSpec, b: BoolMatrix) -> Optional[int]:
    """Period transfer to any entrywise-larger matrix via the added arcs.

    The arcs of b missing from the base matrix are contracted modulo
    d = gcd(S u T); a source or sink there guarantees b keeps the base
    period.  The conclusion is verified against the periods of both
    matrices and a mismatch raises TheoremViolationError.  None when the
    contraction has neither source nor sink (no claim).  One lift gives
    the base's period and, when the rules abstain, its verdict.
    """
    a = from_toeplitz(spec)
    if b.n != a.n:
        raise ValueError("order mismatch")
    if not a.dominated_by(b):
        raise ValueError("base matrix is not dominated by the extension")
    lift = _Lift(a, (spec.S, spec.T))
    decide = lambda: _decide_exact(spec, lift.index, lift.period, lift.walk())
    if not _settled_certificate(spec, decide).walk_ensured:
        raise ValueError(f"{spec} is not walk-ensured")
    if not has_source_or_sink(contract(b.and_not(a), gcd_profile(spec).d)):
        return None
    _, ext_period = matrix_period(b)
    if ext_period != lift.period:
        raise TheoremViolationError(
            f"extension of {spec} changed the period: "
            f"{lift.period} -> {ext_period}"
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
    lift = _Lift(from_toeplitz(spec), (spec.S, spec.T))
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
