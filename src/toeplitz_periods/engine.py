"""Period and competition analysis of Boolean Toeplitz matrices.

Every quantity here is read off the powers A^m, and A^(m+e) = A^m A^e, so
the lift (``_Lift``) keeps each power it makes under its exponent m, and
its one maker (``_Lift.step``) makes none twice while it is held.  Index
and period are found by lifting over the binary powers A^(2^k), never by
stepping through the powers:

* the period p is the lcm of the cyclicities of A's strong components
  (``digraph.power_period``), checked least at the index M;
* a test on A^m that fails exactly below some m, known to fail at lo
  and to pass at hi, is settled by one descent over (lo, hi], one test
  per bit of hi - lo - 1 from the top (``_Lift.least``, over exponents);
* A^m = A^(m+p) is such a test, so M, the least m where it holds, is
  found by galloping over A^(2^k) to the bracket (2^(k-1), 2^k] and
  descending: O(log M) products and matrices held, of which the squares
  and A^M stay.  Heap and Lynn (1964) bound M by (n-1)^2 + 1; a larger
  M raises TheoremViolationError;
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
  dense one, fewer steps against a sparse one.  So A^(m+e), priced by
  the ones of A^e, is e steps from A^m wherever the rule takes them: in
  the period test, the minimality check, the walk from A^M and on the
  low levels of the index descent.  B_m moves by 2^j steps of its map,
  against a gram, on every level of the descent for q with
  2^j * 2(|S| + |T|) <= n, and the cycle of B_M by single steps; since
  2^j halves from level to level, these are the last levels, and no
  A^m is made on them.
  The lift holds a power as an int when shifts made it and as a
  BoolMatrix when a product did, and makes the other form at most once,
  the first time something reads it: packed integers compare and hash
  as the matrices do, so only a product, a gram, A^M and the powers the
  walk yields unpack.  The squares A^(2^k) are products where no shift
  step made them first (see ``_Lift.power``).

Heap-Lynn is the only bound on the search, and it is asserted; the
sweep and the tests hold the index, period and exact verdict to
``PowerSequence``'s linear scan.  On top sit the congruence-class
limit, an exact decision procedure for the walk-ensured property and
the rules that transfer a period, each lifting its base at most once;
``analyze`` assembles a ``PeriodReport``, rules first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count, islice, repeat, takewhile
from math import lcm
from typing import Callable, Iterator, Optional

from .boolmat import (
    BoolMatrix,
    Offsets,
    PowerSequence,
    _check_powers,
    _power_product,
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
from .walksets import _p_mask, _r_mask, _shifted_comb


class TheoremViolationError(RuntimeError):
    """A rule application contradicted the brute-force ground truth."""


def _gram(x: BoolMatrix) -> BoolMatrix:
    """x x^T: (u, v) = 1 iff rows u and v of x share a column.  Two rows with
    more than n ones between them share one, so when the two lightest rows
    do, every pair does and x x^T is all ones, diagonal included."""
    row_ones = sorted(map(int.bit_count, x.rows))
    if sum(row_ones[:2]) > x.n:
        return BoolMatrix.ones(x.n)
    return _product(x, x.transpose(), sum(row_ones))


class _Lift:
    """Index and period of A's powers by lifting, each power A^m that it makes
    kept under its exponent m.

    offsets = (S, T) with A = T_n<S;T>, when the caller holds them; they are
    read from A otherwise, and are None for a matrix that is not Toeplitz.
    shifts is A's shift kernel (boolmat._shift_kernel), None below order 32
    and without offsets.  One memo: ``_rows[m]`` holds A^m as a BoolMatrix
    when a product made it, ``_packed[m]`` as an int when shift steps did, and
    ``rows(m)`` and ``packed(m)`` make the other form at most once, the first
    time something reads it.  One maker: ``step(m, e)`` makes A^(m+e) from
    A^m, by e steps of shifts wherever the kernel's cost rule takes them.
    The index search then drops every other power it made but the squares
    A^(2^k) and A^index.
    """

    def __init__(self, a: BoolMatrix, offsets: Optional[Offsets] = None):
        if offsets is None:
            offsets = _toeplitz_offsets(a)
        self.a, self._rows, self._packed = a, {1: a}, {}
        self.shifts = _shift_kernel(a.n, offsets)
        self.period = p = power_period(a, offsets)
        bound = (a.n - 1) ** 2 + 1  # Heap and Lynn (1964): the index is at most this
        test = lambda m: self._same(m, self.step(m, p))  # A^m = A^(m+p)
        failed = TheoremViolationError(f"A^m = A^(m+{p}) holds for no m <= {bound}")
        k = 0  # gallop to the bracket (2^(k-1), 2^k] of the index
        while not test(self.power(1 << k)):
            if 1 << k >= bound:
                raise failed
            k += 1
        self.index = self.least(test, 1 << k >> 1, 1 << k)
        if self.index > bound:
            raise failed
        for held in (self._rows, self._packed):
            for m in [m for m in held if m & (m - 1) and m != self.index]:
                del held[m]
        if any(p % e == 0 and self._same(self.index, self.step(self.index, e)) for e in range(1, p)):
            raise TheoremViolationError(f"period {p} of the components is not least")

    def rows(self, m: int) -> BoolMatrix:
        """A^m as rows, unpacked at most once."""
        if m not in self._rows:
            self._rows[m] = self.shifts.unpack(self._packed[m])
        return self._rows[m]

    def packed(self, m: int) -> int:
        """A^m packed, at most once."""
        if m not in self._packed:
            self._packed[m] = self.shifts.pack(self._rows[m])
        return self._packed[m]

    def _same(self, m: int, k: int) -> bool:
        """A^m = A^k, on a form both are held in, else packed."""
        for held in (self._packed, self._rows):
            if m in held and k in held:
                return held[m] == held[k]
        return self.packed(m) == self.packed(k)

    def power(self, e: int) -> int:
        """e, once A^e (e >= 1) is held.  A^(2^k) is made as the product of
        two A^(2^(k-1)), any other A^e by a step from A^(e - 2^k), 2^k the top
        bit of e: from the squares of its bits, ascending.  Squares by shifts
        wait for the benchmark to stop keeping every answer (ROADMAP item 1),
        since a faster run keeps more of them and reads as more memory."""
        if e not in self._rows and e not in self._packed:
            top = 1 << (e.bit_length() - 1)
            if e == top:
                half = self.rows(self.power(e >> 1))
                self._rows[e] = _power_product(half, half)
            else:
                self.step(self.power(e - top), top)
        return e

    def ones(self, e: int) -> int:
        """The ones of A^e, counted on the packed form when it is held."""
        self.power(e)
        return self._packed[e].bit_count() if e in self._packed else self._rows[e].count()

    def step(self, m: int, e: int) -> int:
        """m + e, once A^(m+e) is held: made, when it is not, from A^m, which
        is held (or m = 0 and A^e is), by e steps of shifts on A^m packed
        where the kernel's cost rule takes them against the ones of A^e,
        else by the product of A^m and A^e as rows."""
        if m + e not in self._rows and m + e not in self._packed:
            if self.shifts and self.shifts.cheaper(e, self.ones(e)):
                self._packed[m + e] = self.shifts.times(self.packed(m), e)
            else:
                self._rows[m + e] = _power_product(self.rows(m), self.rows(self.power(e)))
        return m + e

    def walk(self) -> Iterator[BoolMatrix]:
        """A^index, A^(index+1), ..., each made when asked for."""
        return map(self.rows, accumulate(repeat(1), self.step, initial=self.index))

    def least(
        self,
        test: Callable[[int], bool],
        lo: int,
        hi: int,
        advance: Optional[Callable[[int, int], object]] = None,
    ) -> int:
        """The least m in (lo, hi] with test(m), where test fails exactly below
        some m, fails at lo and holds at hi.  advance(m, j) makes what
        test(m + 2^j) reads, A^(m+2^j) by ``step`` unless given.  One test per
        bit of hi - lo - 1, from the top: the failing m goes up by 2^j
        whenever the test fails there."""
        advance = advance or (lambda m, j: self.step(m, 1 << j))
        m, best = lo, hi
        for j in reversed(range((hi - lo - 1).bit_length())):
            if m + (1 << j) < hi:
                advance(m, j)
                if test(m + (1 << j)):
                    best = m + (1 << j)
                else:
                    m += 1 << j
        return best

    def competition(self) -> "CompetitionResult":
        """B_m = A^m (A^m)^T; its cycle is B_M, B_(M+1), ... up to the return to B_M,
        walked by B -> A B A^T on packed rows where the cost rule takes one step
        of it, else as the grams of walk()."""
        shifts = self.shifts if self.shifts and self.shifts.cheaper(1, conjugate=True) else None
        limit = _gram(self.rows(self.index))  # B_M, which on a cycle of one is B_q
        if shifts is None:
            b_index, later = limit, map(_gram, islice(self.walk(), 1, None))
        else:
            b_index = shifts.pack(limit)
            later = islice(accumulate(repeat(1), shifts.conjugate, initial=b_index), 1, None)
        cycle = {b_index, *takewhile(b_index.__ne__, islice(later, self.period - 1))}
        period = len(cycle)
        b = {0: shifts.pack(BoolMatrix.identity(self.a.n))} if shifts else {}  # B_m by m

        def advance(m: int, j: int) -> None:
            """B_(m+2^j): 2^j steps of the map from B_m where the kernel's cost
            rule takes them, else the gram of A^(m+2^j).  The shifted levels
            are, as 2^j falls, the last, so A^m is not made on them."""
            if shifts and shifts.cheaper(1 << j, conjugate=True):
                b[m + (1 << j)] = shifts.conjugate(b[m], 1 << j)
            else:
                gram = _gram(self.rows(self.step(m, 1 << j)))
                b[m + (1 << j)] = shifts.pack(gram) if shifts else gram

        index = self.least(lambda m: b[m] in cycle, 0, self.index, advance)
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
    return BoolMatrix(_shifted_comb(step, n, i % step) for i in range(n))


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


def _settled_certificate(spec: ToeplitzSpec, lift: Optional[_Lift] = None) -> Certificate:
    """The first sufficient rule that applies, else the exact decision on lift,
    the lift of spec's matrix, made here when not given; never UNKNOWN."""
    cert = certify_walk_ensured(spec)
    if cert.verdict is not Verdict.UNKNOWN:
        return cert
    if lift is None:
        lift = _Lift(from_toeplitz(spec), (spec.S, spec.T))
    ok, threshold = _decide_exact(spec, lift.index, lift.period, lift.walk())
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
    if not _settled_certificate(spec).walk_ensured:
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
    if not a.dominated_by(b):
        raise ValueError("base matrix is not dominated by the extension")
    lift = _Lift(a, (spec.S, spec.T))
    if not _settled_certificate(spec, lift).walk_ensured:
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
        certificate=_settled_certificate(spec, lift),
    )
