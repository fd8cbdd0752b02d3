"""Period and competition analysis of Boolean Toeplitz matrices.

Every quantity is read off the powers A^m, which ``_Lift`` lifts over the
binary powers A^(2^k).  Each fact of the design is stated once, at the code
that rests on it:

* ``_Lift`` (the gallop), ``_Lift._returns`` (its test), ``_Lift.least``
  (the descent), ``_Lift.member`` (the cycle), ``_Lift._drop`` (the bracket
  rule), ``_Lift.competition``, ``_decide_exact`` (walk-ensured at the index);
* ``digraph.power_period`` (the period), ``_Lift._all_ones`` (pigeonhole),
  ``_gram``, ``_mirror`` (persymmetry), ``boolmat._ShiftKernel``
  and ``boolmat._ShiftKernel.cheaper`` (the cost rule), and
  ``boolmat._CROSSOVER_ORDER``.

Heap and Lynn (1964) bound the index by (n-1)^2 + 1, the only bound on the
search, asserted in ``_Lift``; the sweep and the tests hold the index,
period and exact verdict to ``PowerSequence``'s linear scan.  On top sit the
congruence-class limit, an exact walk-ensured decision and the rules that
transfer a period, each lifting its base at most once; ``analyze``
assembles a ``PeriodReport``, rules first.
"""

from __future__ import annotations

from itertools import accumulate, count, islice, repeat, takewhile
from typing import Callable, Iterator, NamedTuple, Optional

from .boolmat import (
    BoolMatrix,
    Offsets,
    PowerSequence,
    _CROSSOVER_ORDER,
    _mirror,
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
from .walksets import _shifted_comb


class TheoremViolationError(RuntimeError):
    """A rule application contradicted the brute-force ground truth."""


def _check_powers(a: BoolMatrix, powers: Optional[PowerSequence]) -> None:
    """Raise ValueError when powers is given and is not the power sequence of a."""
    if powers is not None and powers.base != a:
        raise ValueError("power sequence belongs to a different matrix")


def _gram(x: BoolMatrix, persymmetric: bool) -> BoolMatrix:
    """x x^T, (u, v) = 1 iff rows u and v of x share a column, with x^T by
    ``_mirror`` when x is persymmetric, else ``BoolMatrix.transpose``.  All ones
    (a nonempty row meets itself) when the two lightest rows hold more than n
    ones: ``_Lift._all_ones``'s pigeonhole, x's rows as x^T's columns."""
    if x.weights()[1] > x.n:
        return BoolMatrix.ones(x.n)
    return _product(x, (_mirror if persymmetric else BoolMatrix.transpose)(x))


def _gram_row(x: BoolMatrix) -> int:
    """Row 1 of x x^T, bit v - 1 set iff rows 1 and v of x share a column: n ANDs."""
    first = x.rows[0]
    return sum(1 << v for v, r in enumerate(x.rows) if r & first)


def _primes(p: int) -> list[int]:
    """The primes that divide p >= 1, ascending, by trial division."""
    primes, r = [], 2
    while r * r <= p:
        if p % r == 0:
            primes.append(r)
            while p % r == 0:
                p //= r
        r += 1
    return primes + [p] if p > 1 else primes


class _Lift:
    """Index and period of A's powers by lifting, each power A^m that it makes
    kept under its exponent m, since A^(m+e) = A^m A^e.

    offsets = (S, T) with A = T_n<S;T>, when the caller holds them; read from
    A otherwise, None for a matrix that is not Toeplitz.  One memo: ``_rows[m]``
    holds A^m as rows when a product made it, ``_packed[m]`` as an int when
    shift steps did, packing costing more than a step; ``rows`` and ``packed``
    make the other form at most once, when first read.  A^m = A^(m+p) fails
    exactly below the index M, so a gallop over the A^(2^k), testing each on
    its rows (``_returns``), brackets M in (2^(k-1), 2^k] and ``least``
    settles the lower bits: O(log M) products.
    """

    def __init__(self, a: BoolMatrix, offsets: Optional[Offsets] = None):
        if offsets is None:
            offsets = _toeplitz_offsets(a)
        self.a, self._rows, self._packed, self.cycle = a, {1: a}, {}, range(0)
        self.persymmetric = offsets is not None  # A is Toeplitz: its powers are persymmetric
        self.shifts = _shift_kernel(a.n, offsets)
        self.period = p = power_period(a, offsets)
        bound = (a.n - 1) ** 2 + 1  # Heap and Lynn (1964): the index is at most this
        failed = TheoremViolationError(f"A^m = A^(m+{p}) holds for no m <= {bound}")
        k = 0  # gallop to the bracket (2^(k-1), 2^k] of the index
        while not self._returns(1 << k, p):
            if 1 << k >= bound:
                raise failed
            self._drop(1 << k, 2 << k)
            k += 1
        top = 1 << k
        self.cycle = range(top, top + p)
        probe = lambda m, j: self._same(self.step(m, 1 << j), self.member(m + (1 << j)))
        self.index = self.least(probe, top >> 1, top)
        if self.index > bound:
            raise failed
        # least: each proper divisor of p divides some p/r, r a prime factor,
        # and from top on a return after e repeats at every multiple of e
        if any(self._same(top, self.member(top + p // r)) for r in _primes(p)):
            raise TheoremViolationError(f"period {p} of the components is not least")

    def member(self, m: int) -> int:
        """e = top + (m - top) mod p: from top = 2^k >= M on, the powers are the
        cycle A^top, ..., A^(top+p-1), and every A^m with m >= M equals A^e.  So
        the index descent tests A^m against its member, not A^(m+p): A^m =
        A^(m+jp) with m < M would make the powers from m on repeat with period
        jp, so A^m = A^(m+p).  Members, which the minimality check, B_M and the
        walk read too, are made when first read (a certificate may read none of
        a long cycle), by a step from the member before it if held, else A^top."""
        e = self.cycle[(m - self.cycle.start) % len(self.cycle)]
        before = e - 1 if e - 1 in self._rows or e - 1 in self._packed else self.cycle.start
        return self.step(before, e - before)

    def _drop(self, lo: int, hi: int) -> None:
        """The bracket rule, the one lifetime rule for the A^m, applied after each
        level of the gallop and of a descent: from the crossover order on, keep
        only the squares (as rows alone), A^p, the cycle and the bracket [lo, hi]
        that later levels mostly read, [2^k, 2^(k+1)] after a failing gallop test
        at 2^k and [failing m, best m] after a descent level.  Letting A^p go
        made 44 powers twice in an analyze-random pass, not 7; below that
        order, where a power is a few small ints, letting go made more
        products and ran slower."""
        if self.a.n < _CROSSOVER_ORDER:
            return
        p, cycle, rows = self.period, self.cycle, self._rows
        for m in [m for m in rows if m & (m - 1) and not (lo <= m <= hi or m == p or m in cycle)]:
            del rows[m]
        for m in [m for m in self._packed if not (lo <= m <= hi or m == p or m in cycle)]:
            if m & (m - 1) or m in rows:
                del self._packed[m]

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

    def _returns(self, m: int, p: int) -> bool:
        """Whether A^m = A^(m+p), decided on the rows of A^m without making
        A^(m+p): row i of A^(m+p) = A^p A^m is the OR of the rows of A^m that
        row i of A^p selects, so the two are equal exactly when each such OR
        is row i of A^m.  One selection per 1 of A^p, the sparser factor,
        stopping at the first row that differs: a failing test costs about
        one row, and makes, packs and keeps nothing.  Where ``_all_ones``
        answers A^p A^m as J, the test is whether A^m is.  Where m + p is a
        power of two and the kernel steps, A^(m+p) is a square that a later
        level reads, the next one at m = p, so it is made by ``step`` under
        the cost rule and compared."""
        if self.shifts and (m + p) & (m + p - 1) == 0:
            return self._same(m, self.step(m, p))
        am, ap = self.rows(self.power(m)), self.rows(self.power(p))
        if self._all_ones(ap, am):
            return am.count() == am.n * am.n
        x = am.rows
        for row, select in zip(x, ap.rows):
            acc = 0
            while select:
                top = select.bit_length() - 1
                acc |= x[top]
                select ^= 1 << top
            if acc != row:
                return False
        return True

    def _same(self, m: int, k: int) -> bool:
        """A^m = A^k, on a form both are held in, else packed."""
        for held in (self._packed, self._rows):
            if m in held and k in held:
                return held[m] == held[k]
        return self.packed(m) == self.packed(k)

    def power(self, e: int) -> int:
        """e, once A^e (e >= 1) is held.  A^(2^k) is made as the product of
        two A^(2^(k-1)), any other A^e by a step from A^(e - 2^k), 2^k the top
        bit of e: from the squares of its bits, ascending."""
        if e not in self._rows and e not in self._packed:
            top = 1 << (e.bit_length() - 1)
            if e == top:
                half = self.rows(self.power(e >> 1))
                self._rows[e] = self._times(half, half)
            else:
                self.step(self.power(e - top), top)
        return e

    def ones(self, e: int) -> int:
        """The ones of A^e, on the packed form when it is held, else on the
        rows, counted once (``BoolMatrix.weights``)."""
        self.power(e)
        return self._packed[e].bit_count() if e in self._packed else self._rows[e].count()

    def step(self, m: int, e: int) -> int:
        """m + e, once A^(m+e) is held: made, when it is not, from A^m (held, or
        m = 0 and A^e is) by e shift steps where ``_ShiftKernel.cheaper`` takes
        them against the ones of A^e, else by ``_times``.  The steps are
        declined where ``_all_ones`` answers from weights already counted
        (counting them for it costs more than it saves)."""
        if m + e not in self._rows and m + e not in self._packed:
            x, y = self._rows.get(m), self._rows.get(self.power(e))
            declined = x and y and x._weights and y._weights and self._all_ones(x, y)
            if self.shifts and not declined and self.shifts.cheaper(e, self.ones(e)):
                self._packed[m + e] = self.shifts.times(self.packed(m), e)
            else:
                self._rows[m + e] = self._times(self.rows(m), self.rows(e))
        return m + e

    def _all_ones(self, x: BoolMatrix, y: BoolMatrix) -> bool:
        """Whether x y, for two of A's powers, is J by pigeonhole: a row of x
        and a column of y with more than n ones between them share an index,
        so x y is all ones, with no product, when x's lightest row and y's
        lightest column do, as often for the powers of a primitive A, which
        reaches J.  A is Toeplitz (``persymmetric``), so y is persymmetric
        (``_mirror``) and its lightest column weighs what its lightest row
        does, which the test reads (``BoolMatrix.weights``).  A matrix that is
        not Toeplitz may have heavy rows and an empty column (every row "all
        columns but the first" is idempotent); below the crossover order the
        test costs more than it saves."""
        n = x.n
        return self.persymmetric and n >= _CROSSOVER_ORDER and x.weights()[0] + y.weights()[0] > n

    def _times(self, x: BoolMatrix, y: BoolMatrix) -> BoolMatrix:
        """x y for two of A's powers: J where ``_all_ones`` answers, else made
        (``boolmat._power_product``)."""
        return BoolMatrix.ones(x.n) if self._all_ones(x, y) else _power_product(x, y)

    def walk(self) -> Iterator[BoolMatrix]:
        """A^index, A^(index+1), ...: the members of the cycle they equal."""
        return map(self.rows, map(self.member, count(self.index)))

    def least(self, probe: Callable[[int, int], bool], lo: int, hi: int) -> int:
        """The least m in (lo, hi] where a test holds that fails exactly below
        some m, fails at lo and holds at hi.  probe(m, j) makes what the test
        reads at m + 2^j from the failing m and tests it there.  One probe per
        bit of hi - lo - 1, from the top: the failing m goes up by 2^j whenever
        the probe fails.  After each, ``_drop(m, best)``, the bracket rule."""
        m, best = lo, hi
        for j in reversed(range((hi - lo - 1).bit_length())):
            if m + (1 << j) < hi:
                if probe(m, j):
                    best = m + (1 << j)
                else:
                    m += 1 << j
                self._drop(m, best)
        return best

    def competition(self) -> "CompetitionResult":
        """Index q and period c of B_m = A^m (A^m)^T.  B_m is a function of A^m,
        so B_(M+p) = B_M, and B_(m+1) = A B_m A^T: the cycle is B_M, B_(M+1),
        ... up to the return to B_M, walked by the map on packed rows where the
        cost rule takes a step, else as the grams of ``walk``.  The map keeps
        the cycle, so "B_m is on it", the same as B_m = B_(m+c), is monotone in
        m and holds at M: ``least`` finds q over (0, M].  On the cycle B_m equals
        a member, so a gram level is refuted without the gram when row 1 of the
        gram (``_gram_row``) is row 1 of no member.  Level 2^j moves B_m by 2^j
        steps of the map where the rule takes them: the last levels, no A^m made."""
        shifts = self.shifts if self.shifts and self.shifts.cheaper(1, conjugate=True) else None
        limit = _gram(next(powers := self.walk()), self.persymmetric)  # B_M, B_q on a cycle of one
        if shifts is None:
            b_index, later = limit, map(_gram, powers, repeat(self.persymmetric))
        else:
            b_index = shifts.pack(limit)
            later = islice(accumulate(repeat(1), shifts.conjugate, initial=b_index), 1, None)
        cycle = {b_index, *takewhile(b_index.__ne__, islice(later, self.period - 1))}
        period = len(cycle)
        if shifts:
            first_rows = {shifts.first_row(x) for x in cycle}
        else:  # rows[:1], as order 0 has no row 1 (and its descent no level)
            first_rows = {r for x in cycle for r in x.rows[:1]}
        failing = None  # B at the failing m, once made

        def gram(m: int) -> object:
            """B_m, the gram of A^m or I at m = 0, packed when the kernel steps."""
            x = _gram(self.rows(m), self.persymmetric) if m else BoolMatrix.identity(self.a.n)
            return shifts.pack(x) if shifts else x

        def probe(m: int, j: int) -> bool:
            """Whether B_(m+2^j) is on the cycle, by 2^j steps of the map from B_m
            or by the row check and a gram.  Only B at the failing m is held: a
            failing level keeps its B, and a shifted level with none (at m = 0 or
            after a refuted level) makes B_m once."""
            nonlocal failing
            if shifts and shifts.cheaper(1 << j, conjugate=True):
                failing = gram(m) if failing is None else failing
                b = shifts.conjugate(failing, 1 << j)
            elif _gram_row(self.rows(self.step(m, 1 << j))) in first_rows:
                b = gram(m + (1 << j))
            else:
                b = None  # refuted: B_(m+2^j) is off the cycle, and not made
            passed = b in cycle  # None is in no cycle
            failing = failing if passed else b
            return passed

        index = self.least(probe, 0, self.index)
        return CompetitionResult(index, period, limit if period == 1 else None)


def matrix_period(a: BoolMatrix) -> tuple[int, int]:
    """(index, period): least M and p with A^m = A^(m+p) for all m >= M."""
    lift = _Lift(a)
    return lift.index, lift.period


class CompetitionResult(NamedTuple):
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
    """Least q and c with B_m = B_(m+c) for all m >= q, B_m = A^m (A^T)^m, and
    the limit B_q when c is 1.  powers, when given, must be the power sequence
    of a (ValueError otherwise); neither it nor max_power is read
    (tests/test_hygiene.py, UNREAD_HARNESS_SLOTS)."""
    _check_powers(a, powers)
    return _Lift(a).competition()


def _congruence(spec: ToeplitzSpec, i: int) -> BoolMatrix:
    """C_i, the congruence matrix: (u, v) = 1 iff v - u = i s1 mod d+."""
    step, s1 = gcd_profile(spec)[1:3]  # (d+, s1)
    return BoolMatrix(_shifted_comb(step, spec.n, (u + i * s1) % step) for u in range(spec.n))


def predicted_limit(spec: ToeplitzSpec) -> Optional[BoolMatrix]:
    """Congruence-class matrix C_0: (x, y) = 1 iff x = y mod d+, diagonal included.

    This is the claimed competition limit only while d+ <= n; beyond
    that no limit shape is claimed and None is returned.
    """
    return _congruence(spec, 0) if gcd_profile(spec).d_plus <= spec.n else None


def _decide_exact(
    spec: ToeplitzSpec, index: int, at_index: BoolMatrix
) -> tuple[bool, Optional[int]]:
    """(True, M) when A is walk-ensured, else (False, None), read off A^M alone,
    M the index: A is walk-ensured iff d+ <= n and A^M = C_M (``_congruence``).

    1. A^i <= C_i for every i: s = s1 and -t = s1 mod d+ for s in S, t in T,
       so each arc moves by s1 mod d+ and each walk of length i by i s1.
    2. P_i = R_i says that every diagonal congruent to i s1 is full, so by 1
       a walk-ensured A has A^i = C_i for every large i.  From M on A^i repeats
       with period p, and C_i, a function of i s1 mod d+, with period d+/d, so
       A^M = A^(M+kL) = C_(M+kL) = C_M, L = lcm(p, d+/d) and k large.
    3. If d+ <= n, every class mod d+ meets [1, n], so C_M has no empty row.
       A^M = C_M then leaves A no empty row, and row u of A C_i is the class of
       u + s + i s1 = u + (i+1) s1 over the arcs u -> u + s (s = -t for t in T):
       A C_i = C_(i+1).  By induction A^i = C_i for every i >= M, so P_i = R_i
       from M on, the threshold.
    4. If d+ > n, vertex min S has no in-arc: u + s = min S needs s < min S,
       and u - t = min S needs min S + t <= n, while d+ divides min S + min T.
       So no power fills the diagonal of displacement 0, in P_i when d+ | i.
    """
    if gcd_profile(spec).d_plus > spec.n or at_index != _congruence(spec, index):
        return False, None
    return True, index


def decide_walk_ensured_exact(
    spec: ToeplitzSpec,
    max_power: Optional[int] = None,
    *,
    powers: Optional[PowerSequence] = None,
) -> tuple[bool, Optional[int]]:
    """Decide the walk-ensured property; on True also return a threshold M.

    M is the index, and A^M is lifted, or read from powers when given, which
    must then be the power sequence of spec's matrix (ValueError otherwise);
    max_power is not read (tests/test_hygiene.py, UNREAD_HARNESS_SLOTS).
    """
    a = from_toeplitz(spec)
    if powers is None:
        lift = _Lift(a, (spec.S, spec.T))
        return _decide_exact(spec, lift.index, lift.rows(lift.member(lift.index)))
    _check_powers(a, powers)
    index, _ = powers.cycle()
    return _decide_exact(spec, index, powers.power(index))


def _settled_certificate(spec: ToeplitzSpec, lift: Optional[_Lift] = None) -> Certificate:
    """The first sufficient rule that applies, else the exact decision on lift,
    the lift of spec's matrix, made here when not given; never UNKNOWN."""
    cert = certify_walk_ensured(spec)
    if cert.verdict is not Verdict.UNKNOWN:
        return cert
    if lift is None:
        lift = _Lift(from_toeplitz(spec), (spec.S, spec.T))
    ok, threshold = _decide_exact(spec, lift.index, lift.rows(lift.member(lift.index)))
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


class PeriodReport(NamedTuple):
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
