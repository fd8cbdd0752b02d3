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
  per bit of hi - lo - 1 from the top (``_Lift.least``, over exponents,
  whose probe(m, j) makes what the test reads at m + 2^j from the
  failing m);
* A^m = A^(m+p) is such a test, so M, the least m where it holds, is
  found by galloping over A^(2^k) to the bracket (2^(k-1), 2^k] and
  descending: O(log M) products.  The powers from top = 2^k on are the
  cycle A^top, ..., A^(top+p-1), each made once when first read and held;
  A^m for m >= M is its member top + (m - top) mod p.  The descent tests
  A^m against its member: A^m = A^(m+jp) with m < M would make the powers
  from m on repeat with period jp, so A^m = A^(m+p).  The minimality
  check and B_M read members, and the walk makes no power but members.
  From the crossover order 32 on (``boolmat._CROSSOVER_ORDER``), each
  level keeps only the squares A^(2^k), A^p, the cycle and the A^m in its
  bracket, [2^k, 2^(k+1)] after a failing gallop test at 2^k and [failing
  m, best m] in a descent: all a later level reads (``_Lift._drop``);
  below it nothing is let go.  Heap and Lynn (1964) bound M by
  (n-1)^2 + 1; a larger M raises TheoremViolationError;
* B_m = A^m (A^T)^m steps by X -> A X A^T and B_(M+p) = B_M, so the
  walk from B_M until it returns gives the cycle, of size the period c.
  The map keeps the cycle, so "B_m is on it", the same as B_m = B_(m+c),
  is monotone in m; B_M is on it, so the index q is found by the descent
  over (0, M], at most ceil(log2 M) grams and set lookups.  B_m on the
  cycle equals a member, so a level first reads row 1 of the gram of
  A^m (n ANDs) and fails without the gram when it is row 1 of no
  member.  Pigeonhole: a row of x and a column of y with more than n
  ones between them share an index, so x y is all ones, and no product
  is made, when x's lightest row and y's lightest column do.  The
  columns of x^T are x's rows, so a gram x x^T takes this when the two
  lightest rows of x do, at every order.  A power product x y
  (``boolmat._power_product``) takes it, from the crossover order 32 on
  and only when A is Toeplitz, when the lightest rows of x and y do: a
  power of a Toeplitz A is persymmetric, its column j row n+1-j read
  backwards, so its lightest column weighs what its lightest row does.
  A primitive A reaches J at its index, so its lift meets many such
  products.  Else x^T, x a power of a Toeplitz A, is J x J, J the
  reversal, since A^T = J A J (``boolmat._mirror``), and the product
  goes through OR tables of x^T (``boolmat._product``: 4-row tables
  below order 144, 8-row ones from it on);
* from the crossover order on (below it, row selection on a few rows
  costs less than packing), a Toeplitz A = T_n<S;T> steps by its offsets
  on its rows packed into one integer (``boolmat._ShiftKernel``): x -> x A is
  |S| + |T| shifts and B -> A B A^T twice that.  The offsets come from
  the caller's ToeplitzSpec when it has one, else from A's rows, and
  also give A's columns to ``power_period``.  One cost rule, stated at
  ``_ShiftKernel.cheaper``, prices e steps against the product they stand
  for.  So A^(m+e), priced by the ones of A^e, is e steps from A^m
  wherever the rule takes them: in the period test, for the members of
  the cycle and on the low levels of the index descent.  B_m moves by
  2^j steps of its map, against a gram, on every level of the descent
  for q where the rule takes them, and the cycle of B_M by single steps
  where it takes one; since 2^j halves from level to level, these are
  the last levels, and no A^m is made on them.  The lift
  holds a power as an int when shifts made it and as a BoolMatrix when a
  product did, and makes the other form at most once, the first time
  something reads it: packed integers compare and hash as the matrices
  do, so only a product, a gram and the members the walk yields unpack.
  The squares A^(2^k) are products where no shift step made them first
  (see ``_Lift.power``).

Heap-Lynn is the only bound on the search, and it is asserted; the
sweep and the tests hold the index, period and exact verdict to
``PowerSequence``'s linear scan.  On top sit the congruence-class
limit, an exact decision procedure for the walk-ensured property and
the rules that transfer a period, each lifting its base at most once;
``analyze`` assembles a ``PeriodReport``, rules first.
"""

from __future__ import annotations

from itertools import accumulate, count, islice, repeat, takewhile
from math import lcm
from typing import Callable, Iterator, NamedTuple, Optional

from .boolmat import (
    BoolMatrix,
    Offsets,
    PowerSequence,
    _CROSSOVER_ORDER,
    _check_powers,
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
from .walksets import _p_masks, _r_mask, _shifted_comb


class TheoremViolationError(RuntimeError):
    """A rule application contradicted the brute-force ground truth."""


def _gram(x: BoolMatrix, transpose: Callable[[BoolMatrix], BoolMatrix]) -> BoolMatrix:
    """x x^T = x transpose(x): (u, v) = 1 iff rows u and v of x share a column.
    Two rows with more than n ones between them share one, so when the two
    lightest rows do, every pair does and x x^T is all ones, diagonal included.
    This is the pigeonhole fact of ``boolmat._power_product`` with x's rows
    for the columns of x^T, so it needs neither of that test's premises (a
    persymmetric x, and order 32 or more).  Off the diagonal it pairs two
    distinct rows, and a nonempty row meets itself, so it reads the two
    lightest rows: a stronger test than the lightest row twice."""
    row_ones = sorted(map(int.bit_count, x.rows))
    if sum(row_ones[:2]) > x.n:
        return BoolMatrix.ones(x.n)
    return _product(x, transpose(x), sum(row_ones))


def _gram_row(x: BoolMatrix) -> int:
    """Row 1 of x x^T, bit v - 1 set iff rows 1 and v of x share a column: n ANDs."""
    first = x.rows[0]
    return sum(1 << v for v, r in enumerate(x.rows) if r & first)


class _Lift:
    """Index and period of A's powers by lifting, each power A^m that it makes
    kept under its exponent m.

    offsets = (S, T) with A = T_n<S;T>, when the caller holds them; they are
    read from A otherwise, and are None for a matrix that is not Toeplitz.
    The grams transpose A's powers by ``boolmat._mirror`` when A is Toeplitz,
    else by ``BoolMatrix.transpose``.  shifts is A's shift kernel
    (boolmat._shift_kernel), None below the crossover order and without
    offsets.  One memo: ``_rows[m]`` holds A^m as a BoolMatrix when a product
    made it, ``_packed[m]`` as an int when shift steps did, and ``rows(m)``
    and ``packed(m)`` make the other form at most once, the first time
    something reads it.  One maker: ``step(m, e)`` makes A^(m+e) from A^m,
    by e steps of shifts wherever the kernel's cost rule takes them.
    ``cycle`` holds top, ..., top + p - 1, into which ``member(m)`` folds
    m >= index.  One descent, ``least``, and one lifetime rule, ``_drop``.
    """

    def __init__(self, a: BoolMatrix, offsets: Optional[Offsets] = None):
        if offsets is None:
            offsets = _toeplitz_offsets(a)
        self.a, self._rows, self._packed, self.cycle = a, {1: a}, {}, range(0)
        self.persymmetric = offsets is not None  # A is Toeplitz: its powers are persymmetric
        self.transpose = _mirror if self.persymmetric else BoolMatrix.transpose
        self.shifts = _shift_kernel(a.n, offsets)
        self.period = p = power_period(a, offsets)
        bound = (a.n - 1) ** 2 + 1  # Heap and Lynn (1964): the index is at most this
        failed = TheoremViolationError(f"A^m = A^(m+{p}) holds for no m <= {bound}")
        k = 0  # gallop to the bracket (2^(k-1), 2^k] of the index
        while not self._same(self.power(1 << k), self.step(1 << k, p)):
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
        if any(p % e == 0 and self._same(top, self.member(top + e)) for e in range(1, p)):
            raise TheoremViolationError(f"period {p} of the components is not least")

    def member(self, m: int) -> int:
        """e = top + (m - top) mod p, the member A^m equals from the index on, made
        when first read by a step from the member before it if held, else from A^top."""
        e = self.cycle[(m - self.cycle.start) % len(self.cycle)]
        before = e - 1 if e - 1 in self._rows or e - 1 in self._packed else self.cycle.start
        return self.step(before, e - before)

    def _drop(self, lo: int, hi: int) -> None:
        """From the crossover order on, keep of the A^m only the squares, A^p, the
        cycle and the bracket [lo, hi], and a square outside them as rows alone."""
        if self.a.n < _CROSSOVER_ORDER:
            return
        kept = lambda m: lo <= m <= hi or m == self.period or m in self.cycle
        for m in [m for m in self._rows if m & (m - 1) and not kept(m)]:
            del self._rows[m]
        for m in [m for m in self._packed if not kept(m) and (m & (m - 1) or m in self._rows)]:
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
                self._rows[e] = _power_product(half, half, self.persymmetric)
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
                x, y = self.rows(m), self.rows(self.power(e))
                self._rows[m + e] = _power_product(x, y, self.persymmetric)
        return m + e

    def walk(self) -> Iterator[BoolMatrix]:
        """A^index, A^(index+1), ...: the members of the cycle they equal."""
        return map(self.rows, map(self.member, count(self.index)))

    def least(self, probe: Callable[[int, int], bool], lo: int, hi: int) -> int:
        """The least m in (lo, hi] where a test holds that fails exactly below
        some m, fails at lo and holds at hi.  probe(m, j) makes what the test
        reads at m + 2^j from the failing m and tests it there.  One probe per
        bit of hi - lo - 1, from the top: the failing m goes up by 2^j whenever
        the probe fails.  After each, ``_drop`` keeps [failing m, best m]."""
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
        """B_m = A^m (A^m)^T; its cycle is B_M, B_(M+1), ... up to the return to B_M,
        walked by B -> A B A^T on packed rows where the cost rule takes one step
        of it, else as the grams of walk().  Its members' first rows refute the
        descent's gram levels (``probe``)."""
        shifts = self.shifts if self.shifts and self.shifts.cheaper(1, conjugate=True) else None
        limit = _gram(next(powers := self.walk()), self.transpose)  # B_M, B_q on a cycle of one
        if shifts is None:
            b_index, later = limit, map(_gram, powers, repeat(self.transpose))
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
            x = _gram(self.rows(m), self.transpose) if m else BoolMatrix.identity(self.a.n)
            return shifts.pack(x) if shifts else x

        def probe(m: int, j: int) -> bool:
            """Whether B_(m+2^j) is on the cycle: 2^j steps of the map from B_m
            where the kernel's cost rule takes them, else the gram of
            A^(m+2^j), made only when its row 1 is row 1 of a member of the
            cycle, since B_m on the cycle is B_m equal to a member.  The shifted
            levels are, as 2^j falls, the last, so A^m is not made on them.  Only B
            at the failing m is held: a failing level keeps its B, and a shifted
            level with none (at m = 0 or after a refuted level) makes B_m once."""
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
    congruent = _p_masks(spec, index, index + lcm(period, prof.d_plus // prof.d))
    if any(p != _r_mask(x) for p, x in zip(congruent, powers_from_index)):
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
