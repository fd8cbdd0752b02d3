"""Period engine against naive brute-force oracles."""

import random
import tracemalloc
from collections import Counter
from itertools import islice

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from toeplitz_periods import (
    BoolMatrix,
    PowerSequence,
    TheoremViolationError,
    ToeplitzSpec,
    analyze,
    certify_walk_ensured,
    competition_analysis,
    decide_walk_ensured_exact,
    from_toeplitz,
    sink_source_same_period,
    superset_same_period,
)
from toeplitz_periods import boolmat, engine
from toeplitz_periods.boolmat import _toeplitz_offsets
from toeplitz_periods.engine import (
    _congruence,
    _gram,
    _Lift,
    matrix_period,
    predicted_limit,
)
from toeplitz_periods.oracle import SweepConfig, enumerate_specs, run_sweep
from toeplitz_periods.toeplitz import Rule, Verdict, check_star, gcd_profile
from toeplitz_periods.walksets import p_set, r_set

from conftest import (
    PROPERTY,
    descriptors,
    j_conjugate,
    naive_competition_sequence,
    naive_from_boolmat,
    naive_multiply,
    naive_power_cycle,
    naive_transpose,
    random_boolmat,
    record_calls,
    scanned_competition,
    scanned_cycle,
)

WORKED = ToeplitzSpec(6, (2, 4), (5,))


# --------------------------------------------------------------------------
# matrix (index, period)
# --------------------------------------------------------------------------


def test_matrix_period_frozen_values():
    assert matrix_period(from_toeplitz(WORKED)) == (6, 1)
    assert matrix_period(from_toeplitz(ToeplitzSpec(2, (1,), (1,)))) == (1, 2)
    assert matrix_period(from_toeplitz(ToeplitzSpec(4, (1,), (1,)))) == (2, 2)
    assert matrix_period(from_toeplitz(ToeplitzSpec(5, (1, 4), (2, 3)))) == (6, 1)
    assert matrix_period(BoolMatrix.zeros(3)) == (1, 1)
    assert matrix_period(BoolMatrix.identity(3)) == (1, 1)


def test_matrix_period_matches_naive_exhaustive():
    for n in range(2, 5):
        for spec in enumerate_specs(n):
            a = from_toeplitz(spec)
            assert matrix_period(a) == naive_power_cycle(naive_from_boolmat(a))


def test_matrix_period_matches_naive_random(rng):
    for _ in range(60):
        a = random_boolmat(rng, rng.randint(2, 6), density=0.3)
        assert matrix_period(a) == naive_power_cycle(naive_from_boolmat(a))


def test_matrix_period_of_disjoint_cycles_is_the_lcm():
    # cycles of lengths 2, 3 and 4 with a path of length 3 draining into
    # the 4-cycle: period lcm(2, 3, 4) = 12, index 3 (the path's length)
    arcs = [(1, 2), (2, 1), (3, 4), (4, 5), (5, 3), (6, 7), (7, 8), (8, 9), (9, 6)]
    arcs += [(10, 11), (11, 12), (12, 6)]
    a = BoolMatrix.from_entries(12, arcs)
    assert matrix_period(a) == PowerSequence(a).cycle() == (3, 12)
    got = competition_analysis(a)
    assert (got.index, got.period, got.limit) == scanned_competition(a)


# a wrong period from the components, or the index the descent lands on; a case's
# id leaves out the slot it leaves None
HEAP_LYNN_CASES = [
    ("n=2;S=1;T=1", 1, None, r"A\^m = A\^\(m\+1\) holds for no m <= 2"),
    ("n=5;S=1;T=1,2", 2, None, "period 2 of the components is not least"),
    ("n=5;S=1;T=1,2", 6, None, "period 6 of the components is not least"),
    ("n=5;S=1;T=1,2", None, 18, r"A\^m = A\^\(m\+1\) holds for no m <= 17"),
]


@pytest.mark.parametrize(
    "text, wrong_period, wrong_index, message",
    HEAP_LYNN_CASES,
    ids=["-".join(str(v) for v in case if v is not None) for case in HEAP_LYNN_CASES],
)
def test_lift_asserts_heap_lynn_and_the_least_period(
    monkeypatch, text, wrong_period, wrong_index, message
):
    # Heap-Lynn, index <= (n-1)^2 + 1, is the one bound on the index search;
    # a wrong period from the components breaks it or the minimality check,
    # and a descent that lands one above the bound breaks it too
    if wrong_period is not None:
        monkeypatch.setattr(engine, "power_period", lambda *_: wrong_period)
    if wrong_index is not None:
        monkeypatch.setattr(_Lift, "least", lambda *_: wrong_index)
    with pytest.raises(TheoremViolationError, match=message):
        matrix_period(from_toeplitz(ToeplitzSpec.from_string(text)))


def _cycles(*lengths):
    """The permutation matrix of disjoint cycles of the given lengths, whose
    powers have index 1 and period the lcm of the lengths."""
    starts = [sum(lengths[:k]) for k in range(len(lengths))]
    return BoolMatrix(1 << s + (i + 1) % n for s, n in zip(starts, lengths) for i in range(n))


def test_the_period_is_tested_least_at_one_member_per_prime(monkeypatch):
    # A^top against A^(top + p/r) for each prime r | p: every proper divisor
    # of p divides some p/r.  Cycles of lengths 2, 3, 5, ..., 19 have p =
    # 9,699,690, with 255 proper divisors and 8 primes.  Each B_m of a
    # permutation is I, so the scan's twin closes B at step 2 and reads A
    # alone of A's 9.7M powers; matrix_period's twin runs on a smaller
    # product of cycles
    members = record_calls(monkeypatch, (_Lift, "member"))
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    a = _cycles(*primes)
    lift = _Lift(a)
    assert (lift.index, lift.period) == (1, 9699690)
    assert [m for _, m in members.args["member"]] == [1 + lift.period // r for r in primes]
    assert competition_analysis(a) == scanned_competition(a) == (1, 1, BoolMatrix.identity(a.n))
    small = _cycles(2, 3, 5, 7, 17)
    assert matrix_period(small) == scanned_cycle(small) == (1, 3570)
    assert competition_analysis(small) == scanned_competition(small)


def test_powers_constant_from_index_on():
    for spec in (WORKED, ToeplitzSpec(5, (2,), (2, 4)), ToeplitzSpec(6, (3,), (3,))):
        a = from_toeplitz(spec)
        index, period = matrix_period(a)
        ps = PowerSequence(a)
        for m in range(index, index + 2 * period + 3):
            assert ps.power(m) == ps.power(m + period)
        if index > 1:
            assert ps.power(index - 1) != ps.power(index - 1 + period)


# --------------------------------------------------------------------------
# competition sequence
# --------------------------------------------------------------------------


def brute_competition(a, length=40, probe=18):
    """(index, period) of A^m (A^T)^m read off a long explicit prefix."""
    seq = naive_competition_sequence(naive_from_boolmat(a), length)
    tail_start = length - probe
    period = next(
        p
        for p in range(1, probe)
        if all(seq[m] == seq[m + p] for m in range(tail_start, length - p))
    )
    index = tail_start + 1
    while index > 1 and seq[index - 2] == seq[index - 2 + period]:
        index -= 1
    return index, period


def test_competition_matches_brute_force_exhaustive():
    for n in range(2, 6):
        for spec in enumerate_specs(n):
            a = from_toeplitz(spec)
            got = competition_analysis(a)
            assert (got.index, got.period) == brute_competition(a), spec
            if got.period == 1:
                want = naive_competition_sequence(naive_from_boolmat(a), 30)[-1]
                assert naive_from_boolmat(got.limit) == want


def test_competition_worst_family_matches_brute_force():
    # index (n-1)^2: the competition orbit closes well before that bound
    for n in range(6, 10):
        a = from_toeplitz(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
        got = competition_analysis(a)
        assert (got.index, got.period) == brute_competition(a, (n - 1) ** 2 + 20), n
        assert got.index + got.period < (n - 1) ** 2
        want = naive_competition_sequence(naive_from_boolmat(a), got.index)[-1]
        assert got.period == 1 and naive_from_boolmat(got.limit) == want


def test_competition_frozen_values():
    got = competition_analysis(from_toeplitz(WORKED))
    assert (got.index, got.period) == (6, 1)
    got = competition_analysis(from_toeplitz(ToeplitzSpec(4, (1,), (1,))))
    assert (got.index, got.period) == (1, 1)
    # a descriptor whose competition sequence genuinely oscillates
    got = competition_analysis(from_toeplitz(ToeplitzSpec(6, (2, 3, 4), (5,))))
    assert (got.index, got.period) == (3, 3)
    assert got.limit is None


def test_competition_of_zero_matrix():
    got = competition_analysis(BoolMatrix.zeros(4))
    assert (got.index, got.period) == (1, 1)
    assert got.limit == BoolMatrix.zeros(4)


def test_competition_rejects_foreign_powers():
    spec = ToeplitzSpec(3, (1,), (1,))
    a = from_toeplitz(spec)
    other = PowerSequence(from_toeplitz(ToeplitzSpec(3, (2,), (1,))))
    for call in (
        lambda: competition_analysis(a, powers=other),
        lambda: decide_walk_ensured_exact(spec, powers=other),
    ):
        with pytest.raises(ValueError, match="different matrix"):
            call()
    shared = PowerSequence(a)
    assert competition_analysis(a, powers=shared) == competition_analysis(a)


# --------------------------------------------------------------------------
# the descent over (lo, hi] and the gram shortcut it tests with
# --------------------------------------------------------------------------


def test_descent_finds_every_threshold_within_one_test_per_bit():
    # N^m of the order-70 shift matrix has 70 - m ones, so "count <= 70 - t"
    # fails exactly below m = t; lo is 0 or the bracket the index gallop
    # leaves, the largest power of two below t; the descent takes and returns
    # exponents, and each probe steps from the failing m to N^(m+2^j), which
    # N = T_70<1;> makes packed on the last levels and is read as rows here.
    # Each level lets go of what the next does not read, so each power is
    # checked against N^m when it is probed
    a = BoolMatrix([1 << (i + 1) for i in range(69)] + [0])
    lift, powers = _Lift(a), {m: a.power(m) for m in range(1, 65)}
    for hi in range(1, 65):
        for t in range(1, hi + 1):
            for lo in {0, 1 << (t - 1).bit_length() >> 1}:
                probed = []

                def probe(m, j):
                    x = lift.rows(lift.step(m, 1 << j))
                    probed.append(m + (1 << j))
                    assert x == powers[m + (1 << j)], (lo, t, hi, m, j)
                    return x.count() <= 70 - t

                assert lift.least(probe, lo, hi) == t, (lo, t, hi)
                assert len(probed) <= (hi - lo - 1).bit_length(), (lo, t, hi)


def test_competition_search_makes_one_gram_per_bit_of_the_index(monkeypatch):
    # a count, not a time: the search tests B_m only inside (0, M], with one
    # gram for B_M and at most one per level of the descent whose 2^j steps of
    # B -> A B A^T the kernel's cost rule prices above a product (2^j > 33
    # here); the six levels below step B_m by the map.  A gram level whose
    # row 1 of the gram is not that of B_M fails without the gram, so grams
    # are made for B_M, the two levels that pass (8192 and 8064) and the
    # failing m = 8000 that the first shifted level steps from
    grams = record_calls(monkeypatch, (engine, "_gram"))
    n = 128
    lift = _Lift(from_toeplitz(ToeplitzSpec(n, (1,), (n - 2, n - 1))))
    comp = lift.competition()
    assert (comp.index, comp.period) == (8064, 1)
    levels = range((lift.index - 1).bit_length())
    gram_levels = sum(not lift.shifts.cheaper(1 << j, conjugate=True) for j in levels)
    assert grams["_gram"] == 4 < 1 + gram_levels == 9


def test_a_refuted_level_makes_no_gram(monkeypatch):
    # a count, not a time: a gram level reads row 1 of the gram of A^m (n
    # ANDs) first; when it is row 1 of no member of B's cycle, B_m is not on
    # the cycle and the level fails without the gram, unless a shifted level
    # later steps B from there.  On the worst family the cycle is B_M alone
    gram_row = engine._gram_row
    calls = record_calls(monkeypatch, (engine, "_gram_row"), (engine, "_gram"))
    for n in (48, 64, 80, 128):
        calls.clear()
        a = from_toeplitz(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
        lift = _Lift(a)
        comp = lift.competition()
        read = [x for x, in calls.args["_gram_row"]]
        matched = [x for x in read if gram_row(x) == comp.limit.rows[0]]
        refuted = [x for x in read if gram_row(x) != comp.limit.rows[0]]
        assert matched and refuted, n
        # grams of A^M (read as A^top, the member of the cycle it equals), of
        # the matched levels and, after every gram level, of the last refuted
        # one: the failing m the first shifted level steps from
        made = [x for x, _ in calls.args["_gram"]]
        assert made == [next(lift.walk()), *matched, refuted[-1]], n


def test_an_analyze_worst_pass_makes_5_gram_products_and_26_packs(monkeypatch):
    # a count, not a time, over the benchmark's worst-family orders: the
    # grams of B_M and of the levels whose row matches the limit's, and the
    # packs of the shift steps' inputs (the identity only where a shifted
    # level steps B from m = 0); the gallop's return test reads rows and
    # packs only A, for the shift step to the square A^2; work added to a
    # descent level fails here without a timing
    counts = record_calls(
        monkeypatch, (engine, "_product"), (engine, "_gram"), (boolmat._ShiftKernel, "pack")
    )
    for n in (48, 64, 80):
        analyze(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
    assert counts == {"_product": 5, "_gram": 17, "pack": 26}


def test_the_sweep_makes_5115_power_products_and_1322_gram_products(monkeypatch):
    # a count, not a time, over the sweep-exhaustive workload's orders 2..6:
    # below order 32 the lift lets no power go, so none is made twice, and
    # the gallop's return test makes no A^(2^k + p)
    counts = record_calls(
        monkeypatch, (boolmat, "_product", "power"), (engine, "_product", "gram"), (engine, "_gram")
    )
    run_sweep(SweepConfig(2, 6))
    assert counts == {"power": 5115, "gram": 1322, "_gram": 3558}


@pytest.mark.parametrize(
    "text", ["n=128;S=1;T=126,127", "n=96;S=64,70,82;T=5", "n=160;S=10,36;T=16"]
)
def test_each_level_holds_only_the_squares_the_bracket_and_the_cycle(monkeypatch, text):
    # the one lifetime rule, from order 32 on: after every level of the index
    # descent and of the competition descent the lift holds A^m only for the
    # squares, A^p, the members of the cycle A^top, ..., A^(top+p-1) and the
    # m inside the level's bracket [failing m, best m]; it holds no B_m
    # (periods 1, 3 and 13 here)
    least, levels = _Lift.least, []

    def checked(lift, probe, lo, hi):
        bracket, levels_here = [lo, hi], []

        def assert_held():
            within = {*range(bracket[0], bracket[1] + 1), *lift.cycle, lift.period}
            powers = {*lift._rows, *lift._packed}
            assert {e for e in powers if e & (e - 1)} <= within, (text, bracket)

        def level(m, j):
            assert m == bracket[0]
            if levels_here:
                assert_held()
            passed = probe(m, j)
            bracket[passed] = m + (1 << j)
            levels_here.append(m + (1 << j))
            return passed

        best = least(lift, level, lo, hi)
        assert best == bracket[1]
        assert_held()
        levels.append(len(levels_here))
        return best

    monkeypatch.setattr(_Lift, "least", checked)
    analyze(ToeplitzSpec.from_string(text))
    assert len(levels) == 2 and all(levels), levels


def test_analysis_unpacks_only_the_square_a_shift_step_made(monkeypatch):
    # T_128<1;126,127> steps by shifts; its powers stay packed except where
    # rows are read.  The one unpack is A^2, made by a shift step in the
    # first return test and read as rows once, by the next return test and
    # the square A^4.  The gram
    # B_M reads A^top, the one member of the cycle, which the squares made as
    # rows.  The two grams that are not all ones mirror their rows, and
    # nothing runs the transpose
    calls = record_calls(
        monkeypatch,
        (engine, "_gram"),
        (boolmat._ShiftKernel, "unpack"),
        (engine, "_mirror"),
        (BoolMatrix, "transpose"),
    )
    n = 128
    report = analyze(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
    assert (report.matrix_index, report.competition_index) == ((n - 1) ** 2, 8064)
    assert report.certificate.rule is Rule.STAR
    assert calls == {"_gram": 4, "unpack": 1, "_mirror": 2}


def test_competition_with_the_row_check_equals_the_scan_on_every_small_descriptor():
    # and at orders 0 and 1, where the descent runs no level and reads no row
    for n in (0, 1):
        for a in (BoolMatrix.zeros(n), BoolMatrix.identity(n), BoolMatrix.ones(n)):
            comp = competition_analysis(a)
            assert (comp.index, comp.period, comp.limit) == scanned_competition(a), a
    for n in range(2, 7):
        for spec in enumerate_specs(n):
            a = from_toeplitz(spec)
            comp = competition_analysis(a)
            assert (comp.index, comp.period, comp.limit) == scanned_competition(a), spec


def test_competition_with_the_row_check_equals_the_scan_on_the_worst_family():
    # index (n-1)^2: about a dozen gram levels, most refuted by their row
    for n in range(32, 49):
        a = from_toeplitz(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
        comp = competition_analysis(a)
        assert (comp.index, comp.period, comp.limit) == scanned_competition(a), n


# The cost rule shifts every level of these inputs' descent, so their test
# refuses the kernel's conjugate steps to make every level a gram level
_SHIFTED_AT_EVERY_LEVEL = [
    ("n=32;S=5,9;T=29", 6),
    ("n=33;S=5,9;T=31", 12),
    ("n=35;S=10,25;T=29,32", 3),
    ("n=41;S=19;T=23,33", 16),
    ("n=42;S=29;T=15,27", 4),
    ("n=43;S=17,25;T=31", 8),
]


@pytest.mark.parametrize(
    "text, period",
    _SHIFTED_AT_EVERY_LEVEL
    + [  # an index large enough for levels whose 2^j steps the rule prices above a product
        ("n=46;S=22,23,27;T=27", 2),
        ("n=54;S=42,48,50;T=18,27", 3),
        ("n=72;S=20,46;T=53", 6),
        ("n=82;S=6,62,70;T=79", 19),
        ("n=85;S=73,84;T=32,37,53,61", 3),
        ("n=90;S=27,36,87;T=77", 8),
    ],
)
def test_row_check_against_a_cycle_of_several_members_equals_the_scan(monkeypatch, text, period):
    # competition period above 1: on a gram level row 1 of the level's gram is
    # matched against row 1 of every member
    read = record_calls(monkeypatch, (engine, "_gram_row"))
    cheaper = boolmat._ShiftKernel.cheaper
    if (text, period) in _SHIFTED_AT_EVERY_LEVEL:
        monkeypatch.setattr(
            boolmat._ShiftKernel,
            "cheaper",
            lambda self, e, ones=None, conjugate=False: not conjugate and cheaper(self, e, ones),
        )
    a = from_toeplitz(ToeplitzSpec.from_string(text))
    comp = competition_analysis(a)
    assert (comp.index, comp.period, comp.limit) == scanned_competition(a)
    assert comp.period == period and read


def test_index_test_against_the_limit_equals_the_scan_on_the_worst_family():
    # period 1: the index descent compares A^m with A^top, the gallop's 2^k
    # and the one member of the cycle
    for n in range(32, 65):
        a = from_toeplitz(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
        lift = _Lift(a)
        assert (lift.index, lift.period) == scanned_cycle(a) == ((n - 1) ** 2, 1), n


def _return_tests_against_the_powers(spec):
    """Whether the row of A^m at which A^m and A^(m+p) first differ is row
    n, for each pair that differs, after holding the lift's return test to
    A^m == A^(m+p) for the lift's m = 2^k up to its top and for p its period
    and 1..4."""
    a = from_toeplitz(spec)
    lift = _Lift(a, (spec.S, spec.T))
    steps = {p: a.power(p) for p in {lift.period, 1, 2, 3, 4}}
    at_row_n, x = [], a
    for m in (1 << k for k in range(lift.cycle.start.bit_length())):
        for p, y in sorted(steps.items()):
            later = x @ y
            assert lift._returns(m, p) == (x == later), (spec, m, p)
            if x != later:
                first = next(i for i, (r, s) in enumerate(zip(x.rows, later.rows)) if r != s)
                at_row_n.append(first == spec.n - 1)
        x = x @ x
    return at_row_n


def test_the_return_test_on_rows_equals_the_powers():
    # _returns(m, p) decides A^m = A^(m+p) on the rows of A^m, stopping at
    # the first row that differs, or, from order 32 on, by pigeonhole; held
    # to A^m == A^m A^p on every descriptor of orders 2..6, on the worst
    # family and on 30 seeded draws at each of n = 31, 32, 33 and 64, whose
    # lifts have a kernel from order 32 on.  Some pairs first differ at row
    # n, so a test that stops a row short fails here
    rng = random.Random(20261021)
    specs = [spec for n in range(2, 7) for spec in enumerate_specs(n)]
    for n in (31, 32, 33, 64):
        specs.append(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
        for _ in range(30):
            S = rng.sample(range(1, n), rng.randint(1, 3))
            specs.append(ToeplitzSpec(n, S, rng.sample(range(1, n), rng.randint(1, 3))))
    at_row_n = [first for spec in specs for first in _return_tests_against_the_powers(spec)]
    assert any(at_row_n) and not all(at_row_n)
    assert True in _return_tests_against_the_powers(ToeplitzSpec(4, (1, 2), (1,)))


def test_a_step_between_rows_that_cover_n_is_all_ones_with_no_shift(monkeypatch):
    # from order 32 on, step(m, e) of a Toeplitz lift is all ones, with no
    # shift step, when A^m and A^e are held as rows whose counted lightest
    # rows hold more than n ones between them.  At n = 256 with 50 offsets
    # a side the one shift step of each lift makes A^2; at index 3 the
    # descent's step to A^3 is all ones, as the return test found A^4 by its
    # own pigeonhole, and a shift step there would be the second
    steps, indices = record_calls(monkeypatch, (boolmat._ShiftKernel, "times")), []
    rng = random.Random(5)
    for _ in range(3):
        spec = ToeplitzSpec(256, rng.sample(range(1, 256), 50), rng.sample(range(1, 256), 50))
        a = from_toeplitz(spec)
        lift = _Lift(a, (spec.S, spec.T))
        assert (lift.index, lift.period) == PowerSequence(a).cycle()
        indices.append(lift.index)
        if lift.index == 3:
            assert lift.rows(2).weights()[0] + a.weights()[0] > spec.n
            assert lift.rows(3) == BoolMatrix.ones(spec.n) == a.power(3)
    assert [e for _, _, e in steps.args["times"]] == [1, 1, 1] and indices == [3, 2, 3]


def test_analysis_of_the_worst_family_at_order_256_peaks_below_one_mib():
    # each descent level lets go of the powers and grams no later level reads,
    # and a square keeps one form: the traced peak was 1.50 MiB when the
    # index search held all of them until it ended
    spec = ToeplitzSpec(256, (1,), (254, 255))
    analyze(spec)  # fills the caches outside the lift
    tracemalloc.start()
    try:
        analyze(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


@pytest.mark.parametrize("side, mib", [(60, 1), (200, 0.5)])
def test_analysis_with_many_offsets_at_order_512_peaks_below_the_old_layout(side, mib):
    # S = T = {1, ..., side}: 60 a side steps with 8 keep masks held and 52
    # made at each shift, 200 a side has no kernel; the traced peaks were
    # 2.07 and 0.49 MiB on fields of n + max(S u T) bits, and 10.0 and 28.4
    # MiB when the kernel held a mask per offset and direction
    spec = ToeplitzSpec(512, range(1, side + 1), range(1, side + 1))
    analyze(spec)  # fills the caches outside the lift
    tracemalloc.start()
    try:
        analyze(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * (1 << 20)


def test_lifted_competition_equals_the_scan_above_order_32():
    # the table kernel and the shift kernel take over at order 32
    rng, checked = random.Random(20261018), 0
    while checked < 6:
        n = rng.randint(32, 64)
        side = lambda: rng.sample(range(1, n), rng.randint(1, 3))
        a = from_toeplitz(ToeplitzSpec(n, side(), side()))
        if matrix_period(a)[0] > 300:
            continue
        comp = competition_analysis(a)
        assert (comp.index, comp.period, comp.limit) == scanned_competition(a)
        checked += 1


def test_lifted_walk_and_exact_decision_equal_the_scan_above_order_32():
    # from order 32 on the walk reads the members of the cycle, made by
    # shifts, and unpacks each once; it and the verdict read from it are held
    # to the scan.  Every other draw takes S = 1 and T = 2 mod 3, so that 3
    # divides the period
    rng, checked, verdicts, periods = random.Random(20261019), 0, set(), set()
    while checked < 12:
        n, mod = rng.randint(32, 64), 3 if checked % 2 else 1
        side = lambda r: rng.sample(range(r, n, mod), rng.randint(1, 3))
        spec = ToeplitzSpec(n, side(1), side(2 % mod or 1))
        a = from_toeplitz(spec)
        lift = _Lift(a)
        if lift.shifts is None or lift.index > 300:
            continue
        scan = PowerSequence(a)
        assert (lift.index, lift.period) == scan.cycle()
        walked = list(islice(lift.walk(), lift.period + 2))
        assert walked == [scan.power(lift.index + i) for i in range(lift.period + 2)], spec
        decided = decide_walk_ensured_exact(spec)
        assert decided == decide_walk_ensured_exact(spec, powers=scan), spec
        verdicts.add(decided[0])
        periods.add(lift.period > 1)
        checked += 1
    assert verdicts == periods == {True, False}


@st.composite
def cost_rule_cases(draw):
    """(T_n<S;T>, e, x, packed) with n in {32, 33, 64, 127, 160}, up to three
    offsets a side, 1 <= e <= 25 n // (c ceil(n / 8)) + 2, c = |S| + |T|, so
    that e steps fall on both sides of the cost rule against a dense factor,
    and x a power of A ("power", m), held packed by the lift or not, or a
    random matrix ("random", seed, density)."""
    n = draw(st.sampled_from((32, 33, 64, 127, 160)))
    S = draw(st.sets(st.integers(1, n - 1), max_size=3))
    T = draw(st.sets(st.integers(1, n - 1), min_size=0 if S else 1, max_size=3))
    e = draw(st.integers(1, 25 * n // ((len(S) + len(T)) * ((n + 7) // 8)) + 2))
    power = st.tuples(st.just("power"), st.integers(1, 2 * n))
    matrix = st.tuples(st.just("random"), st.integers(0, 2**32), st.sampled_from((0.03, 0.3)))
    return ToeplitzSpec(n, S, T), e, draw(st.one_of(power, matrix)), draw(st.booleans())


@PROPERTY
@given(cost_rule_cases())
@example((ToeplitzSpec(33, (1,), (2, 32)), 55, ("power", 5), True))  # e c = 165, the bound
@example((ToeplitzSpec(32, (1,), (30, 31)), 67, ("random", 7, 0.03), False))  # a step past
@example((ToeplitzSpec(64, (1,), (7, 62, 63)), 50, ("random", 1, 0.3), True))  # e c = 200
@example((ToeplitzSpec(64, (1, 9), (5, 62, 63)), 41, ("power", 70), True))  # a step past
@example((ToeplitzSpec(127, (1, 2), (125, 126)), 50, ("random", 3, 0.03), True))  # a step past
@example((ToeplitzSpec(160, (3, 50, 77), (5, 90)), 40, ("power", 40), False))  # e c = 200
@example((ToeplitzSpec(160, (1,), (158, 159)), 8, ("power", 9000), True))  # sparse A^e
def test_steps_and_products_agree_on_both_sides_of_the_cost_rule(case):
    # step(m, e) makes A^(m+e) by e steps of c = |S| + |T| shifts where the
    # kernel's rule takes them, while e c n ceil(n / 8) <= 200 n^2 / 8 and
    # fewer when A^e is sparse, else by a product, and as all ones when A^m
    # and A^e are rows whose counted lightest rows hold more than n ones;
    # either way it and "A^(top+e) = A^top" match the powers.  The lift's
    # product may put A^e first, which only a power x allows, so a random x
    # is held to the kernel's steps alone
    spec, e, x, packed = case
    a = from_toeplitz(spec)
    lift = _Lift(a)
    power = a.power(e)
    n, c = spec.n, len(spec.S) + len(spec.T)
    assert lift.shifts.cheaper(e) == (8 * e * c * ((n + 7) // 8) <= 200 * n)
    assert lift.ones(e) == power.count()
    if x[0] == "power":
        m = lift.power(x[1])
        if packed:
            lift.packed(m)
        made = m + e not in lift._rows and m + e not in lift._packed
        counted = [x._weights for x in map(lift._rows.get, (m, e)) if x is not None and x._weights]
        full = len(counted) == 2 and counted[0][0] + counted[1][0] > n
        assert lift.step(m, e) == m + e
        if made:
            assert (m + e in lift._packed) == (not full and lift.shifts.cheaper(e, power.count()))
        assert lift.rows(m + e) == a.power(m) @ power
    else:
        x = random_boolmat(random.Random(x[1]), spec.n, x[2])
        assert lift.shifts.unpack(lift.shifts.times(lift.shifts.pack(x), e)) == x @ power
    top = lift.cycle.start
    at_top = a.power(top)
    assert lift._same(top, lift.step(top, e)) == (at_top @ power == at_top)


def test_dense_offsets_take_products_where_shifts_cost_more():
    # one step of x -> x A moves c n ceil(n / 8) bytes, c counting a shift
    # by one of the first 8 offsets of S u T as 1 and by any other, which
    # makes its keep mask, as 5/3, and B -> A B A^T twice that: from 2 c
    # above 25 n / ceil(n / 8) (200 at n = 128 and 160, 189 at n = 129) one
    # step of B costs more than a dense product, and from c above it one
    # step of x does too, and the lift has no kernel (c = 164 at n = 128,
    # 313 and 330 at n = 129 and 160); it then multiplies, and every number
    # is held to the scans
    rng = random.Random(20261020)
    for n, size in ((128, 51), (129, 96), (160, 101)):
        spec = ToeplitzSpec(n, rng.sample(range(1, n), size), rng.sample(range(1, n), size))
        a = from_toeplitz(spec)
        lift = _Lift(a, (spec.S, spec.T))
        held = sorted({*spec.S, *spec.T})[:8]
        thirds = sum(3 if k in held else 5 for k in (*spec.S, *spec.T))
        assert (lift.shifts is not None) == (8 * thirds * ((n + 7) // 8) <= 3 * 200 * n)
        assert not (lift.shifts and lift.shifts.cheaper(1, conjugate=True))
        scan = PowerSequence(a)
        assert (lift.index, lift.period) == scan.cycle()
        comp = lift.competition()
        assert (comp.index, comp.period, comp.limit) == scanned_competition(a)
        walked = list(islice(lift.walk(), lift.period + 2))
        assert walked == [scan.power(lift.index + i) for i in range(lift.period + 2)]


@pytest.mark.parametrize(
    "text, products, grams, rebuilt",
    [
        ("n=128;S=1;T=126,127", 28, 4, 3),
        ("n=96;S=64,70,82;T=5", 12, 4, 8),  # period 3
        ("n=160;S=10,36;T=16", 5, 1, 3),  # period 13
        ("n=48;S=1;T=46,47", 17, 6, 2),  # the analyze-worst orders
        ("n=64;S=1;T=62,63", 21, 4, 3),
        ("n=80;S=1;T=78,79", 23, 7, 3),
    ],
)
def test_analysis_counts_products_grams_and_unpacks(monkeypatch, text, products, grams, rebuilt):
    # a count, not a time: x A^e steps by shifts on the levels of the index
    # descent, in the return test where 2^k + p is a power of two and for
    # the members of the cycle wherever the kernel's rule takes e steps; the
    # squares and the higher levels multiply, and a power the lift holds is
    # not made again.  Products are counted in both modules: boolmat's
    # _power_product for powers, engine's _gram for grams.  rebuilt counts
    # the rows made other than by a product: the powers unpacked from shift
    # steps (A^p for the return test when steps made it) and the mirrors,
    # one per gram product
    counts = record_calls(
        monkeypatch,
        (boolmat, "_product", "power"),
        (engine, "_product", "gram"),
        (engine, "_gram"),
        (boolmat._ShiftKernel, "unpack"),
        (engine, "_mirror"),
    )
    analyze(ToeplitzSpec.from_string(text))
    assert counts["power"] + counts["gram"] == products
    assert counts["_gram"] == grams
    assert counts["_mirror"] == counts["gram"]
    assert counts["unpack"] + counts["_mirror"] == rebuilt


class _Memo(dict):
    """One of a lift's two memos, logging ("made", m) when it takes A^m while
    neither memo holds it and ("dropped", m) when it lets A^m go."""

    def __init__(self, lift, log, held):
        super().__init__(held)
        self._lift, self._log = lift, log

    def __setitem__(self, m, x):
        if m not in self._lift._rows and m not in self._lift._packed:
            self._log.append(("made", m))
        super().__setitem__(m, x)

    def __delitem__(self, m):
        self._log.append(("dropped", m))
        super().__delitem__(m)


@pytest.mark.parametrize(
    "text, remade",
    [
        ("n=4;S=1;T=1", set()),  # below order 32 nothing is let go
        ("n=128;S=1;T=126,127", set()),
        ("n=121;S=83,85;T=46,102,118", set()),  # the first analyze-random draw of seed 1
        # period 11, top 16: the index descent reads A^3 again, for the A^7
        # of the step from A^16 to the member A^23 of its level at 12; A^3
        # went into the A^11 of the return tests, and the gallop's first
        # level let it go.  No 2^k + 11 is a power of two, so the return tests
        # make no A^(2^k + p), and A^12 is made once, by the descent
        ("n=99;S=6;T=27", {3}),
        # period 1, top 256: the gallop's failing test at 128 reads the rows
        # of A^128 and makes no A^129, which the index descent's last level
        # makes, once (M = 129)
        ("n=151;S=11,146;T=81,143", set()),
        # the competition descent's gram levels read A^(64+32) again: the
        # competition index q = 65 lies above 2^(k-1) = 64, so its descent
        # passes where the index descent did
        ("n=156;S=1,127;T=63,84", {96}),
    ],
    ids=lambda value: value if isinstance(value, str) else ",".join(map(str, sorted(value))) or "none",
)
def test_analysis_makes_each_power_once_but_for_what_the_drop_let_go(monkeypatch, text, remade):
    # each A^m is made once and kept under m; the one way to make it again is
    # a drop (from order 32 on), after the index search or a level of a descent
    log = []

    def memo_setattr(lift, name, value):
        if name in ("_rows", "_packed"):
            value = _Memo(lift, log, value)
        object.__setattr__(lift, name, value)

    monkeypatch.setattr(_Lift, "__setattr__", memo_setattr)
    analyze(ToeplitzSpec.from_string(text))
    made, dropped, again = set(), set(), set()
    for event, m in log:
        if event == "dropped":
            dropped.add(m)
        elif m in made:
            assert m in dropped, (text, m)
            again.add(m)
        made.add(m)
    assert again == remade


@pytest.mark.parametrize(
    "text", ["n=72;S=8,50;T=34,39", "n=96;S=36,86;T=37,65", "n=68;S=9,34,61;T=17"]
)
def test_a_shifted_level_after_a_refuted_one_makes_its_gram_once(monkeypatch, text):
    # a count, not a time: the competition holds B at its failing m only.
    # On all three a gram level that the row check refutes sets the failing m
    # of the first shifted level, which makes B_m as the gram of A^m, once;
    # every later shifted level steps from the B it holds, so a B held at
    # the wrong m would move the index off the scan's.  B_M and the gram
    # levels that pass are all ones, the limit J, and take no product
    grams = record_calls(monkeypatch, (engine, "_product"))
    spec = ToeplitzSpec.from_string(text)
    report = analyze(spec)
    got = (report.competition_index, report.competition_period, report.limit_matrix)
    assert got == scanned_competition(from_toeplitz(spec)), text
    assert grams["_product"] == 1, text


@pytest.mark.parametrize(
    "text", ["n=128;S=1;T=126,127", "n=96;S=64,70,82;T=5", "n=160;S=10,36;T=16"]
)
def test_the_lift_keeps_the_squares_and_the_cycle(text):
    # after the index search only A^(2^k) for 2^k up to the bracket's top,
    # A^p, the members of the cycle A^top, ..., A^(top+p-1), top = 2^k, that
    # the descent and the minimality check read, and the last level's
    # bracket [M - 1, M] stay (periods 1, 3 and 13 here)
    spec = ToeplitzSpec.from_string(text)
    lift = _Lift(from_toeplitz(spec), (spec.S, spec.T))
    top = 1 << (lift.index - 1).bit_length()
    squares = {1 << k for k in range(top.bit_length())}
    kept = squares | set(lift.cycle) | {lift.period, lift.index - 1, lift.index}
    assert lift.cycle == range(top, top + lift.period)
    assert squares <= set(lift._rows) | set(lift._packed) <= kept


@pytest.mark.parametrize(
    "text",
    ["n=128;S=1;T=126,127", "n=96;S=64,70,82;T=5", "n=160;S=10,36;T=16", "n=10;S=2;T=3"],
)
def test_the_walk_makes_no_power_outside_the_cycle(text):
    # A^m for m >= M is the member top + (m - top) mod p of the cycle, so
    # the walk from A^M, twice round the cycle and on, adds to the lift only
    # the members nothing read before, each once, and a second walk adds
    # nothing (periods 1, 3, 13 and, below order 32, 5).  It equals the
    # powers by squaring: a scan of T_128<1;126,127> would hold 16,130 powers
    a = from_toeplitz(ToeplitzSpec.from_string(text))
    lift = _Lift(a)
    top = 1 << (lift.index - 1).bit_length()
    held = set(lift._rows) | set(lift._packed)
    walked = list(islice(lift.walk(), 2 * lift.period + 2))
    assert set(lift._rows) | set(lift._packed) == held | set(range(top, top + lift.period))
    assert list(islice(lift.walk(), 2 * lift.period + 2)) == walked
    assert set(lift._rows) | set(lift._packed) == held | set(range(top, top + lift.period))
    assert walked == [a.power(lift.index + i) for i in range(2 * lift.period + 2)]


def _naive_gram(x):
    rows = naive_from_boolmat(x)
    return naive_multiply(rows, naive_transpose(rows))


@st.composite
def gram_inputs(draw):
    """Order <= 24, some rows planted with about n/2 ones, where the two
    lightest rows hold about n ones between them."""
    n = draw(st.integers(1, 24))
    near_half = st.integers(max(n // 2 - 1, 0), min(n // 2 + 1, n)).flatmap(
        lambda k: st.sets(st.integers(0, n - 1), min_size=k, max_size=k)
    )
    planted = near_half.map(lambda cols: sum(1 << c for c in cols))
    row = st.one_of(st.integers(0, (1 << n) - 1), planted)
    return BoolMatrix(draw(st.lists(row, min_size=n, max_size=n)))


@PROPERTY
@given(gram_inputs())
def test_gram_matches_the_naive_product(x):
    assert naive_from_boolmat(_gram(x, False)) == _naive_gram(x)


def test_gram_matches_its_definition_above_order_32():
    # (u, v) = 1 iff rows u and v share a column; rows of k ones for k near
    # n/2 meet the pigeonhole rule from k = n/2 + 1 on
    rng = random.Random(20261018)
    shortcut = 0
    for n in (32, 48, 64, 96):
        samples = [random_boolmat(rng, n, density) for density in (0.05, 0.4)]
        for k in (n // 2 - 1, n // 2, n // 2 + 1):
            planted = (sum(1 << c for c in rng.sample(range(n), k)) for _ in range(n))
            samples.append(BoolMatrix(planted))
        for x in samples:
            want = BoolMatrix([sum(1 << v for v, r in enumerate(x.rows) if r & u) for u in x.rows])
            assert _gram(x, False) == want, (n, x)
            shortcut += want == BoolMatrix.ones(n)
    assert shortcut >= 4


def test_gram_shortcut_needs_more_than_n_ones():
    # two complementary rows hold exactly n ones and share no column
    for n in (6, 40):
        low = (1 << (n // 2)) - 1
        full = (1 << n) - 1
        x = BoolMatrix([low, full ^ low] + [full] * (n - 2))
        g = _gram(x, False)
        assert g.get(1, 2) == g.get(2, 1) == 0
        assert g.count() == n * n - 2
        assert naive_from_boolmat(g) == _naive_gram(x)
    assert _gram(BoolMatrix([1]), True) == BoolMatrix([1])
    assert _gram(BoolMatrix([0]), True) == BoolMatrix([0])


def test_all_ones_power_products_need_persymmetric_powers():
    # every row "all columns but the first": x x = x, yet its rows hold
    # n - 1 ones each, 2n - 2 > n between two, and only its empty first
    # column keeps x x off all ones.  x is not Toeplitz, so its lift takes
    # no pigeonhole answer, which would read A^2 as all ones and the index
    # as 2
    for n in (32, 40):
        x = BoolMatrix([(1 << n) - 2] * n)
        assert x @ x == x and _toeplitz_offsets(x) is None
        assert matrix_period(x) == PowerSequence(x).cycle() == (1, 1)
        assert competition_analysis(x) == scanned_competition(x)


def test_every_all_ones_power_product_equals_row_selection(monkeypatch):
    # the products of A's powers that the lift answers as all ones without a
    # kernel (_Lift._times), and the shift steps that step declines for them
    # where the cost rule would take the steps, against x @ y: on the worst
    # family, whose powers reach J at the index, and on seeded Toeplitz
    # draws; the answer comes on both, and the draws decline steps
    made = record_calls(monkeypatch, (boolmat, "_product"))
    times, step, answered = _Lift._times, _Lift.step, Counter()

    def checked(lift, x, y):
        before = made["_product"]
        z = times(lift, x, y)
        if made["_product"] == before:
            assert z == x @ y == BoolMatrix.ones(x.n), family
            answered[family] += 1
        return z

    def declined(lift, m, e):
        fresh = m + e not in lift._rows and m + e not in lift._packed
        step(lift, m, e)
        if fresh and lift.shifts and m + e in lift._rows and lift.shifts.cheaper(e, lift.ones(e)):
            x, y = lift._rows[m], lift._rows[e]
            assert lift._rows[m + e] == x @ y == BoolMatrix.ones(x.n), family
            answered[family, "declined"] += 1
        return m + e

    monkeypatch.setattr(_Lift, "_times", checked)
    monkeypatch.setattr(_Lift, "step", declined)
    rng = random.Random(20261020)
    drawn = []
    for _ in range(16):
        n = rng.randint(32, 64)
        sides = [rng.sample(range(1, n), rng.randint(1, 3)) for _ in "ST"]
        drawn.append(ToeplitzSpec(n, *sides))
    worst = [ToeplitzSpec(n, (1,), (n - 2, n - 1)) for n in range(32, 49)]
    for family, specs in (("worst", worst), ("drawn", drawn)):
        for spec in specs:
            analyze(spec)
    assert answered["worst"] and answered["drawn"] and answered["drawn", "declined"], answered


# --------------------------------------------------------------------------
# predicted limit shape
# --------------------------------------------------------------------------


def test_predicted_limit_parity():
    got = predicted_limit(ToeplitzSpec(4, (1,), (1,)))
    want = BoolMatrix.from_entries(
        4,
        [(i, j) for i in range(1, 5) for j in range(1, 5) if (i - j) % 2 == 0],
    )
    assert got == want


def test_predicted_limit_none_beyond_order():
    assert predicted_limit(ToeplitzSpec(4, (3,), (3,))) is None  # d+ = 6 > 4
    assert predicted_limit(ToeplitzSpec(6, (3,), (3,))) is not None  # d+ = 6 = n


def test_predicted_limit_all_ones_when_dplus_one():
    assert predicted_limit(WORKED) == BoolMatrix.ones(6)


def test_predicted_limit_matches_the_row_sum_formula_exhaustively():
    # T_n<1;d-1> has d+ = d for 2 <= d <= n, and T_n<1;1,2> has d+ = 1
    for n in range(2, 13):
        specs = [ToeplitzSpec(n, (1,), (d - 1,)) for d in range(2, n + 1)]
        specs += [ToeplitzSpec(n, (1,), (1, 2))] if n >= 3 else []
        steps = [gcd_profile(spec).d_plus for spec in specs]
        assert steps == list(range(2, n + 1)) + ([1] if n >= 3 else [])
        for spec, step in zip(specs, steps):
            rows = (sum(1 << j for j in range(i % step, n, step)) for i in range(n))
            assert predicted_limit(spec) == BoolMatrix(rows), spec


# --------------------------------------------------------------------------
# exact walk-ensured decision
# --------------------------------------------------------------------------


def test_exact_decision_frozen_verdicts():
    assert decide_walk_ensured_exact(WORKED) == (False, None)
    assert decide_walk_ensured_exact(ToeplitzSpec(4, (1,), (1,))) == (True, 2)
    assert decide_walk_ensured_exact(ToeplitzSpec(4, (2,), (2,))) == (True, 1)
    assert decide_walk_ensured_exact(ToeplitzSpec(12, (4, 6, 9, 11), (4,))) == (
        True,
        15,
    )


def test_exact_decision_stable_under_longer_window():
    # re-deciding over twice the window length never changes the verdict
    from math import lcm

    for n in range(2, 7):
        for spec in enumerate_specs(n):
            prof = gcd_profile(spec)
            powers = PowerSequence(from_toeplitz(spec))
            al, pl = powers.cycle()
            span = lcm(pl, prof.d_plus // prof.d)
            doubled = all(
                p_set(spec, i) == r_set(powers.power(i))
                for i in range(al, al + 2 * span)
            )
            assert decide_walk_ensured_exact(spec, powers=powers)[0] == doubled, spec


def test_every_power_lies_below_its_congruence_matrix():
    # the first step of _decide_exact's proof: each arc moves by s1 mod d+, so
    # A^i <= C_i for every i, held on the scan through M + p
    for n in range(2, 7):
        for spec in enumerate_specs(n):
            powers = PowerSequence(from_toeplitz(spec))
            index, period = powers.cycle()
            for i in range(1, index + period + 1):
                assert powers.power(i).dominated_by(_congruence(spec, i)), (spec, i)


def test_the_order_guard_refutes_every_descriptor_with_d_plus_above_n():
    # d+ > n leaves vertex min S without an in-arc, so none of these is
    # walk-ensured; on six of them A^M = C_M all the same, so the comparison
    # without the guard would call them walk-ensured
    fooled = []
    for n in range(2, 7):
        for spec in enumerate_specs(n):
            if gcd_profile(spec).d_plus <= n:
                continue
            powers = PowerSequence(from_toeplitz(spec))
            assert decide_walk_ensured_exact(spec) == (False, None), spec
            assert decide_walk_ensured_exact(spec, powers=powers) == (False, None), spec
            index, _ = powers.cycle()
            if powers.power(index) == _congruence(spec, index):
                fooled.append(str(spec))
    assert fooled == [
        "n=3;S=2;T=2",
        "n=4;S=3;T=3",
        "n=5;S=3;T=3",
        "n=5;S=4;T=4",
        "n=6;S=4;T=4",
        "n=6;S=5;T=5",
    ]


# --------------------------------------------------------------------------
# period via certificates
# --------------------------------------------------------------------------


def assert_period_is_d_plus_over_d(report, period):
    assert report.matrix_period == period == report.profile.d_plus // report.profile.d


def test_analyze_period_with_rule():
    report = analyze(ToeplitzSpec(4, (1,), (1,)))
    assert report.walk_ensured and report.certificate.rule is Rule.STAR
    assert_period_is_d_plus_over_d(report, 2)
    report = analyze(ToeplitzSpec(5, (1, 4), (2, 3)))
    assert report.walk_ensured and report.certificate.rule is Rule.COPRIME_PAIR
    assert_period_is_d_plus_over_d(report, 1)


def test_analyze_period_exact_fallback():
    # certified by no sufficient rule, settled by the decision procedure
    spec = ToeplitzSpec(7, (2,), (2, 6))
    assert certify_unknown(spec)
    report = analyze(spec)
    assert report.certificate.verdict is Verdict.PROVEN_BY_EXACT_DECISION
    assert report.certificate.rule is Rule.EXACT_DECISION
    assert_period_is_d_plus_over_d(report, 2)  # d = 2, d+ = 4
    assert matrix_period(from_toeplitz(spec)) == (2, 2)


def certify_unknown(spec) -> bool:
    return certify_walk_ensured(spec).verdict is Verdict.UNKNOWN


def test_analyze_settles_negative_case_exactly():
    report = analyze(WORKED)
    assert not report.walk_ensured
    assert report.certificate.verdict is Verdict.NOT_WALK_ENSURED
    assert report.certificate.rule is Rule.EXACT_DECISION
    assert report.matrix_period == 1  # d+/d = 1 too, though nothing is claimed here


def test_a_positive_exact_verdict_above_order_64():
    # d = 16 and no rule applies yet, so the exact decision settles it on the
    # shift path; every number is held to the scan
    spec = ToeplitzSpec.from_string("n=122;S=64,112;T=48,96")
    a = from_toeplitz(spec)
    scan = PowerSequence(a)
    report = analyze(spec)
    assert (report.matrix_index, report.matrix_period) == scan.cycle() == (37, 1)
    assert (report.competition_index, report.competition_period) == (19, 1)
    assert scanned_competition(a) == (19, 1, report.limit_matrix)
    assert decide_walk_ensured_exact(spec) == decide_walk_ensured_exact(spec, powers=scan)
    assert decide_walk_ensured_exact(spec) == (True, 37)
    assert report.walk_ensured


# --------------------------------------------------------------------------
# swap symmetry
# --------------------------------------------------------------------------


def swap_invariants(report):
    return (
        report.matrix_index,
        report.matrix_period,
        report.competition_index,
        report.competition_period,
        report.walk_ensured,
        report.certificate.rule,
    )


def test_swapping_s_and_t_conjugates_the_analysis_by_j():
    # A^T = J·A·J = T_n<T;S>, so (T;S) has the index, period, competition
    # data and verdict of (S;T), settled by the same rule, and B_m of (T;S)
    # is J·B_m·J, so its limit is the J-conjugate
    reports = {spec: analyze(spec) for n in range(2, 7) for spec in enumerate_specs(n)}
    for spec, report in reports.items():
        a, swapped = from_toeplitz(spec), reports[ToeplitzSpec(spec.n, spec.T, spec.S)]
        assert from_toeplitz(swapped.spec) == a.transpose() == j_conjugate(a)
        assert swap_invariants(swapped) == swap_invariants(report), spec
        limit = report.limit_matrix
        assert swapped.limit_matrix == (None if limit is None else j_conjugate(limit)), spec


# --------------------------------------------------------------------------
# superset period transfer
# --------------------------------------------------------------------------


def test_superset_same_period_example():
    base = ToeplitzSpec(5, (1,), (2,))
    assert matrix_period(from_toeplitz(base)) == (2, 3)
    assert superset_same_period(base, ToeplitzSpec(5, (1, 4), (2,))) == 3
    assert matrix_period(from_toeplitz(ToeplitzSpec(5, (1, 4), (2,))))[1] == 3


def test_superset_same_period_reflexive_and_declining():
    base = ToeplitzSpec(5, (1,), (2,))
    assert superset_same_period(base, base) == 3
    # adding 3 to S drops gcd(S + T) from 3 to 1: no claim
    assert superset_same_period(base, ToeplitzSpec(5, (1, 3), (2,))) is None


def test_superset_same_period_validation():
    base = ToeplitzSpec(5, (1,), (2,))
    with pytest.raises(ValueError):
        superset_same_period(base, ToeplitzSpec(6, (1,), (2,)))
    with pytest.raises(ValueError):
        superset_same_period(base, ToeplitzSpec(5, (2,), (2,)))
    with pytest.raises(ValueError):
        superset_same_period(WORKED, WORKED)  # base not walk-ensured


def test_superset_same_period_exhaustive_small():
    for n in range(2, 6):
        for spec in enumerate_specs(n):
            if not decide_walk_ensured_exact(spec)[0]:
                continue
            prof = gcd_profile(spec)
            for extra in range(1, n):
                bigger = ToeplitzSpec(n, spec.S + (extra,), spec.T)
                claimed = superset_same_period(spec, bigger)
                if claimed is None:
                    continue
                assert matrix_period(from_toeplitz(bigger))[1] == claimed, (
                    spec,
                    extra,
                )


# --------------------------------------------------------------------------
# sink/source period transfer
# --------------------------------------------------------------------------


def test_sink_source_period_transfer_tail_offset():
    base = ToeplitzSpec(10, (4,), (4,))
    assert matrix_period(from_toeplitz(base))[1] == 2
    b = from_toeplitz(ToeplitzSpec(10, (4, 9), (4,)))
    assert sink_source_same_period(base, b) == 2


def test_sink_source_declines_without_source_or_sink():
    base = ToeplitzSpec(6, (1,), (1,))
    b = BoolMatrix.from_entries(
        6, [(i, j) for i in range(1, 7) for j in range(1, 7) if i != j]
    )
    # every residue class gains arcs in both directions: no source, no sink
    assert sink_source_same_period(base, b) is None


def test_sink_source_validation():
    base = ToeplitzSpec(10, (4,), (4,))
    with pytest.raises(ValueError):
        sink_source_same_period(base, BoolMatrix.zeros(10))  # not dominated
    with pytest.raises(ValueError):
        sink_source_same_period(base, BoolMatrix.ones(9))  # order mismatch
    with pytest.raises(ValueError):
        sink_source_same_period(WORKED, BoolMatrix.ones(6))  # base not walk-ensured


def test_sink_source_random_extensions(rng):
    # random supersets of a walk-ensured base: whenever the rule speaks,
    # direct iteration must agree (it would raise otherwise)
    base = ToeplitzSpec(6, (2,), (2,))
    a = from_toeplitz(base)
    spoke = 0
    for _ in range(40):
        extra = BoolMatrix.from_entries(
            6,
            [
                (rng.randint(1, 6), rng.randint(1, 6))
                for _ in range(rng.randint(1, 4))
            ],
        )
        b = BoolMatrix(map(int.__or__, a.rows, extra.rows))
        result = sink_source_same_period(base, b)
        if result is not None:
            spoke += 1
            assert result == matrix_period(a)[1]
    assert spoke > 0


# --------------------------------------------------------------------------
# full analysis report
# --------------------------------------------------------------------------


def test_analyze_worked_example():
    report = analyze(WORKED)
    assert (report.matrix_index, report.matrix_period) == (6, 1)
    assert (report.competition_index, report.competition_period) == (6, 1)
    # vertex 5 is a sink and the whole digraph drains: powers vanish
    assert report.limit_matrix == BoolMatrix.zeros(6)
    assert report.certificate.verdict is Verdict.NOT_WALK_ENSURED
    assert report.certificate.rule is Rule.EXACT_DECISION
    assert report.walk_ensured is False
    # not walk-ensured: the congruence shape (all ones, d+ = 1) fails
    assert report.limit_matrix != predicted_limit(WORKED)


def test_analyze_upgrades_unknown_certificates():
    report = analyze(ToeplitzSpec(6, (2, 5), (4, 5)))
    assert report.certificate.verdict is Verdict.PROVEN_BY_EXACT_DECISION
    assert report.certificate.rule is Rule.EXACT_DECISION
    assert report.certificate.witness == 7
    assert report.walk_ensured is True
    assert (report.matrix_index, report.matrix_period) == (7, 1)


def test_analyze_negative_case_without_rule():
    # period formula holding by coincidence does not make it walk-ensured
    report = analyze(ToeplitzSpec(5, (4,), (2,)))
    assert report.certificate.verdict is Verdict.NOT_WALK_ENSURED
    prof = gcd_profile(ToeplitzSpec(5, (4,), (2,)))
    assert report.matrix_period == prof.d_plus // prof.d == 3


def test_analyze_report_consistency_exhaustive():
    for n in range(2, 5):
        for spec in enumerate_specs(n):
            report = analyze(spec)
            assert report.spec == spec
            assert report.certificate.verdict is not Verdict.UNKNOWN
            assert (report.limit_matrix is not None) == (
                report.competition_period == 1
            )
            assert report.matrix_period % report.competition_period == 0
            if report.walk_ensured:
                prof = gcd_profile(spec)
                assert report.matrix_period == prof.d_plus // prof.d


# --------------------------------------------------------------------------
# the theorem beyond the exhaustive orders: random descriptors, n = 8..24
# --------------------------------------------------------------------------


@PROPERTY
@given(descriptors(min_n=8))
def test_certified_descriptors_obey_the_theorem(spec):
    if certify_walk_ensured(spec).verdict is not Verdict.PROVEN_WALK_ENSURED:
        return
    prof = gcd_profile(spec)
    report = analyze(spec)
    assert report.matrix_period == prof.d_plus // prof.d
    # every rule rests on a pair s + t <= n, so the limit is claimed
    assert prof.d_plus <= spec.n
    assert report.competition_period == 1
    assert report.limit_matrix == predicted_limit(spec)
    assert decide_walk_ensured_exact(spec)[0] is True


# --------------------------------------------------------------------------
# lifting against the linear scan, n <= 24
# --------------------------------------------------------------------------


@PROPERTY
@given(descriptors())
def test_lifted_analysis_equals_the_linear_scan(spec):
    a = from_toeplitz(spec)
    scanned = PowerSequence(a).cycle()
    comp = competition_analysis(a)
    assert matrix_period(a) == scanned
    assert (comp.index, comp.period, comp.limit) == scanned_competition(a)
    report = analyze(spec)
    assert (report.matrix_index, report.matrix_period) == scanned
    assert (report.competition_index, report.competition_period) == (comp.index, comp.period)
    assert report.limit_matrix == comp.limit


@pytest.mark.parametrize(
    "text, want",
    [
        ("n=6;S=2,3,4;T=5", (3, 3)),
        ("n=7;S=3,4;T=5", (2, 5)),
        # copies of order-6..8 descriptors, on the shift path from order 32 on;
        # the last has matrix period 4 and competition period 2
        ("n=48;S=16,24,32;T=40", (3, 3)),
        ("n=35;S=15,20;T=25", (2, 5)),
        ("n=32;S=8,12;T=28", (4, 4)),
        ("n=32;S=24;T=16,20,28", (2, 2)),
    ],
)
def test_competition_period_above_one_matches_the_scan(text, want):
    # no descriptor of order 5 or less has competition period above 1
    a = from_toeplitz(ToeplitzSpec.from_string(text))
    comp = competition_analysis(a)
    assert (comp.index, comp.period, comp.limit) == scanned_competition(a) == (*want, None)
    report = analyze(ToeplitzSpec.from_string(text))
    assert (report.competition_index, report.competition_period) == want


# every descriptor of order 6..8 with competition period above 1
PERIODIC_COMPETITION = [
    "n=6;S=2,3,4;T=5", "n=6;S=5;T=2,3,4", "n=7;S=3,4;T=5", "n=7;S=5;T=3,4",
    "n=8;S=2,3;T=7", "n=8;S=2,4,5;T=7", "n=8;S=6;T=4,5,7", "n=8;S=2,3,6;T=7",
    "n=8;S=3,4,6;T=7", "n=8;S=2,5,6;T=7", "n=8;S=3,4,5,6;T=7", "n=8;S=7;T=2,3",
    "n=8;S=7;T=2,4,5", "n=8;S=7;T=2,3,6", "n=8;S=7;T=3,4,6", "n=8;S=7;T=2,5,6",
    "n=8;S=7;T=3,4,5,6", "n=8;S=4,5,7;T=6",
]


def test_disjoint_copies_keep_the_period_and_competition_data():
    # T_kn<kS;kT> is k disjoint copies of T_n<S;T> (one per residue mod k), so
    # (M, p, q, c) is unchanged; the copies of order 32 and more take the shifts
    for text in PERIODIC_COMPETITION:
        spec = ToeplitzSpec.from_string(text)
        comp = competition_analysis(from_toeplitz(spec))
        want = (*matrix_period(from_toeplitz(spec)), comp.index, comp.period)
        assert comp.period > 1, text
        for k in (4, 5, 8):
            copies = ToeplitzSpec(k * spec.n, [k * s for s in spec.S], [k * t for t in spec.T])
            a = from_toeplitz(copies)
            comp = competition_analysis(a)
            assert (*matrix_period(a), comp.index, comp.period) == want, (text, k)


def test_non_toeplitz_matrices_above_order_32_take_the_products():
    # no offsets, so every step is a product and the grams take
    # BoolMatrix.transpose, since a power need not be persymmetric; all
    # held to the scans
    rng = random.Random(20261018)
    for density in (0.03, 0.05, 0.08):
        a = random_boolmat(rng, 40, density)
        assert _toeplitz_offsets(a) is None
        assert not _Lift(a).persymmetric
        comp = competition_analysis(a)
        assert (comp.index, comp.period, comp.limit) == scanned_competition(a)
        assert matrix_period(a) == PowerSequence(a).cycle()


@PROPERTY
@given(descriptors())
def test_competition_sequence_steps_by_conjugation(spec):
    # B_(m+1) = A B_m A^T, the identity both the scan and the lifting rest on
    a = from_toeplitz(spec)
    at = a.transpose()
    for m in range(1, 8):
        b_m = a.power(m) @ at.power(m)
        assert a @ b_m @ at == a.power(m + 1) @ at.power(m + 1)


# --------------------------------------------------------------------------
# the paper's family and the worst family at large orders
# --------------------------------------------------------------------------


def _paper_family_cases():
    for n in (*range(3, 33), 64, 128):
        for k in range(1, (n - 1) // 2 + 1):
            yield n, k
    for k in (1, 2, (256 - 1) // 2):
        yield 256, k


def test_paper_family_has_the_claimed_period_and_limit():
    # T_n<k, n-k; k+1, n-k-1>: period d+/d, competition period 1, congruence
    # limit.  It meets the relaxed coprime-pair condition but not (*) when
    # 2k + 2 <= n; at 2k + 1 = n it is T_n<k, k+1; k+1, k>, which meets (*)
    for n, k in _paper_family_cases():
        spec = ToeplitzSpec(n, (k, n - k), (k + 1, n - k - 1))
        prof = gcd_profile(spec)
        report = analyze(spec)
        star = 2 * k + 1 == n
        assert check_star(spec) is star, spec
        assert report.certificate.rule is (Rule.STAR if star else Rule.COPRIME_PAIR), spec
        assert report.walk_ensured, spec
        assert report.matrix_period == prof.d_plus // prof.d, spec
        assert report.competition_period == 1, spec
        assert report.limit_matrix == predicted_limit(spec), spec


def _sparse_large_specs():
    # a fixed seeded sample: 16 orders in 64..255 and 8 at 256, |S|, |T| <= 3
    rng = random.Random(20261019)
    for n in [rng.randint(64, 255) for _ in range(16)] + [256] * 8:
        side = lambda: rng.sample(range(1, n), rng.randint(1, 3))
        yield ToeplitzSpec(n, side(), side())


def test_sparse_descriptors_keep_the_claims_at_large_orders():
    # the paper's claims for every walk-ensured draw, and (M, p) held to
    # BoolMatrix.power for every draw: A^M = A^(M+p), A^(M-1) != A^(M-1+p)
    # when M > 1, and A^M != A^(M+p/r) for each prime r | p
    for spec in _sparse_large_specs():
        report = analyze(spec)
        prof = gcd_profile(spec)
        if report.walk_ensured:
            assert report.matrix_period == prof.d_plus // prof.d, spec
            assert report.competition_period == 1, spec
            if prof.d_plus <= spec.n:
                assert report.limit_matrix == predicted_limit(spec), spec
        a = from_toeplitz(spec)
        index, period = report.matrix_index, report.matrix_period
        before = a.power(index - 1)
        at_index, a_period = before @ a, a.power(period)
        assert at_index @ a_period == at_index, spec
        assert index == 1 or before @ a_period != before, spec
        for r in range(2, period + 1):
            if period % r == 0 and all(r % q for q in range(2, r)):
                assert at_index @ a.power(period // r) != at_index, (spec, r)


@pytest.mark.parametrize("n", [128, 256])
def test_worst_family_index_at_large_orders(n):
    # T_n<1;n-2,n-1> has index (n-1)^2, one below the Heap-Lynn bound, period 1
    a = from_toeplitz(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
    assert matrix_period(a) == ((n - 1) ** 2, 1)
    before = a.power((n - 1) ** 2 - 1)
    at_index = before @ a
    assert before != at_index
    assert at_index == at_index @ a


@pytest.mark.parametrize("n", [128, 256])
def test_worst_family_competition_at_large_orders(n):
    # B_m = A^m (A^m)^T of T_n<1;n-2,n-1> reaches J at the lift's competition
    # index q = floor((n-1)^2 / 2) and not before, by BoolMatrix.power,
    # transpose and @ alone; A J A^T = J, so from q on B stays J: period 1,
    # limit J.  The scan twin, scanned_competition, stops at n = 48
    a = from_toeplitz(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
    comp = competition_analysis(a)
    assert comp.index == (n - 1) ** 2 // 2
    gram = lambda x: x @ x.transpose()
    ones = BoolMatrix.ones(n)
    before = a.power(comp.index - 1)
    assert gram(before @ a) == ones != gram(before)
    assert a @ ones @ a.transpose() == ones
    assert (comp.period, comp.limit) == (1, ones)


@pytest.mark.parametrize("n", [65, 129, 257])
def test_the_heap_lynn_bound_is_reached_at_odd_orders(n):
    # at n = 2k + 1, T_n<k+1;k,2k> is Wielandt's digraph up to a relabelling:
    # the rotation by k+1, an n-cycle, with the chord n -> 1, which closes a
    # cycle of length n - 1 since 2(k+1) = 1 mod n.  Its index is the bound
    # M = (n-1)^2 + 1 itself, checked by BoolMatrix.power and @ alone
    k, bound = (n - 1) // 2, (n - 1) ** 2 + 1
    spec = ToeplitzSpec(n, (k + 1,), (k, 2 * k))
    report = analyze(spec)
    assert (report.matrix_index, report.matrix_period) == (bound, 1)
    a, ones = from_toeplitz(spec), BoolMatrix.ones(n)
    before = a.power(bound - 1)
    assert before != ones
    assert before @ a == ones
