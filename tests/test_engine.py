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
from toeplitz_periods.boolmat import _mirror, _toeplitz_offsets
from toeplitz_periods.engine import (
    _gram,
    _Lift,
    matrix_period,
    predicted_limit,
)
from toeplitz_periods.oracle import enumerate_specs
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
    scanned_competition,
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


@pytest.mark.parametrize(
    "text, wrong_period, message",
    [
        ("n=2;S=1;T=1", 1, r"A\^m = A\^\(m\+1\) holds for no m <= 2"),
        ("n=5;S=1;T=1,2", 2, "period 2 of the components is not least"),
    ],
)
def test_lift_asserts_heap_lynn_and_the_least_period(monkeypatch, text, wrong_period, message):
    # Heap-Lynn, index <= (n-1)^2 + 1, is the one bound on the index search;
    # a wrong period from the components breaks it or the minimality check
    monkeypatch.setattr(engine, "power_period", lambda *_: wrong_period)
    with pytest.raises(TheoremViolationError, match=message):
        matrix_period(from_toeplitz(ToeplitzSpec.from_string(text)))


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
    # exponents, and its steps keep each power N^m under m, which N = T_70<1;>
    # makes packed on the last levels, read as rows here
    a = BoolMatrix([1 << (i + 1) for i in range(69)] + [0])
    lift = _Lift(a)
    for hi in range(1, 65):
        for t in range(1, hi + 1):
            for lo in {0, 1 << (t - 1).bit_length() >> 1}:
                tests = []

                def test(m):
                    tests.append(m)
                    return lift.rows(m).count() <= 70 - t

                assert lift.least(test, lo, hi) == t, (lo, t, hi)
                assert len(tests) <= (hi - lo - 1).bit_length(), (lo, t, hi)
    assert all(lift.rows(m) == a.power(m) for m in range(1, 65))


def test_competition_search_makes_one_gram_per_bit_of_the_index(monkeypatch):
    # a count, not a time: the search tests B_m only inside (0, M], with one
    # gram for B_M and at most one per level of the descent whose 2^j steps of
    # B -> A B A^T would take more than n shifts, 2 * 2^j * 3 > 128; the five
    # levels below step B_m by the map.  A gram level whose row 1 of the gram
    # is not that of B_M fails without the gram, so grams are made for B_M,
    # the two levels that pass (8192 and 8064) and the failing m = 8032 that
    # the first shifted level steps from
    grams = []
    monkeypatch.setattr(engine, "_gram", lambda x, t: grams.append(x) or _gram(x, t))
    n = 128
    comp = competition_analysis(from_toeplitz(ToeplitzSpec(n, (1,), (n - 2, n - 1))))
    index = (n - 1) ** 2
    assert (comp.index, comp.period) == (8064, 1)
    levels = range((index - 1).bit_length())
    assert len(grams) == 4 < 1 + sum(6 << j > n for j in levels) == 10


def test_a_refuted_level_makes_no_gram(monkeypatch):
    # a count, not a time: a gram level reads row 1 of the gram of A^m (n
    # ANDs) first; when it is row 1 of no member of B's cycle, B_m is not on
    # the cycle and the level fails without the gram, unless a shifted level
    # later steps B from there.  On the worst family the cycle is B_M alone
    read, made = [], []
    gram_row = engine._gram_row
    monkeypatch.setattr(engine, "_gram_row", lambda x: read.append(x) or gram_row(x))
    monkeypatch.setattr(engine, "_gram", lambda x, t: made.append(x) or _gram(x, t))
    for n in (48, 64, 80, 128):
        read.clear()
        made.clear()
        a = from_toeplitz(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
        lift = _Lift(a)
        comp = lift.competition()
        matched = [x for x in read if gram_row(x) == comp.limit.rows[0]]
        refuted = [x for x in read if gram_row(x) != comp.limit.rows[0]]
        assert matched and refuted, n
        # grams of A^M, of the matched levels and, after every gram level, of
        # the last refuted one: the failing m the first shifted level steps from
        assert made == [lift.rows(lift.index), *matched, refuted[-1]], n


def test_an_analyze_worst_pass_makes_8_gram_products_and_63_packs(monkeypatch):
    # a count, not a time, over the benchmark's worst-family orders: the
    # grams of B_M and of the levels whose row matches the limit's, and the
    # packs of the shift steps' inputs; work added to a descent level fails
    # here without a timing
    counts = Counter()
    for owner, name in ((engine, "_product"), (engine, "_gram"), (boolmat._ShiftKernel, "pack")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, fn=fn, name=name: counts.update([name]) or fn(*a))
    for n in (48, 64, 80):
        analyze(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
    assert counts == {"_product": 8, "_gram": 20, "pack": 63}


def test_analysis_unpacks_only_for_grams_and_the_index_power(monkeypatch):
    # T_128<1;126,127> steps by shifts; its powers stay packed except where
    # rows are read: A^M, made by shifts on the last levels of the index
    # descent and unpacked once for the gram B_M; and A^2, made by a shift
    # step in the first period test and read as rows once for the square
    # A^4.  The two grams that are not all ones mirror their rows, and
    # nothing runs the transpose
    calls = Counter()
    for owner, name in (
        (engine, "_gram"),
        (boolmat._ShiftKernel, "unpack"),
        (engine, "_mirror"),
        (BoolMatrix, "transpose"),
    ):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, fn=fn, name=name: calls.update([name]) or fn(*a))
    n = 128
    report = analyze(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
    assert (report.matrix_index, report.competition_index) == ((n - 1) ** 2, 8064)
    assert report.certificate.rule is Rule.STAR
    assert calls == {"_gram": 4, "unpack": 2, "_mirror": 2}


def test_competition_with_the_row_check_equals_the_scan_on_every_small_descriptor():
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


@pytest.mark.parametrize(
    "text, period",
    [
        ("n=32;S=5,9;T=29", 6),
        ("n=33;S=5,9;T=31", 12),
        ("n=35;S=10,25;T=29,32", 3),
        ("n=41;S=19;T=23,33", 16),
        ("n=42;S=29;T=15,27", 4),
        ("n=43;S=17,25;T=31", 8),
    ],
)
def test_row_check_against_a_cycle_of_several_members_equals_the_scan(monkeypatch, text, period):
    # competition period above 1 and an index large enough for gram levels:
    # row 1 of a level's gram is matched against row 1 of every member
    read = []
    gram_row = engine._gram_row
    monkeypatch.setattr(engine, "_gram_row", lambda x: read.append(x) or gram_row(x))
    a = from_toeplitz(ToeplitzSpec.from_string(text))
    comp = competition_analysis(a)
    assert (comp.index, comp.period, comp.limit) == scanned_competition(a)
    assert comp.period == period and read


def test_index_test_against_the_limit_equals_the_scan_on_the_worst_family():
    # period 1: the index descent compares A^m with A^top, the gallop's 2^k,
    # instead of stepping to A^(m+1)
    for n in range(32, 65):
        a = from_toeplitz(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
        lift = _Lift(a)
        assert (lift.index, lift.period) == PowerSequence(a).cycle() == ((n - 1) ** 2, 1), n


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
    # from order 32 on the walk from A^M steps packed rows and unpacks each
    # power; it and the verdict read from it are held to the scan.  Every
    # other draw takes S = 1 and T = 2 mod 3, so that 3 divides the period
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
    offsets a side, 1 <= e <= n // (|S| + |T|) + 2, so that e steps of
    |S| + |T| shifts fall on both sides of n, and x a power of A ("power", m),
    held packed by the lift or not, or a random matrix ("random", seed,
    density)."""
    n = draw(st.sampled_from((32, 33, 64, 127, 160)))
    S = draw(st.sets(st.integers(1, n - 1), max_size=3))
    T = draw(st.sets(st.integers(1, n - 1), min_size=0 if S else 1, max_size=3))
    e = draw(st.integers(1, n // (len(S) + len(T)) + 2))
    power = st.tuples(st.just("power"), st.integers(1, 2 * n))
    matrix = st.tuples(st.just("random"), st.integers(0, 2**32), st.sampled_from((0.03, 0.3)))
    return ToeplitzSpec(n, S, T), e, draw(st.one_of(power, matrix)), draw(st.booleans())


@PROPERTY
@given(cost_rule_cases())
@example((ToeplitzSpec(33, (1,), (2, 32)), 11, ("power", 5), True))  # e c = n
@example((ToeplitzSpec(32, (1,), (30, 31)), 11, ("random", 7, 0.03), False))  # e c = n + 1
@example((ToeplitzSpec(64, (1,), (7, 62, 63)), 16, ("random", 1, 0.3), True))  # e c = n
@example((ToeplitzSpec(64, (1, 9), (5, 62, 63)), 13, ("power", 70), True))  # e c = n + 1
@example((ToeplitzSpec(127, (1, 2), (125, 126)), 32, ("random", 3, 0.03), True))  # e c = n + 1
@example((ToeplitzSpec(160, (3, 50, 77), (5, 90)), 32, ("power", 40), False))  # e c = n
@example((ToeplitzSpec(160, (1,), (158, 159)), 8, ("power", 9000), True))  # sparse A^e
def test_steps_and_products_agree_on_both_sides_of_the_cost_rule(case):
    # step(m, e) makes A^(m+e) by e steps of c = |S| + |T| shifts where the
    # kernel's rule takes them, at most n shifts and fewer when A^e is
    # sparse, else by a product; either way it and "A^(M+e) = A^M" match the
    # powers.  The lift's product may put A^e first, which only a power x
    # allows, so a random x is held to the kernel's steps alone
    spec, e, x, packed = case
    a = from_toeplitz(spec)
    lift = _Lift(a)
    power = a.power(e)
    assert lift.shifts.cheaper(e) == (e * (len(spec.S) + len(spec.T)) <= spec.n)
    assert lift.ones(e) == power.count()
    if x[0] == "power":
        m = lift.power(x[1])
        if packed:
            lift.packed(m)
        made = m + e not in lift._rows and m + e not in lift._packed
        assert lift.step(m, e) == m + e
        if made:
            assert (m + e in lift._packed) == lift.shifts.cheaper(e, power.count())
        assert lift.rows(m + e) == a.power(m) @ power
    else:
        x = random_boolmat(random.Random(x[1]), spec.n, x[2])
        assert lift.shifts.unpack(lift.shifts.times(lift.shifts.pack(x), e)) == x @ power
    at_index = a.power(lift.index)
    assert lift._same(lift.index, lift.step(lift.index, e)) == (at_index @ power == at_index)


def test_dense_offsets_take_products_where_shifts_cost_more():
    # from |S| + |T| > n / 2 on, one step of B -> A B A^T costs more than n
    # shifts, and from |S| + |T| > n on one step of x -> x A does too; the
    # lift then multiplies, and every number is held to the scans
    rng = random.Random(20261020)
    for n, size in ((32, 9), (33, 17), (40, 21)):
        spec = ToeplitzSpec(n, rng.sample(range(1, n), size), rng.sample(range(1, n), size))
        a = from_toeplitz(spec)
        lift = _Lift(a, (spec.S, spec.T))
        assert lift.shifts.cheaper(1) == (2 * size <= n)
        assert not lift.shifts.cheaper(1, conjugate=True)
        scan = PowerSequence(a)
        assert (lift.index, lift.period) == scan.cycle()
        comp = lift.competition()
        assert (comp.index, comp.period, comp.limit) == scanned_competition(a)
        walked = list(islice(lift.walk(), lift.period + 2))
        assert walked == [scan.power(lift.index + i) for i in range(lift.period + 2)]


@pytest.mark.parametrize(
    "text, products, grams, rebuilt",
    [
        ("n=128;S=1;T=126,127", 32, 4, 4),
        ("n=96;S=64,70,82;T=5", 18, 5, 7),  # period 3
        ("n=160;S=10,36;T=16", 5, 1, 2),  # period 13
        ("n=48;S=1;T=46,47", 28, 8, 5),  # the analyze-worst orders
        ("n=64;S=1;T=62,63", 27, 4, 4),
        ("n=80;S=1;T=78,79", 31, 8, 5),
    ],
)
def test_analysis_counts_products_grams_and_unpacks(monkeypatch, text, products, grams, rebuilt):
    # a count, not a time: x A^e steps by shifts on the levels of the index
    # descent, in the period test and in the minimality check wherever the
    # kernel's rule takes e steps; the squares and the higher levels multiply,
    # and a power the lift holds is not made again.  Products are counted in
    # both modules: boolmat's _power_product for powers, engine's _gram for
    # grams.  rebuilt counts the rows made other than by a product: the
    # powers unpacked from shift steps and the mirrors, one per gram product
    counts = {"power": 0, "gram": 0, "_gram": 0, "unpack": 0, "_mirror": 0}
    for owner, name, key in (
        (boolmat, "_product", "power"),
        (engine, "_product", "gram"),
        (engine, "_gram", "_gram"),
        (boolmat._ShiftKernel, "unpack", "unpack"),
        (engine, "_mirror", "_mirror"),
    ):
        fn = getattr(owner, name)

        def counted(*args, fn=fn, key=key):
            counts[key] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)
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
        ("n=128;S=1;T=126,127", set()),
        ("n=121;S=83,85;T=46,102,118", set()),  # the first analyze-random draw of seed 1
        # the walk of the exact decision reads A^(M+1) again after the drop
        ("n=99;S=6;T=27", {12}),
        # the competition descent's gram levels read A^(64+32) again: the
        # competition index q = 65 lies above 2^(k-1) = 64, so its descent
        # passes where the index descent did
        ("n=156;S=1,127;T=63,84", {96}),
    ],
    ids=lambda value: value if isinstance(value, str) else ",".join(map(str, value)) or "none",
)
def test_analysis_makes_each_power_once_but_for_what_the_drop_let_go(monkeypatch, text, remade):
    # each A^m is made once and kept under m; the one way to make it again is
    # the drop after the index search, which keeps only the squares and A^M
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
    "text", ["n=128;S=1;T=126,127", "n=96;S=64,70,82;T=5", "n=160;S=10,36;T=16"]
)
def test_the_lift_keeps_the_squares_and_the_index_power(text):
    # after the index search only A^(2^k) for 2^k up to the bracket's top and
    # A^M stay, and the minimality check adds A^(M+e) for each e | p below p
    # (for periods 1, 3 and 13 here, e = 1 alone)
    spec = ToeplitzSpec.from_string(text)
    lift = _Lift(from_toeplitz(spec), (spec.S, spec.T))
    index, period = lift.index, lift.period
    squares = {1 << k for k in range((index - 1).bit_length() + 1)}
    checked = {index + e for e in range(1, period) if period % e == 0}
    assert set(lift._rows) | set(lift._packed) == squares | {index} | checked


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
    assert naive_from_boolmat(_gram(x, BoolMatrix.transpose)) == _naive_gram(x)


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
            assert _gram(x, BoolMatrix.transpose) == want, (n, x)
            shortcut += want == BoolMatrix.ones(n)
    assert shortcut >= 4


def test_gram_shortcut_needs_more_than_n_ones():
    # two complementary rows hold exactly n ones and share no column
    for n in (6, 40):
        low = (1 << (n // 2)) - 1
        full = (1 << n) - 1
        x = BoolMatrix([low, full ^ low] + [full] * (n - 2))
        g = _gram(x, BoolMatrix.transpose)
        assert g.get(1, 2) == g.get(2, 1) == 0
        assert g.count() == n * n - 2
        assert naive_from_boolmat(g) == _naive_gram(x)
    assert _gram(BoolMatrix([1]), _mirror) == BoolMatrix([1])
    assert _gram(BoolMatrix([0]), _mirror) == BoolMatrix([0])


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
        assert _Lift(a).transpose is BoolMatrix.transpose
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
    # T_n<1;n-2,n-1> reaches the Heap-Lynn bound: index (n-1)^2, period 1
    a = from_toeplitz(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
    assert matrix_period(a) == ((n - 1) ** 2, 1)
    before = a.power((n - 1) ** 2 - 1)
    at_index = before @ a
    assert before != at_index
    assert at_index == at_index @ a
