"""Period engine against naive brute-force oracles."""

import random

import pytest
from hypothesis import given
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
    walksets_at,
)
from toeplitz_periods import engine
from toeplitz_periods.engine import (
    _gram,
    _Lift,
    matrix_period,
    period_via_theorem,
    predicted_limit,
)
from toeplitz_periods.oracle import enumerate_specs
from toeplitz_periods.toeplitz import Rule, Verdict, gcd_profile
from toeplitz_periods.walksets import p_set, r_set

from conftest import (
    PROPERTY,
    descriptors,
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
    monkeypatch.setattr(engine, "power_period", lambda g: wrong_period)
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
        lambda: walksets_at(spec, 3, other),
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
    # leaves, the largest power of two below t
    lift = _Lift(BoolMatrix([1 << (i + 1) for i in range(69)] + [0]))
    power = {m: lift.power(m) for m in range(1, 65)}
    for hi in range(1, 65):
        for t in range(1, hi + 1):
            for lo in {0, 1 << (t - 1).bit_length() >> 1}:
                tests = []

                def test(y):
                    tests.append(y)
                    return ones if (ones := y.count()) <= 70 - t else None

                got = lift.least(test, (lo, power.get(lo)), (hi, power[hi], "hi"))
                assert got == (t, power[t], "hi" if t == hi else 70 - t), (lo, t, hi)
                assert len(tests) <= (hi - lo - 1).bit_length(), (lo, t, hi)


def test_competition_search_makes_one_gram_per_bit_of_the_index(monkeypatch):
    # a count, not a time: the search tests B_m only inside (0, M]
    grams = []
    monkeypatch.setattr(engine, "_gram", lambda x: grams.append(x) or _gram(x))
    n = 128
    comp = competition_analysis(from_toeplitz(ToeplitzSpec(n, (1,), (n - 2, n - 1))))
    index = (n - 1) ** 2
    assert (comp.index, comp.period) == (8064, 1)
    assert len(grams) <= (index - 1).bit_length() + comp.period == 15


def test_lifted_competition_equals_the_scan_above_order_32():
    # the table kernel and the blockwise transpose take over at order 32
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
    assert naive_from_boolmat(_gram(x)) == _naive_gram(x)


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
            assert _gram(x) == want, (n, x)
            shortcut += want == BoolMatrix.ones(n)
    assert shortcut >= 4


def test_gram_shortcut_needs_more_than_n_ones():
    # two complementary rows hold exactly n ones and share no column
    for n in (6, 40):
        low = (1 << (n // 2)) - 1
        full = (1 << n) - 1
        x = BoolMatrix([low, full ^ low] + [full] * (n - 2))
        g = _gram(x)
        assert g.get(1, 2) == g.get(2, 1) == 0
        assert g.count() == n * n - 2
        assert naive_from_boolmat(g) == _naive_gram(x)
    assert _gram(BoolMatrix([1])) == BoolMatrix([1])
    assert _gram(BoolMatrix([0])) == BoolMatrix([0])


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


def test_period_via_theorem_with_rule():
    period, cert = period_via_theorem(ToeplitzSpec(4, (1,), (1,)))
    assert period == 2 and cert.rule is Rule.STAR
    period, cert = period_via_theorem(ToeplitzSpec(5, (1, 4), (2, 3)))
    assert period == 1 and cert.rule is Rule.COPRIME_PAIR


def test_period_via_theorem_exact_fallback():
    # certified by no sufficient rule, settled by the decision procedure
    spec = ToeplitzSpec(7, (2,), (2, 6))
    assert certify_unknown(spec)
    period, cert = period_via_theorem(spec)
    assert cert.verdict is Verdict.PROVEN_BY_EXACT_DECISION
    assert period == 2  # d = 2, d+ = 4
    assert matrix_period(from_toeplitz(spec)) == (2, 2)


def certify_unknown(spec) -> bool:
    return certify_walk_ensured(spec).verdict is Verdict.UNKNOWN


def test_period_via_theorem_declines_negative_case():
    assert period_via_theorem(WORKED) is None


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
        b = a | extra
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
    [("n=6;S=2,3,4;T=5", (3, 3)), ("n=7;S=3,4;T=5", (2, 5))],
)
def test_competition_period_above_one_matches_the_scan(text, want):
    # no descriptor of order 5 or less has competition period above 1
    a = from_toeplitz(ToeplitzSpec.from_string(text))
    comp = competition_analysis(a)
    assert (comp.index, comp.period, comp.limit) == scanned_competition(a) == (*want, None)
    report = analyze(ToeplitzSpec.from_string(text))
    assert (report.competition_index, report.competition_period) == want


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
    for n in range(3, 33):
        for k in range(1, (n - 1) // 2 + 1):
            yield n, k
    for n in (64, 128):
        for k in sorted({1, 2, (n - 1) // 2}):
            yield n, k


def test_paper_family_has_the_claimed_period_and_limit():
    # T_n<k, n-k; k+1, n-k-1> meets the relaxed coprime-pair condition
    # but not (*): period d+/d, competition period 1, congruence limit
    for n, k in _paper_family_cases():
        spec = ToeplitzSpec(n, (k, n - k), (k + 1, n - k - 1))
        prof = gcd_profile(spec)
        report = analyze(spec)
        assert report.walk_ensured, spec
        assert report.matrix_period == prof.d_plus // prof.d, spec
        assert report.competition_period == 1, spec
        assert report.limit_matrix == predicted_limit(spec), spec


@pytest.mark.parametrize("n", [128, 256])
def test_worst_family_index_at_large_orders(n):
    # T_n<1;n-2,n-1> reaches the Heap-Lynn bound: index (n-1)^2, period 1
    a = from_toeplitz(ToeplitzSpec(n, (1,), (n - 2, n - 1)))
    assert matrix_period(a) == ((n - 1) ** 2, 1)
    before = a.power((n - 1) ** 2 - 1)
    at_index = before @ a
    assert before != at_index
    assert at_index == at_index @ a
