"""Acceptance gate: ten criteria, one test per criterion.

Each test prints nothing on its own; the conftest terminal-summary hook
reports one PASS/FAIL line per criterion at the end of the run.  The
shared exhaustive sweep over orders 2..7 is computed once per session
and timed; criterion 2 owns the runtime budget.
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import pytest

from toeplitz_periods import (
    BoolMatrix,
    PowerSequence,
    ToeplitzSpec,
    analyze,
    certify_walk_ensured,
    competition_analysis,
    decide_walk_ensured_exact,
    from_toeplitz,
    sink_source_same_period,
    walksets_at,
)
from toeplitz_periods.digraph import contract, cycle_decomposition
from toeplitz_periods.engine import predicted_limit
from toeplitz_periods.oracle import enumerate_specs
from toeplitz_periods.toeplitz import (
    Verdict,
    check_coprime_pair,
    check_star,
    gcd_profile,
    tail_extension_applicable,
)
from toeplitz_periods.walksets import p_set, q_sequence, r_set

WORKED = ToeplitzSpec(6, (2, 4), (5,))


@dataclass(frozen=True)
class Record:
    d: int
    d_plus: int
    index: int
    period: int
    comp_period: int
    comp_limit: Optional[BoolMatrix]
    exact_ok: bool
    proven_by_rule: bool


@pytest.fixture(scope="session")
def sweep_2_7():
    """Ground truth for every descriptor of order 2..7, with wall time."""
    t0 = time.perf_counter()
    records: dict[ToeplitzSpec, Record] = {}
    for n in range(2, 8):
        for spec in enumerate_specs(n):
            prof = gcd_profile(spec)
            powers = PowerSequence(from_toeplitz(spec))
            index, period = powers.cycle()
            comp = competition_analysis(powers.base, powers=powers)
            exact_ok, _ = decide_walk_ensured_exact(spec, powers=powers)
            cert = certify_walk_ensured(spec)
            records[spec] = Record(
                d=prof.d,
                d_plus=prof.d_plus,
                index=index,
                period=period,
                comp_period=comp.period,
                comp_limit=comp.limit,
                exact_ok=exact_ok,
                proven_by_rule=cert.verdict is Verdict.PROVEN_WALK_ENSURED,
            )
    elapsed = time.perf_counter() - t0
    return records, elapsed


def best_of_three(fn) -> float:
    fn()  # warm caches and code paths
    return min(measure(fn) for _ in range(3))


def measure(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# criterion 1: the worked example, exactly and quickly -----------------------


def test_c01_worked_example():
    ws = walksets_at(WORKED, 2)
    assert ws.p == frozenset(range(-5, 6))
    assert ws.q == frozenset({-3, -1, 4})
    assert ws.r == frozenset({4})
    assert from_toeplitz(WORKED).power(2).get(1, 5) == 1
    assert decide_walk_ensured_exact(WORKED) == (False, None)
    assert best_of_three(lambda: walksets_at(WORKED, 2)) < 1e-3


# criterion 2: period formula wherever the exact decision says yes -----------


def test_c02_period_formula_exhaustive(sweep_2_7):
    records, elapsed = sweep_2_7
    assert len(records) == sum((2 ** (n - 1) - 1) ** 2 for n in range(2, 8))
    for spec, rec in records.items():
        if rec.exact_ok:
            assert rec.period == rec.d_plus // rec.d, spec
    assert elapsed < 30.0, f"sweep took {elapsed:.1f} s, budget 30 s"


# criterion 3: competition limit shape for walk-ensured descriptors ----------


def test_c03_competition_limit(sweep_2_7):
    records, _ = sweep_2_7
    checked = 0
    for spec, rec in records.items():
        if rec.exact_ok and rec.d_plus <= spec.n:
            assert rec.comp_period == 1, spec
            assert rec.comp_limit == predicted_limit(spec), spec
            checked += 1
    assert checked > 100


# criterion 4: certificates never overclaim ----------------------------------


def test_c04_certificate_soundness(sweep_2_7):
    records, _ = sweep_2_7
    proven = 0
    for spec, rec in records.items():
        if rec.proven_by_rule:
            assert rec.exact_ok, spec
            proven += 1
    assert proven > 1000


# criterion 5: one-offset extensions stay walk-ensured -----------------------


def test_c05_extension_closure(sweep_2_7):
    records, _ = sweep_2_7
    checked = 0
    for spec, rec in records.items():
        if spec.n > 6 or not rec.exact_ok:
            continue
        for s_star in range(1, spec.n - rec.d + 1):
            wider_s = ToeplitzSpec(spec.n, spec.S + (s_star,), spec.T)
            wider_t = ToeplitzSpec(spec.n, spec.S, spec.T + (s_star,))
            assert records[wider_s].exact_ok, (spec, s_star, "S")
            assert records[wider_t].exact_ok, (spec, s_star, "T")
            checked += 1
    assert checked > 1000


# criterion 6: contraction identity and cycle decomposition up to order 12 ---


def test_c06_contraction_and_cycles():
    for n in range(2, 13):
        for d in range(2, n):
            for s in range(1, n - d + 1):
                if s % d == 0:
                    continue
                got = contract(from_toeplitz(ToeplitzSpec(n, (s,), ())), d)
                r = s % d
                want = from_toeplitz(ToeplitzSpec(d, (r,), (d - r,)))
                assert got == want, (n, d, s)
        for s in range(1, n):
            g = from_toeplitz(ToeplitzSpec(n, (s,), (n - s,)))
            cycles = cycle_decomposition(g)
            assert cycles is not None, (n, s)
            dd = math.gcd(n, s)
            want_classes = [
                [v for v in range(1, n + 1) if (v - 1) % dd == c] for c in range(dd)
            ]
            assert sorted(sorted(c) for c in cycles) == want_classes, (n, s)


# criterion 7: set containment chain and congruence-set laws -----------------


def test_c07_displacement_set_laws():
    for n in range(2, 7):
        for spec in enumerate_specs(n):
            prof = gcd_profile(spec)
            m = prof.d_plus // prof.d
            powers = PowerSequence(from_toeplitz(spec))
            p_at = {}
            for i, q in q_sequence(spec, 30):
                p = p_set(spec, i)
                p_at[i] = p
                assert r_set(powers.power(i)) <= q <= p, (spec, i)
            for i in range(1, 31 - m):
                assert p_at[i] == p_at[i + m], (spec, i)  # length-periodicity
            for i in range(1, min(m, 30)):
                for j in range(i + 1, min(m, 30) + 1):
                    assert p_at[i].isdisjoint(p_at[j]), (spec, i, j)
            for i in range(2, 31):
                # one more step shifts every member by s1 modulo d+
                assert p_at[i] == frozenset(
                    x
                    for x in range(-(n - 1), n)
                    if (x - prof.s1) % prof.d_plus
                    == (i - 1) * prof.s1 % prof.d_plus
                ), (spec, i)


# criterion 8: tail extensions never change the period -----------------------


def test_c08_tail_extension_periods(sweep_2_7):
    records, _ = sweep_2_7
    checked = 0
    for spec, rec in records.items():
        if not rec.exact_ok or rec.d < 2:
            continue
        for s_star in range(spec.n - rec.d + 1, spec.n):
            assert tail_extension_applicable(spec, s_star)
            wider = ToeplitzSpec(spec.n, spec.S + (s_star,), spec.T)
            assert records[wider].period == rec.period, (spec, s_star)
            # the sink/source rule must recognise the case and agree
            claimed = sink_source_same_period(spec, from_toeplitz(wider))
            assert claimed == rec.period, (spec, s_star)
            checked += 1
    assert checked == 40  # exhaustive count of applicable cases at these orders


# criterion 9: the two-pair family is certified by the short-pair rule -------


def test_c09_two_pair_family():
    star_false_pairs = []
    for n in range(3, 11):
        for k in range(1, (n - 1) // 2 + 1):
            spec = ToeplitzSpec(n, (k, n - k), (k + 1, n - k - 1))
            pair = check_coprime_pair(spec)
            assert pair is not None, (k, n)
            s, t = pair
            assert s + t <= n and math.gcd(s, t) == 1
            cert = certify_walk_ensured(spec)
            assert cert.verdict is Verdict.PROVEN_WALK_ENSURED, (k, n)
            ok, _ = decide_walk_ensured_exact(spec)
            assert ok, (k, n)
            if not check_star(spec):
                star_false_pairs.append((k, n))
                assert cert.rule.value == "CoprimePair", (k, n)
    assert star_false_pairs, "expected pairs outside the two-sided sum bound"
    assert star_false_pairs[0] == (1, 4)


# criterion 10: performance floors -------------------------------------------


def test_c10_performance(rng):
    big_a = BoolMatrix([rng.getrandbits(512) for _ in range(512)])
    big_b = BoolMatrix([rng.getrandbits(512) for _ in range(512)])
    assert best_of_three(lambda: big_a @ big_b) < 1.0

    spec = ToeplitzSpec(64, (1,), (1,))
    report = analyze(spec)
    assert report.matrix_period == 2 and report.walk_ensured
    assert best_of_three(lambda: analyze(spec)) < 0.05
