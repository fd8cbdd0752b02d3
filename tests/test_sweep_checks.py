"""The mask-native sweep checks against their set formulations on planted faults.

Each twin below is a check written over frozensets: p-sets, q-sets and
the entries of each power; the twins of same-residue-walks and
sum-congruence read the reach entry by entry and each draw term by
term.  A planted fault (a stray entry in one power, a missing walk,
a flipped bit in one Q mask, bent P masks, a doctored gcd profile) must
make the check and its twin return the same (spec, expected, actual,
severity) tuples, and that list must not be empty.  Sum-congruence tests
its generator coefficients, so it reports a unit draw where its sampled
twin reports a random one: the two must make the same claim, and the
check's draw must fail the identity term by term.
"""

import ast
import random
import re
from functools import reduce
from math import lcm
from operator import or_
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toeplitz_periods import (
    BoolMatrix,
    PowerSequence,
    TheoremViolationError,
    ToeplitzSpec,
    analyze,
    from_toeplitz,
    sink_source_same_period,
)
from toeplitz_periods import engine, oracle
from toeplitz_periods.oracle import (
    CHAIN_I_MAX,
    DISPLACEMENT_I_MAX,
    PER_SPEC_CHECKS,
    VIOLATION,
    Finding,
    SweepConfig,
    _check_containment_chain,
    _check_p_set_laws,
    _check_same_residue_walks,
    _check_sum_congruence,
    _check_tail_extension,
    _check_walk_displacements,
    _fmt,
    _Sweep,
)
from toeplitz_periods.toeplitz import Certificate, Rule, Verdict, gcd_profile
from toeplitz_periods.walksets import _mask_to_set, _p_masks, _q_masks

from conftest import PROPERTY, descriptors

WORKED = ToeplitzSpec(6, (2, 4), (5,))  # q-set {-3,-1,4} and r-set {4} at length 2
PARITY = ToeplitzSpec(4, (1,), (1,))  # d+ = 2: the p-sets alternate
THIRDS = ToeplitzSpec(4, (1,), (2,))  # d+ = 3, d = 1: three p-sets take turns
EVENS = ToeplitzSpec(6, (2,), (4,))  # walk-ensured, d = 2
TRIPLES = ToeplitzSpec(6, (3,), (3,))  # walk-ensured, d = 3


# --------------------------------------------------------------------------
# set twins
# --------------------------------------------------------------------------


def full_diagonals(power: BoolMatrix) -> frozenset[int]:
    n = power.n
    return frozenset(
        l
        for l in range(-(n - 1), n)
        if all(power.get(u, u + l) for u in range(1, n + 1) if 1 <= u + l <= n)
    )


def twin_containment_chain(spec, powers, p_of, q_sets):
    for i, q in enumerate(q_sets(spec, CHAIN_I_MAX), start=1):
        p = p_of(spec, i)
        r = full_diagonals(powers.power(i))
        if not (r <= q <= p):
            got = f"r={_fmt(r)} q={_fmt(q)} p={_fmt(p)}"
            return [(spec, f"i={i}: r <= q <= p", got, VIOLATION)]
    return []


def twin_p_set_laws(spec, an, p_of):
    m = an.profile.d_plus // an.profile.d
    ps = {i: p_of(spec, i) for i in range(1, CHAIN_I_MAX + m + 1)}
    s1, t1 = an.profile.s1, an.profile.t1
    for i in range(1, CHAIN_I_MAX + 1):
        if ps[i] != ps[i + m]:
            got = f"{_fmt(ps[i])} vs {_fmt(ps[i + m])}"
            return [(spec, f"i={i}: p-set repeats with period d+/d = {m}", got, VIOLATION)]
        group = [ps[i + k] for k in range(m)]
        if sum(len(g) for g in group) != len(set().union(*group)):
            want = f"i={i}: {m} consecutive p-sets pairwise disjoint"
            return [(spec, want, "overlap", VIOLATION)]
        if i >= 2:
            rec = frozenset(
                l
                for l in range(-(spec.n - 1), spec.n)
                if (l - s1 in ps[i - 1]) or (l + t1 in ps[i - 1])
            )
            if rec != ps[i]:
                got = f"{_fmt(rec)} vs {_fmt(ps[i])}"
                return [(spec, f"i={i}: recurrence from p-set at i-1", got, VIOLATION)]
    return []


def twin_walk_displacements(spec, powers, q_sets):
    for i, q in enumerate(q_sets(spec, DISPLACEMENT_I_MAX), start=1):
        realized = {v - u for u, v in powers.power(i).entries()}
        if not realized <= q:
            want = f"i={i}: walk displacements within q-set {_fmt(q)}"
            return [(spec, want, _fmt(realized), VIOLATION)]
    return []


def twin_same_residue_walks(sw, spec, powers, an):
    if not sw.truth(spec).walk_ensured:
        return []
    d = an.profile.d
    bound = an.matrix_index + lcm(an.matrix_period, an.profile.d_plus // d)
    powers_rows = (powers.power(m).rows for m in range(1, bound + 1))
    reach = BoolMatrix(reduce(or_, rows) for rows in zip(*powers_rows))
    for u in range(1, spec.n + 1):
        for v in range(1, spec.n + 1):
            if (u - v) % d == 0 and not reach.get(u, v):
                return [(spec, f"some ({u},{v})-walk of length <= {bound}", "none", VIOLATION)]
    return []


# The sampled twin draws CONGRUENCE_SAMPLES coefficient vectors per
# descriptor from CONGRUENCE_COEFFICIENTS, seeded by the descriptor.
CONGRUENCE_SAMPLES = 20
CONGRUENCE_COEFFICIENTS = range(-10, 11)


def termwise_difference(spec, s1, avec, bvec):
    """sum a*s - sum b*t - (sum a + sum b) s1, term by term."""
    lhs = sum(a * s for a, s in zip(avec, spec.S)) - sum(b * t for b, t in zip(bvec, spec.T))
    return lhs - (sum(avec) + sum(bvec)) * s1


def twin_sum_congruence(sw, spec, an):
    rng = random.Random(f"{sw.config.seed}:congruence:{spec}")
    prof = an.profile
    k, ks = len(spec.S) + len(spec.T), len(spec.S)
    draws = rng.choices(CONGRUENCE_COEFFICIENTS, k=CONGRUENCE_SAMPLES * k)
    for j in range(0, len(draws), k):
        avec, bvec = draws[j : j + ks], draws[j + ks : j + k]
        difference = termwise_difference(spec, prof.s1, avec, bvec)
        if difference % prof.d_plus != 0:
            want = f"combination congruent mod d+ = {prof.d_plus}"
            return [(spec, want, f"a={avec} b={bvec} difference {difference}", VIOLATION)]
    return []


# --------------------------------------------------------------------------
# planted faults
# --------------------------------------------------------------------------


class StrayPowers:
    """The powers of spec's matrix, with entry (u, v) added to power i."""

    def __init__(self, spec: ToeplitzSpec, i: int, u: int, v: int):
        self._powers = PowerSequence(from_toeplitz(spec))
        self._i, self._stray = i, BoolMatrix.from_entries(spec.n, [(u, v)])

    def power(self, m: int) -> BoolMatrix:
        x = self._powers.power(m)
        return BoolMatrix(map(or_, x.rows, self._stray.rows)) if m == self._i else x


class HolePowers:
    """The powers of spec's matrix with the given entries cleared in every one,
    each handed out as a new object."""

    def __init__(self, spec: ToeplitzSpec, holes: list[tuple[int, int]]):
        self._powers = PowerSequence(from_toeplitz(spec))
        self._keep = [~0] * spec.n
        for u, v in holes:
            self._keep[u - 1] &= ~(1 << (v - 1))

    def power(self, m: int) -> BoolMatrix:
        return BoolMatrix(map(int.__and__, self._powers.power(m).rows, self._keep))


class FreshPowers:
    """The same powers, each handed out as a new object on every call."""

    def __init__(self, powers):
        self._powers = powers

    def power(self, m: int) -> BoolMatrix:
        return BoolMatrix(self._powers.power(m).rows)


def q_masks_flipping(i: int, l: int):
    """_q_masks with the bit of displacement l flipped at length i."""

    def q_masks(spec, i_max):
        for j, mask in enumerate(_q_masks(spec, i_max), start=1):
            yield mask ^ (1 << (l + spec.n - 1)) if j == i else mask

    return q_masks


def as_sets(q_masks):
    return lambda spec, i_max: (_mask_to_set(m, spec.n) for m in q_masks(spec, i_max))


def p_set_of(p_masks):
    return lambda spec, i: _mask_to_set(next(p_masks(spec, i, i + 1)), spec.n)


def p_mask(spec, i):
    return next(_p_masks(spec, i, i + 1))


def p_masks_bent(bend):
    """_p_masks with each mask P_i replaced by bend(spec, i, P_i)."""

    def p_masks(spec, start, stop):
        for i, mask in zip(range(start, stop), _p_masks(spec, start, stop)):
            yield bend(spec, i, mask)

    return p_masks


NO_RECURRENCE = p_masks_bent(lambda spec, i, mask: p_mask(spec, 2 * i))


def sweep_of(spec: ToeplitzSpec) -> _Sweep:
    return _Sweep(SweepConfig(spec.n, spec.n))


STRAY = StrayPowers(WORKED, 2, 1, 6)  # displacement 5, outside the q-set


@pytest.mark.parametrize(
    "spec, powers, q_masks",
    [
        (WORKED, STRAY, _q_masks),  # r gains 5, which q lacks
        (WORKED, PowerSequence(from_toeplitz(WORKED)), q_masks_flipping(2, 4)),  # q loses r's 4
        (PARITY, PowerSequence(from_toeplitz(PARITY)), q_masks_flipping(3, 0)),  # q leaves p
        # past the first repeated Q mask (step 4 in PARITY, 4 in EVENS), where
        # _q_masks yields its cycle; WORKED's Q_25 is the whole window and its
        # R_25 empty, so no flip there breaks the chain
        (PARITY, PowerSequence(from_toeplitz(PARITY)), q_masks_flipping(25, 0)),  # q leaves p
        (EVENS, PowerSequence(from_toeplitz(EVENS)), q_masks_flipping(25, 2)),  # q loses r's 2
    ],
)
def test_containment_chain_matches_its_set_twin_on_planted_faults(
    monkeypatch, spec, powers, q_masks
):
    monkeypatch.setattr(oracle, "_q_masks", q_masks)
    got = _check_containment_chain(sweep_of(spec), spec, powers, analyze(spec))
    want = twin_containment_chain(spec, powers, p_set_of(_p_masks), as_sets(q_masks))
    assert got == want != []


@pytest.mark.parametrize(
    "spec, bend",
    [
        (WORKED, lambda spec, i, mask: mask ^ (1 << 3 if i == 5 else 0)),  # not periodic
        (THIRDS, lambda spec, i, mask: mask | p_mask(spec, i + 1)),  # overlapping
        (THIRDS, lambda spec, i, mask: p_mask(spec, 2 * i)),  # no recurrence
    ],
)
def test_p_set_laws_match_their_set_twin_on_planted_faults(monkeypatch, spec, bend):
    p_masks = p_masks_bent(bend)
    monkeypatch.setattr(oracle, "_p_masks", p_masks)
    an = analyze(spec)
    got = _check_p_set_laws(sweep_of(spec), spec, None, an)
    assert got == twin_p_set_laws(spec, an, p_set_of(p_masks)) != []


@pytest.mark.parametrize(
    "powers, q_masks",
    [
        (STRAY, _q_masks),  # a walk of displacement 5 that no 2-term sum gives
        (PowerSequence(from_toeplitz(WORKED)), q_masks_flipping(2, 4)),  # q loses entry (1,5)
    ],
)
def test_walk_displacements_match_their_set_twin_on_planted_faults(
    monkeypatch, powers, q_masks
):
    monkeypatch.setattr(oracle, "_q_masks", q_masks)
    got = _check_walk_displacements(sweep_of(WORKED), WORKED, powers, analyze(WORKED))
    assert got == twin_walk_displacements(WORKED, powers, as_sets(q_masks)) != []


@pytest.mark.parametrize("spec", [WORKED, PARITY, THIRDS, EVENS, TRIPLES])
def test_the_checks_and_their_twins_pass_unplanted_input(spec):
    powers, an, sw = PowerSequence(from_toeplitz(spec)), analyze(spec), sweep_of(spec)
    q_sets = as_sets(_q_masks)
    assert _check_containment_chain(sw, spec, powers, an) == []
    assert twin_containment_chain(spec, powers, p_set_of(_p_masks), q_sets) == []
    assert _check_p_set_laws(sw, spec, powers, an) == []
    assert twin_p_set_laws(spec, an, p_set_of(_p_masks)) == []
    assert _check_walk_displacements(sw, spec, powers, an) == []
    assert twin_walk_displacements(spec, powers, q_sets) == []
    assert _check_same_residue_walks(sw, spec, powers, an) == []
    assert twin_same_residue_walks(sw, spec, powers, an) == []
    assert _check_sum_congruence(sw, spec, powers, an) == []
    assert twin_sum_congruence(sw, spec, an) == []


def test_tail_extension_reports_a_period_the_recheck_rejects(monkeypatch):
    # T_7<2;2> extended by s* = 6: the added arcs contract to a source or
    # sink, so sink_source_same_period re-checks both periods
    base, ext = ToeplitzSpec(7, (2,), (2,)), from_toeplitz(ToeplitzSpec(7, (2, 6), (2,)))
    real = engine.matrix_period

    def one_more_on_ext(a):
        index, period = real(a)
        return index, period + (a == ext)

    monkeypatch.setattr(engine, "matrix_period", one_more_on_ext)
    changed = "extension of n=7;S=2;T=2 changed the period: 2 -> 3"
    with pytest.raises(TheoremViolationError, match=changed):
        sink_source_same_period(base, ext)
    powers, an = PowerSequence(from_toeplitz(base)), analyze(base)
    got = _check_tail_extension(sweep_of(base), base, powers, an)
    assert got == [(base, "period preserved", changed, VIOLATION)]


@pytest.mark.parametrize(
    "spec, holes",
    [
        (TRIPLES, [(4, 1), (5, 2)]),  # row-major order reports (4,1) first
        (TRIPLES, [(5, 2), (2, 5)]),
        (TRIPLES, [(1, 1)]),
        (TRIPLES, [(2, 5), (2, 2)]),  # two in one row: the lower column first
        (EVENS, [(6, 2), (3, 5)]),
        (EVENS, [(6, 6)]),
    ],
)
def test_same_residue_walks_match_their_entrywise_twin_on_missing_walks(spec, holes):
    powers, an, sw = HolePowers(spec, holes), analyze(spec), sweep_of(spec)
    got = _check_same_residue_walks(sw, spec, powers, an)
    assert got == twin_same_residue_walks(sw, spec, powers, an) != []


@pytest.mark.parametrize(
    "spec, doctored",
    [
        (EVENS, {"s1": 3}),  # d+ = 6 no longer divides s - s1
        (EVENS, {"d_plus": 4}),
        (ToeplitzSpec(7, (2, 5), (1, 4)), {"s1": 4}),  # two terms on each side
        (ToeplitzSpec(7, (2, 5), (1, 4)), {"d_plus": 9}),
        (ToeplitzSpec(8, (1, 3, 7), (5,)), {"s1": 2}),
    ],
)
def test_sum_congruence_matches_its_termwise_twin_on_doctored_profiles(spec, doctored):
    # both report the same claim; the check's draw is a unit draw
    an, sw = analyze(spec), sweep_of(spec)
    bent = an._replace(profile=an.profile._replace(**doctored))
    got = _check_sum_congruence(sw, spec, None, bent)
    twin = twin_sum_congruence(sw, spec, bent)
    assert twin != [] and got[0][:2] == twin[0][:2]
    assert_reports_a_failing_unit_draw(got, spec, bent.profile)


def assert_reports_a_failing_unit_draw(results, spec, prof):
    """results is one sum-congruence finding whose draw has a single 1, and
    whose difference is the termwise one and not a multiple of d+."""
    [(got_spec, want, actual, severity)] = results
    assert (got_spec, want, severity) == (
        spec,
        f"combination congruent mod d+ = {prof.d_plus}",
        VIOLATION,
    )
    a, b, difference = re.fullmatch(r"a=(\[.*\]) b=(\[.*\]) difference (-?\d+)", actual).groups()
    avec, bvec = ast.literal_eval(a), ast.literal_eval(b)
    assert (len(avec), len(bvec)) == (len(spec.S), len(spec.T))
    assert sorted(avec + bvec) == [0] * (len(avec) + len(bvec) - 1) + [1]
    assert int(difference) == termwise_difference(spec, prof.s1, avec, bvec)
    assert int(difference) % prof.d_plus != 0


@PROPERTY
@given(descriptors(), st.data())
def test_sum_congruence_reports_wherever_its_termwise_twin_does(spec, data):
    # on the true profile and on profiles with s1 or d+ redrawn, the check
    # reports whenever the sampled twin does, and when it is silent no
    # integer draw of any size fails the identity
    prof = gcd_profile(spec)
    s1 = data.draw(st.sampled_from([prof.s1, *range(1, spec.n)]))
    d_plus = data.draw(st.sampled_from([prof.d_plus, *range(1, 2 * spec.n)]))
    an = SimpleNamespace(profile=prof._replace(s1=s1, d_plus=d_plus))
    sw = _Sweep(SweepConfig(2, 2))
    got = _check_sum_congruence(sw, spec, None, an)
    if got:
        assert_reports_a_failing_unit_draw(got, spec, an.profile)
        return
    assert twin_sum_congruence(sw, spec, an) == []
    coefficients = st.integers(-1000, 1000)
    avec = data.draw(st.lists(coefficients, min_size=len(spec.S), max_size=len(spec.S)))
    bvec = data.draw(st.lists(coefficients, min_size=len(spec.T), max_size=len(spec.T)))
    assert termwise_difference(spec, s1, avec, bvec) % d_plus == 0


# --------------------------------------------------------------------------
# masks made once per distinct power
# --------------------------------------------------------------------------


@pytest.mark.parametrize("i", range(1, CHAIN_I_MAX + 1))
def test_masks_of_a_new_object_per_call_match_the_set_twins(i):
    # the powers repeat with period 2 from the index on; a stray entry of odd
    # displacement at an even length, or even at an odd one, leaves the q-set.
    # Every power is a new object on each call, so a new one may take the
    # address, and the id(), of one freed a length before
    spec = PARITY
    powers = FreshPowers(StrayPowers(spec, i, 1, 4 if i % 2 == 0 else 3))
    assert powers.power(i) == powers.power(i) and powers.power(i) is not powers.power(i)
    sw, an = sweep_of(spec), analyze(spec)
    q_sets = as_sets(_q_masks)
    got = _check_containment_chain(sw, spec, powers, an)
    assert got == twin_containment_chain(spec, powers, p_set_of(_p_masks), q_sets)
    got = _check_walk_displacements(sw, spec, powers, an)
    assert got == twin_walk_displacements(spec, powers, q_sets)
    assert got != [] or i > DISPLACEMENT_I_MAX


def test_a_shared_sweep_keeps_no_masks_from_one_descriptor_to_the_next():
    # every check, run on one _Sweep over planted and clean powers of three
    # descriptors in turn, answers as it does on a new _Sweep
    shared = _Sweep(SweepConfig(4, 6))
    runs = [
        (WORKED, STRAY),
        (WORKED, PowerSequence(from_toeplitz(WORKED))),
        (TRIPLES, HolePowers(TRIPLES, [(4, 1)])),
        (TRIPLES, PowerSequence(from_toeplitz(TRIPLES))),
        (PARITY, PowerSequence(from_toeplitz(PARITY))),
        (WORKED, STRAY),
    ]
    for spec, powers in runs:
        an = analyze(spec)
        for name, check in PER_SPEC_CHECKS:
            want = check(_Sweep(SweepConfig(4, 6)), spec, powers, an)
            assert check(shared, spec, powers, an) == want, name
    clean = PowerSequence(from_toeplitz(WORKED))
    assert _check_containment_chain(shared, WORKED, clean, analyze(WORKED)) == []


def test_patched_mask_functions_are_read_after_a_first_run(monkeypatch):
    # the checks of one visit share one table of P and Q masks, made from the
    # module's _p_masks and _q_masks, so a fault planted after a first run is
    # caught on the next visit
    sw = sweep_of(THIRDS)
    powers, an = sw.analyze_spec(THIRDS)
    assert _check_p_set_laws(sw, THIRDS, powers, an) == []
    assert _check_containment_chain(sw, THIRDS, powers, an) == []
    monkeypatch.setattr(oracle, "_p_masks", NO_RECURRENCE)
    assert _check_p_set_laws(sw, THIRDS, powers, an) == []  # the visit's table
    powers, an = sw.analyze_spec(THIRDS)
    assert _check_p_set_laws(sw, THIRDS, powers, an) != []
    monkeypatch.setattr(oracle, "_q_masks", q_masks_flipping(3, 0))
    powers, an = sw.analyze_spec(THIRDS)
    assert _check_walk_displacements(sw, THIRDS, powers, an) != []


def test_patched_power_masks_are_read_after_a_first_run(monkeypatch):
    # each check makes its own memo of _r_mask and _realized_mask when called,
    # so a fault planted after a first run is caught on the next visit
    sw = sweep_of(THIRDS)
    powers, an = sw.analyze_spec(THIRDS)
    assert _check_containment_chain(sw, THIRDS, powers, an) == []
    assert _check_walk_displacements(sw, THIRDS, powers, an) == []
    window = (1 << (2 * THIRDS.n - 1)) - 1  # every displacement, beyond any q-set
    monkeypatch.setattr(oracle, "_r_mask", lambda x: window)
    monkeypatch.setattr(oracle, "_realized_mask", lambda x: window)
    powers, an = sw.analyze_spec(THIRDS)
    assert _check_containment_chain(sw, THIRDS, powers, an) != []
    assert _check_walk_displacements(sw, THIRDS, powers, an) != []


# --------------------------------------------------------------------------
# the finding line of every branch, on a doctored report, truth or helper
# --------------------------------------------------------------------------


UNDECIDED = ToeplitzSpec(3, (2,), (2,))  # not walk-ensured; d+ = 4 exceeds n


def finding_lines(name: str, results) -> list[str]:
    return [Finding(name, str(spec), *rest).line() for spec, *rest in results]


def run_check(name: str, spec: ToeplitzSpec, sw=None, **doctored) -> list[str]:
    """The finding lines of check name on spec's real powers and report,
    the report's fields replaced by doctored."""
    check = dict(PER_SPEC_CHECKS)[name]
    an = analyze(spec)._replace(**doctored)
    powers = PowerSequence(from_toeplitz(spec))
    return finding_lines(name, check(sw or sweep_of(spec), spec, powers, an))


def sweep_with_truth(spec: ToeplitzSpec, of: ToeplitzSpec, **doctored) -> _Sweep:
    """A sweep for spec whose record of of has the doctored fields."""
    sw = sweep_of(spec)
    record = sw.truth(of)
    for field, value in doctored.items():
        setattr(record, field, value)
    return sw


def test_period_formula_reports_a_walk_ensured_period_off_the_formula():
    assert run_check("period-formula", EVENS, matrix_period=5) == [
        "period-formula\tn=6;S=2;T=4\tperiod 3 = d+/d\tperiod 5\tviolation"
    ]


def test_competition_limit_reports_each_branch():
    assert run_check("competition-limit", EVENS, competition_period=2) == [
        "competition-limit\tn=6;S=2;T=4\tcompetition period 1\tcompetition period 2\tviolation"
    ]
    assert run_check("competition-limit", EVENS, limit_matrix=BoolMatrix.ones(6)) == [
        "competition-limit\tn=6;S=2;T=4\tlimit equals the congruence-class matrix"
        "\tlimit differs\tviolation"
    ]
    sw = sweep_with_truth(UNDECIDED, UNDECIDED, walk_ensured=True)
    assert run_check("competition-limit", UNDECIDED, sw) == [
        "competition-limit\tn=3;S=2;T=2\tno claim (d+ exceeds the order)"
        "\tcompetition period 1\tobservation"
    ]


def test_competition_divisibility_records_a_period_that_does_not_divide():
    # c | p is a theorem, so a period that does not divide is a violation
    assert run_check("competition-divisibility", EVENS, competition_period=2) == [
        "competition-divisibility\tn=6;S=2;T=4\tcompetition period divides matrix period 3"
        "\tcompetition period 2\tviolation"
    ]


def test_certificate_soundness_reports_a_rule_the_exact_decision_rejects():
    cert = Certificate(Verdict.PROVEN_WALK_ENSURED, Rule.STAR, 1)
    assert run_check("certificate-soundness", UNDECIDED, certificate=cert) == [
        "certificate-soundness\tn=3;S=2;T=2\twalk-ensured (certified by Star)"
        "\texact decision: not walk-ensured\tviolation"
    ]


def test_superset_period_reports_a_superset_off_the_period():
    # T_6<1;1> has d+ = 2; T_6<1,3;1> keeps it and so must keep period 2
    base, star = ToeplitzSpec(6, (1,), (1,)), ToeplitzSpec(6, (1, 3), (1,))
    sw = sweep_with_truth(base, star, period=5)
    assert run_check("superset-period", base, sw) == [
        "superset-period\tn=6;S=1;T=1\tsuperset n=6;S=1,3;T=1 keeps period 2"
        "\tperiod 5\tviolation"
    ]


def test_tail_extension_reports_a_predicate_that_disagrees(monkeypatch):
    monkeypatch.setattr(oracle, "tail_extension_applicable", lambda spec, s_star: False)
    assert run_check("tail-extension", EVENS) == [
        "tail-extension\tn=6;S=2;T=4\ts*=5 inside the tail window\tpredicate disagrees\tviolation"
    ]


def test_tail_extension_reports_a_contraction_without_source_or_sink(monkeypatch):
    monkeypatch.setattr(oracle, "sink_source_same_period", lambda spec, b: None)
    assert run_check("tail-extension", EVENS) == [
        "tail-extension\tn=6;S=2;T=4\ts*=5: contraction of added arcs has a source or sink"
        "\tneither\tviolation"
    ]


def test_extension_closure_reports_an_extension_that_is_not_walk_ensured():
    ext = ToeplitzSpec(6, (1, 2), (4,))  # EVENS with s* = 1 on the S side
    sw = sweep_with_truth(EVENS, ext, walk_ensured=False)
    assert run_check("extension-closure", EVENS, sw) == [
        "extension-closure\tn=6;S=2;T=4\textension n=6;S=1,2;T=4 stays walk-ensured (s*=1)"
        "\texact decision: not walk-ensured\tviolation"
    ]


def test_gcd_update_reports_an_update_off_the_recomputation(monkeypatch):
    monkeypatch.setattr(oracle, "gcd_after_extension", lambda d, d_plus, s_star, ref: (0, 0))
    assert run_check("gcd-update", EVENS) == [
        "gcd-update\tn=6;S=2;T=4\ts*=1 ref=2: (1, 1)\t(0, 0)\tviolation"
    ]
