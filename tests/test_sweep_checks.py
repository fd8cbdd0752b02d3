"""The mask-native sweep checks against their set formulations on planted faults.

Each twin below is a check written over frozensets: p-sets, q-sets and
the entries of each power.  A planted fault (a stray entry in one
power, a flipped bit in one Q mask, bent P masks) must make the check
and its twin return the same (spec, expected, actual, severity) tuples,
and that list must not be empty.
"""

import pytest

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
    VIOLATION,
    SweepConfig,
    _check_containment_chain,
    _check_p_set_laws,
    _check_tail_extension,
    _check_walk_displacements,
    _fmt,
    _Sweep,
)
from toeplitz_periods.walksets import _mask_to_set, _p_mask, _q_masks

WORKED = ToeplitzSpec(6, (2, 4), (5,))  # q-set {-3,-1,4} and r-set {4} at length 2
PARITY = ToeplitzSpec(4, (1,), (1,))  # d+ = 2: the p-sets alternate
THIRDS = ToeplitzSpec(4, (1,), (2,))  # d+ = 3, d = 1: three p-sets take turns


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
        return x | self._stray if m == self._i else x


def q_masks_flipping(i: int, l: int):
    """_q_masks with the bit of displacement l flipped at length i."""

    def q_masks(spec, i_max):
        for j, mask in enumerate(_q_masks(spec, i_max), start=1):
            yield mask ^ (1 << (l + spec.n - 1)) if j == i else mask

    return q_masks


def as_sets(q_masks):
    return lambda spec, i_max: (_mask_to_set(m, spec.n) for m in q_masks(spec, i_max))


def p_set_of(p_mask):
    return lambda spec, i: _mask_to_set(p_mask(spec, i), spec.n)


def sweep_of(spec: ToeplitzSpec) -> _Sweep:
    return _Sweep(SweepConfig(spec.n, spec.n))


STRAY = StrayPowers(WORKED, 2, 1, 6)  # displacement 5, outside the q-set


@pytest.mark.parametrize(
    "spec, powers, q_masks",
    [
        (WORKED, STRAY, _q_masks),  # r gains 5, which q lacks
        (WORKED, PowerSequence(from_toeplitz(WORKED)), q_masks_flipping(2, 4)),  # q loses r's 4
        (PARITY, PowerSequence(from_toeplitz(PARITY)), q_masks_flipping(3, 0)),  # q leaves p
    ],
)
def test_containment_chain_matches_its_set_twin_on_planted_faults(
    monkeypatch, spec, powers, q_masks
):
    monkeypatch.setattr(oracle, "_q_masks", q_masks)
    got = _check_containment_chain(sweep_of(spec), spec, powers, analyze(spec))
    want = twin_containment_chain(spec, powers, p_set_of(_p_mask), as_sets(q_masks))
    assert got == want != []


@pytest.mark.parametrize(
    "spec, p_mask",
    [
        (WORKED, lambda spec, i: _p_mask(spec, i) ^ (1 << 3 if i == 5 else 0)),  # not periodic
        (THIRDS, lambda spec, i: _p_mask(spec, i) | _p_mask(spec, i + 1)),  # overlapping
        (THIRDS, lambda spec, i: _p_mask(spec, 2 * i)),  # no recurrence
    ],
)
def test_p_set_laws_match_their_set_twin_on_planted_faults(monkeypatch, spec, p_mask):
    monkeypatch.setattr(oracle, "_p_mask", p_mask)
    an = analyze(spec)
    got = _check_p_set_laws(sweep_of(spec), spec, None, an)
    assert got == twin_p_set_laws(spec, an, p_set_of(p_mask)) != []


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


@pytest.mark.parametrize("spec", [WORKED, PARITY, THIRDS])
def test_the_checks_and_their_twins_pass_unplanted_input(spec):
    powers, an, sw = PowerSequence(from_toeplitz(spec)), analyze(spec), sweep_of(spec)
    q_sets = as_sets(_q_masks)
    assert _check_containment_chain(sw, spec, powers, an) == []
    assert twin_containment_chain(spec, powers, p_set_of(_p_mask), q_sets) == []
    assert _check_p_set_laws(sw, spec, powers, an) == []
    assert twin_p_set_laws(spec, an, p_set_of(_p_mask)) == []
    assert _check_walk_displacements(sw, spec, powers, an) == []
    assert twin_walk_displacements(spec, powers, q_sets) == []


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
