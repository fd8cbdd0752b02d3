"""Displacement sets P/Q/R against brute-force enumerations."""

import itertools
import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toeplitz_periods import (
    BoolMatrix,
    PowerSequence,
    ToeplitzSpec,
    from_toeplitz,
    walksets_at,
)
from toeplitz_periods.oracle import CHAIN_I_MAX, enumerate_specs
from toeplitz_periods.toeplitz import gcd_profile
from toeplitz_periods.walksets import (
    _mask_to_set,
    _p_masks,
    _q_fold,
    _q_masks,
    _r_mask,
    _realized_mask,
    p_set,
    q_sequence,
    q_set,
    r_set,
)

from conftest import PROPERTY, descriptors, naive_q_set

WORKED = ToeplitzSpec(6, (2, 4), (5,))


def brute_q(spec: ToeplitzSpec, i: int) -> frozenset:
    """Exactly-i-term sums by exhaustive product over S u (-T)."""
    terms = list(spec.S) + [-t for t in spec.T]
    sums = {sum(c) for c in itertools.product(terms, repeat=i)}
    return frozenset(x for x in sums if -(spec.n - 1) <= x <= spec.n - 1)


def brute_r(power) -> frozenset:
    """Offsets whose every diagonal entry of the power is one."""
    n = power.n
    out = set()
    for offset in range(-(n - 1), n):
        pairs = [
            (u, u + offset)
            for u in range(1, n + 1)
            if 1 <= u + offset <= n
        ]
        if all(power.get(u, v) for u, v in pairs):
            out.add(offset)
    return frozenset(out)


# --------------------------------------------------------------------------
# the worked six-by-six example
# --------------------------------------------------------------------------


def test_worked_example_sets_at_length_two():
    ws = walksets_at(WORKED, 2)
    assert ws.p == frozenset(range(-5, 6))
    assert ws.q == frozenset({-3, -1, 4})
    assert ws.r == frozenset({4})
    # the only guaranteed offset at length 2: entry (1, 5) of the square
    assert from_toeplitz(WORKED).power(2).get(1, 5) == 1


def test_worked_example_chain_is_strict():
    ws = walksets_at(WORKED, 2)
    assert ws.r < ws.q < ws.p


# --------------------------------------------------------------------------
# congruence sets P
# --------------------------------------------------------------------------


def test_p_set_examples():
    # d+ = 2 keeps parity: odd lengths give odd displacements
    assert p_set(ToeplitzSpec(4, (1,), (1,)), 3) == frozenset({-3, -1, 1, 3})
    assert p_set(ToeplitzSpec(4, (1,), (1,)), 2) == frozenset({-2, 0, 2})
    # d+ = 1 puts every displacement in every class
    assert p_set(WORKED, 1) == frozenset(range(-5, 6))


def test_p_set_laws_exhaustive():
    for n in range(2, 6):
        for spec in enumerate_specs(n):
            prof = gcd_profile(spec)
            m = prof.d_plus // prof.d
            sets = {i: p_set(spec, i) for i in range(1, 2 * m + 3)}
            for i in range(1, m + 3):
                assert sets[i] == sets[i + m]  # periodic with period d+/d
            for i, j in itertools.combinations(range(1, m + 1), 2):
                assert sets[i].isdisjoint(sets[j])  # classes partition
            for i in range(2, m + 3):
                # one more step shifts the class by s1 (equivalently -t1)
                assert sets[i] == frozenset(
                    x for x in range(-(n - 1), n) if (x - prof.s1) % prof.d_plus
                    == (i - 1) * prof.s1 % prof.d_plus
                )


def test_p_masks_equal_the_congruence_definition():
    # one call makes the masks of a run of lengths from one comb; P_0 is the
    # class of 0, and a run may start anywhere
    for spec in SMALL_SPECS:
        prof = gcd_profile(spec)
        stop = 2 * CHAIN_I_MAX + prof.d_plus // prof.d + 1
        for i, mask in enumerate(_p_masks(spec, 0, stop)):
            congruent = {
                l for l in range(-(spec.n - 1), spec.n) if (l - i * prof.s1) % prof.d_plus == 0
            }
            assert _mask_to_set(mask, spec.n) == congruent, (spec, i)
        whole = list(_p_masks(spec, 0, stop))
        assert list(_p_masks(spec, 7, stop)) == whole[7:]


def test_p_set_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        p_set(WORKED, 0)


# --------------------------------------------------------------------------
# exact-length sum sets Q
# --------------------------------------------------------------------------


def test_q_set_examples():
    assert q_set(ToeplitzSpec(3, (1,), (1,)), 2) == frozenset({-2, 0, 2})
    # final clamp only: 3 + 3 = 6 leaves the window of n = 4, 3 - 1 stays
    assert q_set(ToeplitzSpec(4, (3,), (1,)), 2) == frozenset({-2, 2})
    assert q_set(WORKED, 1) == frozenset({2, 4, -5})


def test_q_set_matches_brute_force():
    for n in range(2, 6):
        for spec in enumerate_specs(n):
            for i in range(1, 6):
                assert q_set(spec, i) == brute_q(spec, i), (spec, i)


def test_q_sequence_matches_q_set():
    for spec in (WORKED, ToeplitzSpec(5, (1, 4), (2, 3))):
        for i, q in q_sequence(spec, 12):
            assert q == q_set(spec, i)


def test_q_set_bounds():
    with pytest.raises(ValueError):
        q_set(WORKED, 0)


def test_q_set_long_walks_match_unclamped_twin():
    assert q_set(WORKED, 200) == naive_q_set(6, WORKED.S, WORKED.T, 200)


def plain_q_masks(spec: ToeplitzSpec, i_max: int) -> list[int]:
    """Q_1 .. Q_i_max by the shift-OR DP, every step taken, nothing folded."""
    full, mask, out = (1 << (2 * spec.n - 1)) - 1, 1 << (spec.n - 1), []
    for _ in range(i_max):
        mask = reduce(or_, [mask << s for s in spec.S] + [mask >> t for t in spec.T]) & full
        out.append(mask)
    return out


SMALL_SPECS = [spec for n in range(2, 7) for spec in enumerate_specs(n)]


def test_folded_q_masks_equal_the_plain_dp():
    # _q_masks stops its DP at the first repeated mask and yields the cycle;
    # the repeat comes by step 26 on every descriptor here, so the lengths up
    # to 30 stop the DP before, at and after it
    for spec in SMALL_SPECS:
        plain = plain_q_masks(spec, 200)
        assert len(_q_fold(spec, 200)[0]) < 26
        for i_max in [*range(1, 31), 200]:
            assert list(_q_masks(spec, i_max)) == plain[:i_max], (spec, i_max)


def test_q_set_far_past_the_fold_equals_the_plain_dp():
    # the plain masks repeat with some least period p from step 40 on, so
    # Q_(10^20) is the plain mask at the step of the same residue mod p
    i = 10**20
    for spec in SMALL_SPECS:
        plain = plain_q_masks(spec, 160)
        p = next(p for p in range(1, 41) if plain[40:160] == plain[40 - p : 160 - p])
        want = plain[40 + (i - 41) % p]
        assert q_set(spec, i) == _mask_to_set(want, spec.n), spec


def test_q_set_folds_long_walks_into_the_cycle_of_the_masks():
    # Q_(i+1) is a function of Q_i, so q_set folds i into the cycle at the
    # first repeated mask: step 12 in the worked example (Q_12 = Q_11), step
    # 3 in n=4;S=2;T=2 (Q_3 = Q_1, a cycle of two).  Held to the DP up to 40
    specs = [spec for n in range(2, 6) for spec in enumerate_specs(n)]
    for spec in [WORKED, ToeplitzSpec(9, (3, 6), (3,)), *specs]:
        dp = list(_q_masks(spec, 40))
        for i in range(1, 41):
            assert q_set(spec, i) == _mask_to_set(dp[i - 1], spec.n), (spec, i)


# --------------------------------------------------------------------------
# realized sets R
# --------------------------------------------------------------------------


def test_r_set_examples():
    a = from_toeplitz(ToeplitzSpec(3, (1,), (1,)))
    assert r_set(a) == frozenset({-1, 1})
    assert r_set(a @ a) == frozenset({-2, 0, 2})
    assert r_set(from_toeplitz(WORKED).power(2)) == frozenset({4})


def test_r_set_matches_brute_force():
    for n in range(2, 6):
        for spec in enumerate_specs(n):
            a = from_toeplitz(spec)
            ps = PowerSequence(a)
            for i in (1, 2, 3, 5, 8):
                assert r_set(ps.power(i)) == brute_r(ps.power(i)), (spec, i)


def test_r_set_of_extremes():
    assert r_set(BoolMatrix.ones(4)) == frozenset(range(-3, 4))
    assert r_set(BoolMatrix.zeros(4)) == frozenset()
    assert r_set(BoolMatrix.identity(4)) == frozenset({0})


# --------------------------------------------------------------------------
# containment chain r <= q <= p
# --------------------------------------------------------------------------


def test_containment_chain_exhaustive():
    for n in range(2, 6):
        for spec in enumerate_specs(n):
            powers = PowerSequence(from_toeplitz(spec))
            for i, q in q_sequence(spec, 12):
                p = p_set(spec, i)
                r = r_set(powers.power(i))
                assert r <= q <= p, (spec, i)


# --------------------------------------------------------------------------
# sum congruence: integer combinations respect d+
# --------------------------------------------------------------------------


def test_sum_congruence_1000_random_vectors():
    rng = random.Random(4204)
    specs = []
    for n in range(2, 8):
        all_specs = list(enumerate_specs(n))
        specs.extend(rng.sample(all_specs, min(4, len(all_specs))))
    count = 0
    while count < 1000:
        spec = rng.choice(specs)
        prof = gcd_profile(spec)
        terms = list(spec.S) + [-t for t in spec.T]
        length = rng.randint(1, 12)
        u = [rng.choice(terms) for _ in range(length)]
        v = [rng.choice(terms) for _ in range(length)]
        # equal-length sums from S u (-T) are congruent modulo d+
        assert (sum(u) - sum(v)) % prof.d_plus == 0
        count += 1


# --------------------------------------------------------------------------
# properties on random descriptors, n <= 24 and 1 <= i <= 80
# --------------------------------------------------------------------------

lengths = st.integers(1, 80)


@st.composite
def matrices(draw):
    """Random entries over some full diagonals, minus a few holes."""
    n = draw(st.integers(2, 24))
    cells = st.tuples(st.integers(1, n), st.integers(1, n))
    diagonals = draw(st.sets(st.integers(-(n - 1), n - 1)))
    entries = {(u, u + l) for l in diagonals for u in range(1, n + 1) if 1 <= u + l <= n}
    entries |= set(draw(st.lists(cells, max_size=n * n)))
    entries -= set(draw(st.lists(cells, max_size=3)))
    return BoolMatrix.from_entries(n, entries)


@PROPERTY
@given(descriptors(), lengths)
def test_q_set_equals_unclamped_twin(spec, i):
    assert q_set(spec, i) == naive_q_set(spec.n, spec.S, spec.T, i)
    assert all(m.bit_length() <= 2 * spec.n - 1 for m in _q_masks(spec, i))


@PROPERTY
@given(matrices())
def test_r_set_equals_brute_force_on_random_matrices(a):
    assert r_set(a) == brute_r(a)


@PROPERTY
@given(descriptors(), lengths)
def test_p_set_equals_congruence_filter(spec, i):
    prof = gcd_profile(spec)
    assert p_set(spec, i) == frozenset(
        l for l in range(-(spec.n - 1), spec.n) if (l - i * prof.s1) % prof.d_plus == 0
    )


@PROPERTY
@given(descriptors(), lengths)
def test_containment_chain_on_random_descriptors(spec, i):
    r = r_set(PowerSequence(from_toeplitz(spec)).power(i))
    assert r <= q_set(spec, i) <= p_set(spec, i)


@PROPERTY
@given(descriptors(), lengths)
def test_window_masks_equal_their_set_twins(spec, i):
    power = PowerSequence(from_toeplitz(spec)).power(i)
    prof = gcd_profile(spec)
    congruent = {l for l in range(-(spec.n - 1), spec.n) if (l - i * prof.s1) % prof.d_plus == 0}
    assert _mask_to_set(next(_p_masks(spec, i, i + 1)), spec.n) == congruent
    assert _mask_to_set(_r_mask(power), spec.n) == brute_r(power)
    realized = {v - u for u, v in power.entries()}
    assert _mask_to_set(_realized_mask(power), spec.n) == realized


@PROPERTY
@given(matrices())
def test_r_and_realized_masks_on_random_matrices(a):
    assert _mask_to_set(_r_mask(a), a.n) == brute_r(a)
    assert _mask_to_set(_realized_mask(a), a.n) == {v - u for u, v in a.entries()}
