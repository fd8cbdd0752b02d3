"""Contraction, sources and sinks, cycle structure and walk lifting of digraphs."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toeplitz_periods import BoolMatrix, PowerSequence, ToeplitzSpec, from_toeplitz
from toeplitz_periods.digraph import (
    contract,
    cycle_decomposition,
    has_source_or_sink,
    power_period,
    to_dot,
)
from toeplitz_periods.oracle import enumerate_specs

from conftest import PROPERTY, random_boolmat


# --------------------------------------------------------------------------
# contraction
# --------------------------------------------------------------------------


def test_contract_single_offset_identity():
    # contracting the 3-offset digraph on 7 vertices modulo 2 yields the
    # full 2-vertex descriptor with offsets {1} up and {1} down
    got = contract(from_toeplitz(ToeplitzSpec(7, (3,), ())), 2)
    want = from_toeplitz(ToeplitzSpec(2, (1,), (1,)))
    assert got == want


def test_contract_identity_family():
    # for every d in [2, n), offset s <= n - d not divisible by d:
    # contraction modulo d equals the order-d descriptor with r = s mod d
    for n in range(3, 10):
        for d in range(2, n):
            for s in range(1, n - d + 1):
                if s % d == 0:
                    continue
                got = contract(from_toeplitz(ToeplitzSpec(n, (s,), ())), d)
                r = s % d
                want = from_toeplitz(ToeplitzSpec(d, (r,), (d - r,)))
                assert got == want, (n, d, s)


def test_contract_multiple_of_modulus_gives_loops():
    # offset divisible by d folds onto loops at every class that has an arc
    g = contract(from_toeplitz(ToeplitzSpec(7, (4,), ())), 2)
    assert sorted(g.entries()) == [(1, 1), (2, 2)]


def test_contract_bounds():
    g = from_toeplitz(ToeplitzSpec(5, (1,), (1,)))
    with pytest.raises(ValueError):
        contract(g, 0)
    with pytest.raises(ValueError):
        contract(g, 6)
    assert contract(g, 5) == g  # d = n keeps every vertex in its own class


def test_contract_to_point():
    g = from_toeplitz(ToeplitzSpec(5, (2,), ()))
    got = contract(g, 1)
    assert got.n == 1 and got.get(1, 1)


# --------------------------------------------------------------------------
# sources and sinks
# --------------------------------------------------------------------------


def test_has_source_or_sink_cases():
    # 2-cycle: neither
    assert has_source_or_sink(from_toeplitz(ToeplitzSpec(2, (1,), (1,)))) is False
    # empty row = sink
    assert has_source_or_sink(BoolMatrix.from_entries(2, [(1, 2)])) is True
    # column 1 never hit = source
    assert has_source_or_sink(BoolMatrix.from_entries(2, [(1, 2), (2, 2)])) is True
    # loops on every vertex: neither
    assert has_source_or_sink(BoolMatrix.identity(3)) is False
    assert has_source_or_sink(BoolMatrix.zeros(2)) is True


def test_tail_offset_contraction_has_sink():
    # adding offset 9 to a gcd-4 descriptor on 10 vertices: the added
    # arc (1, 10) folds to (1, 2) mod 4 and classes 3, 4 stay empty
    added = BoolMatrix.from_entries(10, [(1, 10)])
    g = contract(added, 4)
    assert sorted(g.entries()) == [(1, 2)]
    assert has_source_or_sink(g) is True


# --------------------------------------------------------------------------
# cycle decomposition
# --------------------------------------------------------------------------


def test_cycle_decomposition_two_cycles():
    # offsets {2} up and {4} down on 6 vertices: u -> u+2 wrapping at the
    # corner splits the vertices into the two parity classes
    g = from_toeplitz(ToeplitzSpec(6, (2,), (4,)))
    assert cycle_decomposition(g) == [[1, 3, 5], [2, 4, 6]]


def test_cycle_decomposition_wrap_family():
    # offsets {s} up and {n - s} down always permute; the cycles are the
    # residue classes modulo gcd(n, s)
    for n in range(2, 12):
        for s in range(1, n):
            g = from_toeplitz(ToeplitzSpec(n, (s,), (n - s,)))
            cycles = cycle_decomposition(g)
            assert cycles is not None, (n, s)
            d = math.gcd(n, s)
            want = [
                sorted(v for v in range(1, n + 1) if (v - 1) % d == c)
                for c in range(d)
            ]
            assert [sorted(c) for c in cycles] == want


def test_cycle_decomposition_rejects_non_permutations():
    # out-degree 2 somewhere
    assert cycle_decomposition(from_toeplitz(ToeplitzSpec(4, (1,), (1,)))) is None
    # out-degrees 1 but in-degrees 0 and 2
    g = BoolMatrix.from_entries(2, [(1, 2), (2, 2)])
    assert cycle_decomposition(g) is None
    # empty row
    assert cycle_decomposition(from_toeplitz(ToeplitzSpec(3, (2,), ()))) is None


def test_cycle_decomposition_order():
    g = BoolMatrix.from_entries(4, [(1, 3), (3, 1), (2, 4), (4, 2)])
    assert cycle_decomposition(g) == [[1, 3], [2, 4]]


# --------------------------------------------------------------------------
# walks
# --------------------------------------------------------------------------


def test_walk_exists_basics():
    # a (u, v)-walk of length m exists iff entry (u, v) of A^m is set
    powers = PowerSequence(from_toeplitz(ToeplitzSpec(3, (1,), ())))
    assert powers.power(0).get(1, 1) == 1
    assert powers.power(0).get(1, 2) == 0
    assert powers.power(2).get(1, 3) == 1
    assert powers.power(1).get(3, 1) == 0
    with pytest.raises(ValueError):
        powers.power(-1)


def test_worked_example_unreachable_pair():
    # vertex 5 never reaches vertex 2 in the worked 6-by-6 example
    powers = PowerSequence(from_toeplitz(ToeplitzSpec(6, (2, 4), (5,))))
    assert all(not powers.power(m).get(5, 2) for m in range(1, 25))


# --------------------------------------------------------------------------
# lifting: counting occurrences of one special offset along walks
# --------------------------------------------------------------------------


def special_arc_walk_profile(spec, s_star, max_len):
    """All (u, v, uses) with a walk from u to v using `uses` arcs of
    displacement +s_star, over walk lengths 1..max_len, by BFS."""
    adj = from_toeplitz(ToeplitzSpec(spec.n, spec.S + (s_star,), spec.T))
    n = adj.n
    out = set()
    for u in range(1, n + 1):
        frontier = {(u, 0)}
        for _ in range(max_len):
            nxt = set()
            for v, uses in frontier:
                for w in range(1, n + 1):
                    if adj.get(v, w):
                        nxt.add((w, uses + (1 if w - v == s_star else 0)))
            frontier = nxt
            out.update((u, v, uses) for v, uses in frontier)
    return out


def test_special_offset_walks_lift_to_contraction():
    # a walk using the adjoined offset s_star exactly c > 0 times forces
    # a length-c walk between the matching residue classes mod d in the
    # contraction of the pure-s_star digraph; c = 0 forces d | v - u
    for n in range(3, 6):
        for spec in enumerate_specs(n):
            d = math.gcd(*spec.S, *spec.T)
            if d < 2:
                continue
            for s_star in range(1, n):
                if s_star in spec.S or s_star % d == 0:
                    continue
                lifted = contract(from_toeplitz(ToeplitzSpec(n, (s_star,), ())), d)
                lifted_powers = PowerSequence(lifted)
                for u, v, uses in special_arc_walk_profile(spec, s_star, 8):
                    if uses == 0:
                        assert (v - u) % d == 0, (spec, s_star, u, v)
                    else:
                        assert lifted_powers.power(uses).get(
                            (u - 1) % d + 1, (v - 1) % d + 1
                        ), (spec, s_star, u, v, uses)


# --------------------------------------------------------------------------
# DOT rendering
# --------------------------------------------------------------------------


def test_to_dot_golden():
    g = from_toeplitz(ToeplitzSpec(2, (1,), (1,)))
    assert to_dot(g) == "digraph {\n  1;\n  2;\n  1 -> 2;\n  2 -> 1;\n}\n"


def test_to_dot_lists_isolated_vertices():
    g = BoolMatrix.zeros(2)
    assert to_dot(g) == "digraph {\n  1;\n  2;\n}\n"


# --------------------------------------------------------------------------
# period of the powers from the strong components
# --------------------------------------------------------------------------


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 24), st.sampled_from([0.8, 1.0, 1.2, 1.5, 3.0]))
def test_power_period_equals_the_scanned_period(seed, n, degree):
    # about one arc per vertex leaves several components with cycles of their own
    a = random_boolmat(random.Random(seed), n, degree / n)
    assert power_period(a) == PowerSequence(a).cycle()[1]


def test_power_period_matches_the_scan_on_3000_matrices():
    # every Toeplitz matrix of orders 2..6, read with its offsets and without;
    # T_n<1;n-2,n-1>, whose BFS runs about n levels deep; seeded random matrices
    cases = [
        (from_toeplitz(spec), offsets)
        for n in range(2, 7)
        for spec in enumerate_specs(n)
        for offsets in (None, (spec.S, spec.T))
    ]
    deep = [ToeplitzSpec(n, (1,), (n - 2, n - 1)) for n in range(4, 24)]
    cases += [(from_toeplitz(spec), (spec.S, spec.T)) for spec in deep]
    rng = random.Random(20261019)
    while len(cases) < 3000:
        n = rng.randint(2, 16)
        cases.append((random_boolmat(rng, n, rng.choice([0.8, 1.0, 1.5, 3.0]) / n), None))
    for a, offsets in cases:
        assert power_period(a, offsets) == PowerSequence(a).cycle()[1], (a, offsets)
