"""Shared reference oracles and the acceptance-criteria summary hook.

The oracles here are deliberately naive re-implementations (nested loops
over plain tuples) so that the bit-packed production code is checked
against an independent formulation, not against itself.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from functools import cache

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from toeplitz_periods import BoolMatrix, PowerSequence, ToeplitzSpec

# --------------------------------------------------------------------------
# naive matrix reference implementations (tuple-of-tuples of 0/1)
# --------------------------------------------------------------------------


def naive_from_boolmat(a: BoolMatrix) -> tuple[tuple[int, ...], ...]:
    n = a.n
    return tuple(
        tuple(a.get(i, j) for j in range(1, n + 1)) for i in range(1, n + 1)
    )


def naive_to_boolmat(rows: tuple[tuple[int, ...], ...]) -> BoolMatrix:
    n = len(rows)
    entries = [
        (i + 1, j + 1) for i in range(n) for j in range(n) if rows[i][j]
    ]
    return BoolMatrix.from_entries(n, entries)


def naive_multiply(
    x: tuple[tuple[int, ...], ...], y: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    n = len(x)
    return tuple(
        tuple(
            1 if any(x[i][k] and y[k][j] for k in range(n)) else 0
            for j in range(n)
        )
        for i in range(n)
    )


def naive_transpose(
    x: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    n = len(x)
    return tuple(tuple(x[j][i] for j in range(n)) for i in range(n))


def naive_toeplitz(n: int, S, T) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(
            1 if (j - i) in S or (i - j) in T else 0 for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )


def naive_power_cycle(
    rows: tuple[tuple[int, ...], ...], max_steps: int = 400
) -> tuple[int, int]:
    """Independent (index, period) of the power sequence A, A^2, ...

    Scans forward from the first power, recording each matrix at its
    first appearance; the first repeat yields the answer.
    """
    seen: dict[tuple, int] = {}
    cur = rows
    for m in range(1, max_steps + 1):
        if cur in seen:
            return seen[cur], m - seen[cur]
        seen[cur] = m
        cur = naive_multiply(cur, rows)
    raise AssertionError("naive power scan did not cycle")


def naive_competition_sequence(
    rows: tuple[tuple[int, ...], ...], length: int
) -> list[tuple[tuple[int, ...], ...]]:
    """[A(A^T), A^2(A^T)^2, ...] up to the given length, naively."""
    out = []
    t = naive_transpose(rows)
    a_m, t_m = rows, t
    for _ in range(length):
        out.append(naive_multiply(a_m, t_m))
        a_m = naive_multiply(a_m, rows)
        t_m = naive_multiply(t_m, t)
    return out


@cache
def scanned_cycle(a: BoolMatrix) -> tuple[int, int]:
    """(index, period) of a's powers by the linear scan, once per matrix in a
    session.  The pair is kept, never the PowerSequence: one scan of
    T_64<1;62,63> holds 10.9 MiB of powers."""
    return PowerSequence(a).cycle()


def scanned_competition(a: BoolMatrix) -> tuple[int, int, BoolMatrix | None]:
    """(index, period, limit) of B_m = A^m (A^T)^m by a linear scan.

    B_(m+1) = A B_m A^T, so B is the orbit of a fixed map and its first
    repeat gives the least index and period; B_m is a function of A^m,
    so the orbit closes by step index + period of A, which is asserted.
    The limit is B_q when the period is 1.
    """
    at = a.transpose()
    first: dict[BoolMatrix, int] = {}
    b = a @ at
    while b not in first:
        first[b] = len(first) + 1
        b = a @ b @ at
    index, closed = first[b], len(first) + 1
    assert closed <= sum(scanned_cycle(a)), "B closed after index + period of A"
    period = closed - index
    return index, period, b if period == 1 else None


def j_conjugate(x: BoolMatrix) -> BoolMatrix:
    """J·x·J, J the exchange matrix: the rows in reverse order, each row's
    n bits reversed."""
    return BoolMatrix(int(format(row, f"0{x.n}b")[::-1], 2) for row in reversed(x.rows))


class Calls(Counter):
    """Calls per key, and in ``args[key]`` the positional arguments of each."""

    def __init__(self):
        super().__init__()
        self.args = defaultdict(list)

    def clear(self):
        super().clear()
        self.args.clear()


def record_calls(monkeypatch, *targets) -> Calls:
    """Wrap each target, (owner, name) or (owner, name, key), so that every
    call still runs and is recorded under key, the name when none is given;
    one function wrapped on two owners counts under each owner's key."""
    calls = Calls()
    for owner, name, *key in targets:
        fn, key = getattr(owner, name), (key or [name])[0]

        def recorded(*args, fn=fn, key=key):
            calls[key] += 1
            calls.args[key].append(args)
            return fn(*args)

        monkeypatch.setattr(owner, name, recorded)
    return calls


def random_boolmat(rng: random.Random, n: int, density: float = 0.5) -> BoolMatrix:
    entries = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if rng.random() < density
    ]
    return BoolMatrix.from_entries(n, entries)


def naive_q_set(n: int, S, T, i: int) -> frozenset[int]:
    """Sums of exactly i terms from S u (-T) that end in [-(n-1), n-1].

    A plain set DP over every i-term sum; intermediate sums are never
    clamped, so it does not rely on the window argument of q_set.
    """
    sums = {0}
    for _ in range(i):
        sums = {x + s for x in sums for s in S} | {x - t for x in sums for t in T}
    return frozenset(x for x in sums if -(n - 1) <= x <= n - 1)


# --------------------------------------------------------------------------
# hypothesis: settings and descriptor strategy shared by the property tests
# --------------------------------------------------------------------------

# derandomized and without an example database: the same examples on
# every run, and no files written
PROPERTY = settings(max_examples=40, derandomize=True, database=None, deadline=None)


@st.composite
def descriptors(draw, min_n: int = 2):
    """T_n<S;T> with min_n <= n <= 24 and both offset sets nonempty."""
    n = draw(st.integers(min_n, 24))
    offsets = st.sets(st.integers(1, n - 1), min_size=1)
    return ToeplitzSpec(n, draw(offsets), draw(offsets))


# --------------------------------------------------------------------------
# acceptance summary: one pass/fail line per criterion
# --------------------------------------------------------------------------

ACCEPTANCE_LABELS = {
    "test_c01": "criterion  1 (worked example: walk sets, entry, decision, timing)",
    "test_c02": "criterion  2 (period formula exhaustive n=2..7 under 30 s)",
    "test_c03": "criterion  3 (limit matrix for walk-ensured specs n=2..7)",
    "test_c04": "criterion  4 (certificate soundness n=2..7, zero tolerance)",
    "test_c05": "criterion  5 (extension closure n<=6)",
    "test_c06": "criterion  6 (contraction identity and cycles n<=12)",
    "test_c07": "criterion  7 (displacement-set laws n<=6, i<=30)",
    "test_c08": "criterion  8 (tail extension period transfer n<=7)",
    "test_c09": "criterion  9 (two-pair family certified coprime up to n=10)",
    "test_c10": "criterion 10 (performance: n=512 multiply, n=64 analysis)",
}

_acceptance_results: dict[str, bool] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    key = next((k for k in ACCEPTANCE_LABELS if k in report.nodeid), None)
    if key is None:
        return
    if report.when == "call":
        # a criterion split across parametrized cases fails if any case fails
        _acceptance_results[key] = _acceptance_results.get(key, True) and report.passed
    elif report.failed:  # setup/teardown error counts as failure
        _acceptance_results[key] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(ACCEPTANCE_LABELS):
        if key in _acceptance_results:
            status = "PASS" if _acceptance_results[key] else "FAIL"
            terminalreporter.write_line(f"{ACCEPTANCE_LABELS[key]}: {status}")


@pytest.fixture
def rng():
    return random.Random(20260826)
