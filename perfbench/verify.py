"""Independent checks of the answers the benchmark times.

The analyze checks rebuild the matrix from the descriptor's definition
and use only ``BoolMatrix.power``, ``@`` (row selection) and
``transpose``, never ``PowerSequence`` or the table kernel that the
timed code runs on.  A claimed index M and period p of a sequence X
whose next term is a fixed function of the current one are exact when

  X_M = X_(M+p),  M = 1 or X_(M-1) != X_(M-1+p),
  and X_M != X_(M+p/q) for every prime q dividing p.

That holds for A^m and for the competition sequence
B_m = A^m (A^m)^T, because B_(m+1) = A B_m A^T.

Each check returns a list of problems; an empty list means the answer
is verified.
"""

from __future__ import annotations

import json
from math import gcd

from workloads import parse_spec

ANALYZE_KEYS = (
    "n",
    "S",
    "T",
    "d",
    "d_plus",
    "matrix_index",
    "matrix_period",
    "competition_index",
    "competition_period",
    "walk_ensured",
    "certificate_rule",
    "limit_matches_prediction",
)
INT_KEYS = ANALYZE_KEYS[:1] + ANALYZE_KEYS[3:9]
RULES = ("Star", "CoprimePair", "Main1", "ExtensionChain", "ExactDecision")


def _primes(x: int) -> list[int]:
    out, q = [], 2
    while q * q <= x:
        if x % q == 0:
            out.append(q)
            while x % q == 0:
                x //= q
        q += 1
    if x > 1:
        out.append(x)
    return out


def _rows(n: int, S, T) -> list[int]:
    """Rows of T_n<S;T> from its definition: (i, j) = 1 iff j-i in S or i-j in T."""
    return [
        sum(1 << j for j in range(n) if (j - i) in S or (i - j) in T) for i in range(n)
    ]


def check_cycle(label: str, term, step, index: int, period: int) -> list[str]:
    """Check (index, period) of X_m where term(m) is X_m and step(X, k) is X_(m+k).

    step(X, k) must map X_m to X_(m+k) for every m >= 1 it is used on.
    """
    if index < 1 or period < 1:
        return [f"{label}: index {index}, period {period} not positive"]
    problems = []
    at = term(index)
    if at != step(at, period):
        problems.append(f"{label}: X_{index} != X_{index + period}")
    if index > 1:
        before = term(index - 1)
        if before == step(before, period):
            problems.append(f"{label}: index not minimal, X_{index - 1} repeats")
    for q in _primes(period):
        if at == step(at, period // q):
            problems.append(f"{label}: period {period} not minimal, {period // q} works")
    return problems


def check_analyze(spec: str, rc: int, text: str, *, worst: bool = False) -> list[str]:
    """Verify one ``analyze --json`` answer for the descriptor text spec."""
    from toeplitz_periods import BoolMatrix

    if rc != 0:
        return [f"{spec}: exit code {rc}"]
    try:
        out = json.loads(text)
    except ValueError:
        return [f"{spec}: output is not JSON: {text[:80]!r}"]
    if not isinstance(out, dict) or tuple(out) != ANALYZE_KEYS:
        return [f"{spec}: keys {list(out) if isinstance(out, dict) else out!r}"]
    if any(type(out[key]) is not int for key in INT_KEYS):
        return [f"{spec}: non-integer field in {text.strip()}"]
    n, S, T = parse_spec(spec)
    problems = []
    if (out["n"], tuple(out["S"]), tuple(out["T"])) != (n, S, T):
        problems.append(f"{spec}: echoed descriptor {out['n']}, {out['S']}, {out['T']}")
    d = gcd(*S, *T)
    d_plus = gcd(*(s + t for s in S for t in T))
    if (out["d"], out["d_plus"]) != (d, d_plus):
        problems.append(f"{spec}: d, d+ = {out['d']}, {out['d_plus']}; want {d}, {d_plus}")
    if problems:
        return problems

    a = BoolMatrix(_rows(n, set(S), set(T)))
    a_pow = {}

    def a_step(x, k):
        if k not in a_pow:
            a_pow[k] = a.power(k)
        return x @ a_pow[k]

    m_idx, m_per = out["matrix_index"], out["matrix_period"]
    problems += [f"{spec}: {p}" for p in check_cycle("A", a.power, a_step, m_idx, m_per)]

    def b_term(m):
        x = a.power(m)
        return x @ x.transpose()

    def b_step(b, k):
        # B_(m+k) = A^k B_m (A^k)^T
        if k not in a_pow:
            a_pow[k] = a.power(k)
        ak = a_pow[k]
        return ak @ b @ ak.transpose()

    c_idx, c_per = out["competition_index"], out["competition_period"]
    problems += [f"{spec}: {p}" for p in check_cycle("B", b_term, b_step, c_idx, c_per)]

    walk = out["walk_ensured"]
    rule = out["certificate_rule"]
    if walk not in (True, False):
        problems.append(f"{spec}: walk_ensured {walk!r}")
    if rule not in RULES or (walk is False and rule != "ExactDecision"):
        problems.append(f"{spec}: certificate_rule {rule!r} with walk_ensured {walk}")
    star = S[0] + T[-1] <= n and S[-1] + T[0] <= n
    if (rule == "Star") != star:
        problems.append(f"{spec}: certificate_rule {rule!r} but Star condition is {star}")
    if walk and m_per != d_plus // d:
        problems.append(f"{spec}: walk-ensured but period {m_per} != d+/d = {d_plus // d}")

    match = out["limit_matches_prediction"]
    if c_per != 1 or d_plus > n:
        if match is not None:
            problems.append(f"{spec}: limit_matches_prediction {match!r}, want null")
    else:
        congruence = BoolMatrix(
            sum(1 << j for j in range(n) if (j - i) % d_plus == 0) for i in range(n)
        )
        want = b_term(c_idx) == congruence
        if match is not want:
            problems.append(f"{spec}: limit_matches_prediction {match!r}, want {want}")
        if walk and match is not True:
            problems.append(f"{spec}: walk-ensured with d+ <= n but limit differs")

    if worst and (m_idx, m_per, rule) != ((n - 1) ** 2, 1, "Star"):
        problems.append(f"{spec}: worst family wants index {(n - 1) ** 2}, period 1, Star")
    return problems


def check_sweep(rc: int, text: str, expected: str) -> list[str]:
    """The sweep must exit 0, report no violation and match the recorded report."""
    problems = []
    if rc != 0:
        problems.append(f"sweep: exit code {rc}")
    footer = text.rstrip("\n").rsplit("\n", 1)[-1]
    if " violations=0 " not in footer:
        problems.append(f"sweep: footer {footer!r}")
    if text != expected:
        got, want = text.splitlines(), expected.splitlines()
        diff = next(
            (i for i, (g, w) in enumerate(zip(got, want)) if g != w),
            min(len(got), len(want)),
        )
        problems.append(f"sweep: report differs from the recorded one at line {diff + 1}")
    return problems
