"""Brute-force cross-validation sweeps.

Every claim the library exploits as a formula is re-checked here from
first principles on small instances: ground truth is always direct
power iteration and explicit set computation, never the formula under
test.  A sweep walks descriptors (exhaustively below order 9, seeded
random sampling above), runs a registry of named checks against each,
and reports findings.

Severities: a "violation" contradicts a claimed identity; an
"observation" records behaviour in territory where nothing is claimed
(kept because such instances are exactly the counterexample candidates
worth collecting).  Reports are deterministic for a given
configuration, including the random mode via its recorded seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, lcm
from typing import Callable, Iterator, Optional

from .boolmat import CapExceededError, PowerSequence, from_toeplitz
from .digraph import Digraph, contract, cycle_decomposition, walk_exists
from .engine import (
    PeriodReport,
    TheoremViolationError,
    analyze,
    decide_walk_ensured_exact,
    limits_match,
    predicted_limit,
    sink_source_same_period,
)
from .toeplitz import (
    Rule,
    ToeplitzSpec,
    Verdict,
    gcd_after_extension,
    gcd_profile,
    tail_extension_applicable,
)
from .walksets import p_set, q_sequence, q_set, r_set, window

VIOLATION = "violation"
OBSERVATION = "observation"

WORKED_EXAMPLE = ToeplitzSpec(6, (2, 4), (5,))

# Scales the costlier checks are vouched for: walk lengths of the
# containment chain and p-set laws, of the walk-displacement check,
# random vectors per descriptor, and the largest orders of the superset
# and extension-closure checks.
CHAIN_I_MAX = 30
DISPLACEMENT_I_MAX = 12
CONGRUENCE_SAMPLES = 20
SUPERSET_N_MAX = 6
EXTENSION_N_MAX = 6


@dataclass(frozen=True)
class Finding:
    """One check outcome worth reporting; reproducible from check + spec."""

    check: str
    spec: str
    expected: str
    actual: str
    severity: str

    def line(self) -> str:
        return "\t".join((self.check, self.spec, self.expected, self.actual, self.severity))


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep and how hard.

    Exhaustive mode enumerates every nonempty offset pair and is held
    to small orders; random mode draws `samples` descriptor pairs per
    order from the recorded seed.  checks=None means the full
    registry.
    """

    n_lo: int
    n_hi: int
    mode: str = "exhaustive"
    samples: int = 0
    seed: int = 0
    checks: Optional[frozenset[str]] = None
    max_power: Optional[int] = None

    def __post_init__(self):
        if not 2 <= self.n_lo <= self.n_hi <= 16:
            raise ValueError(f"order range {self.n_lo}..{self.n_hi} outside [2, 16]")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "exhaustive" and self.n_hi > 8:
            raise ValueError("exhaustive mode is limited to orders up to 8")
        if self.mode == "random" and self.samples < 1:
            raise ValueError("random mode needs a positive sample count")
        if self.max_power is not None and self.max_power < 1:
            raise ValueError(f"max power {self.max_power} is not positive")
        if self.checks is not None:
            object.__setattr__(self, "checks", frozenset(self.checks))
            unknown = self.checks - set(ALL_CHECK_NAMES)
            if unknown:
                raise ValueError(f"unknown checks: {sorted(unknown)}")

    def enabled(self, name: str) -> bool:
        return self.checks is None or name in self.checks


def _offsets(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _mask(offsets: tuple[int, ...]) -> int:
    m = 0
    for v in offsets:
        m |= 1 << (v - 1)
    return m


def enumerate_specs(n: int) -> Iterator[ToeplitzSpec]:
    """All (2^(n-1) - 1)^2 descriptors with nonempty S and T, S outer."""
    full = 1 << (n - 1)
    for smask in range(1, full):
        s = _offsets(smask)
        for tmask in range(1, full):
            yield ToeplitzSpec(n, s, _offsets(tmask))


class _Sweep:
    """Shared caches for one sweep run."""

    def __init__(self, config: SweepConfig):
        self.config = config
        self._cycles: dict[ToeplitzSpec, tuple[int, int]] = {}
        self._exact: dict[ToeplitzSpec, tuple[bool, Optional[int]]] = {}

    def specs(self, n: int) -> Iterator[ToeplitzSpec]:
        if self.config.mode == "exhaustive":
            yield from enumerate_specs(n)
            return
        rng = random.Random(f"{self.config.seed}:{n}")
        full = 1 << (n - 1)
        for _ in range(self.config.samples):
            yield ToeplitzSpec(
                n, _offsets(rng.randrange(1, full)), _offsets(rng.randrange(1, full))
            )

    def analyze_spec(self, spec: ToeplitzSpec) -> tuple[PowerSequence, PeriodReport]:
        """The engine's report, with the exact decision cached for the checks.

        The checks read the exact decision, never the certificate, so
        that certificate-soundness compares two independent verdicts:
        after a rule hit the decision runs here; after a miss the
        report's certificate already is that decision.
        """
        powers = PowerSequence(from_toeplitz(spec))
        report = analyze(spec, self.config.max_power, powers=powers)
        cert = report.certificate
        self._cycles[spec] = (report.matrix_index, report.matrix_period)
        if cert.rule is Rule.EXACT_DECISION:
            self._exact[spec] = (report.walk_ensured, cert.witness)
        else:
            self._exact[spec] = decide_walk_ensured_exact(
                spec, self.config.max_power, powers=powers
            )
        return powers, report

    def cycle_of(self, spec: ToeplitzSpec) -> tuple[int, int]:
        if spec not in self._cycles:
            self._cycles[spec] = PowerSequence(from_toeplitz(spec)).cycle(
                self.config.max_power
            )
        return self._cycles[spec]

    def exact_of(self, spec: ToeplitzSpec) -> tuple[bool, Optional[int]]:
        if spec not in self._exact:
            self._exact[spec] = decide_walk_ensured_exact(spec, self.config.max_power)
        return self._exact[spec]


def _fmt(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


# ---------------------------------------------------------------- checks


def _check_period_formula(sw, spec, powers, an) -> list[Finding]:
    """Walk-ensured descriptors have matrix period d+/d."""
    out = []
    formula = an.profile.d_plus // an.profile.d
    if sw.exact_of(spec)[0]:
        if an.matrix_period != formula:
            out.append(
                Finding(
                    "period-formula",
                    str(spec),
                    f"period {formula} = d+/d",
                    f"period {an.matrix_period}",
                    VIOLATION,
                )
            )
    elif an.matrix_period != formula:
        out.append(
            Finding(
                "period-formula",
                str(spec),
                f"no claim (not walk-ensured); d+/d = {formula}",
                f"period {an.matrix_period}",
                OBSERVATION,
            )
        )
    return out


def _check_competition_limit(sw, spec, powers, an) -> list[Finding]:
    """Walk-ensured with d+ <= n: competition period 1 and the congruence limit."""
    out = []
    if not sw.exact_of(spec)[0]:
        return out
    if an.profile.d_plus <= spec.n:
        pred = predicted_limit(spec)
        if an.competition_period != 1:
            out.append(
                Finding(
                    "competition-limit",
                    str(spec),
                    "competition period 1",
                    f"competition period {an.competition_period}",
                    VIOLATION,
                )
            )
        elif not limits_match(an.limit_matrix, pred):
            out.append(
                Finding(
                    "competition-limit",
                    str(spec),
                    "limit equals the congruence-class matrix",
                    "limit differs",
                    VIOLATION,
                )
            )
    else:
        out.append(
            Finding(
                "competition-limit",
                str(spec),
                "no claim (d+ exceeds the order)",
                f"competition period {an.competition_period}",
                OBSERVATION,
            )
        )
    return out


def _check_competition_divisibility(sw, spec, powers, an) -> list[Finding]:
    """Record specs whose competition period does not divide the matrix period."""
    if an.matrix_period % an.competition_period == 0:
        return []
    return [
        Finding(
            "competition-divisibility",
            str(spec),
            f"no claim; matrix period {an.matrix_period}",
            f"competition period {an.competition_period} does not divide it",
            OBSERVATION,
        )
    ]


def _check_certificate_soundness(sw, spec, powers, an) -> list[Finding]:
    """Sufficient rules never certify a descriptor the exact decision rejects."""
    if an.certificate.verdict is not Verdict.PROVEN_WALK_ENSURED or sw.exact_of(spec)[0]:
        return []
    rule = an.certificate.rule.value
    return [
        Finding(
            "certificate-soundness",
            str(spec),
            f"walk-ensured (certified by {rule})",
            "exact decision: not walk-ensured",
            VIOLATION,
        )
    ]


def _check_containment_chain(sw, spec, powers, an) -> list[Finding]:
    """r_set <= q_set <= p_set at every length up to CHAIN_I_MAX."""
    for i, q in q_sequence(spec, CHAIN_I_MAX):
        p = p_set(spec, i)
        r = r_set(powers.power(i))
        if not (r <= q <= p):
            return [
                Finding(
                    "containment-chain",
                    str(spec),
                    f"i={i}: r <= q <= p",
                    f"r={_fmt(r)} q={_fmt(q)} p={_fmt(p)}",
                    VIOLATION,
                )
            ]
    return []


def _check_p_set_laws(sw, spec, powers, an) -> list[Finding]:
    """Periodicity, disjoint window and one-step recurrence of the p-sets."""
    m = an.profile.d_plus // an.profile.d
    ps = {i: p_set(spec, i) for i in range(1, CHAIN_I_MAX + m + 1)}
    s1, t1 = an.profile.s1, an.profile.t1
    win = set(window(spec.n))
    for i in range(1, CHAIN_I_MAX + 1):
        if ps[i] != ps[i + m]:
            return [
                Finding(
                    "p-set-laws",
                    str(spec),
                    f"i={i}: p-set repeats with period d+/d = {m}",
                    f"{_fmt(ps[i])} vs {_fmt(ps[i + m])}",
                    VIOLATION,
                )
            ]
        group = [ps[i + k] for k in range(m)]
        if sum(len(g) for g in group) != len(set().union(*group)):
            return [
                Finding(
                    "p-set-laws",
                    str(spec),
                    f"i={i}: {m} consecutive p-sets pairwise disjoint",
                    "overlap",
                    VIOLATION,
                )
            ]
        if i >= 2:
            rec = frozenset(
                l for l in win if (l - s1 in ps[i - 1]) or (l + t1 in ps[i - 1])
            )
            if rec != ps[i]:
                return [
                    Finding(
                        "p-set-laws",
                        str(spec),
                        f"i={i}: recurrence from p-set at i-1",
                        f"{_fmt(rec)} vs {_fmt(ps[i])}",
                        VIOLATION,
                    )
                ]
    return []


def _check_walk_displacements(sw, spec, powers, an) -> list[Finding]:
    """Every walk displacement is representable as an i-term signed sum."""
    for i, q in q_sequence(spec, DISPLACEMENT_I_MAX):
        realized = {v - u for u, v in powers.power(i).entries()}
        if not realized <= q:
            return [
                Finding(
                    "walk-displacements",
                    str(spec),
                    f"i={i}: walk displacements within q-set {_fmt(q)}",
                    _fmt(realized),
                    VIOLATION,
                )
            ]
    return []


def _check_sum_congruence(sw, spec, powers, an) -> list[Finding]:
    """Signed combinations satisfy sum a*s - sum b*t = (sum a + sum b) s1 mod d+."""
    rng = random.Random(f"{sw.config.seed}:congruence:{spec}")
    prof = an.profile
    for _ in range(CONGRUENCE_SAMPLES):
        avec = [rng.randint(-10, 10) for _ in spec.S]
        bvec = [rng.randint(-10, 10) for _ in spec.T]
        lhs = sum(a * s for a, s in zip(avec, spec.S)) - sum(
            b * t for b, t in zip(bvec, spec.T)
        )
        rhs = (sum(avec) + sum(bvec)) * prof.s1
        if (lhs - rhs) % prof.d_plus != 0:
            return [
                Finding(
                    "sum-congruence",
                    str(spec),
                    f"combination congruent mod d+ = {prof.d_plus}",
                    f"a={avec} b={bvec} difference {lhs - rhs}",
                    VIOLATION,
                )
            ]
    return []


def _check_same_residue_walks(sw, spec, powers, an) -> list[Finding]:
    """Walk-ensured: every pair of vertices congruent mod d is joined by a walk."""
    if not sw.exact_of(spec)[0]:
        return []
    d = an.profile.d
    bound = an.matrix_index + lcm(an.matrix_period, an.profile.d_plus // d)
    for u in range(1, spec.n + 1):
        for v in range(1, spec.n + 1):
            if (u - v) % d != 0:
                continue
            if not any(walk_exists(powers, u, v, l) for l in range(1, bound + 1)):
                return [
                    Finding(
                        "same-residue-walks",
                        str(spec),
                        f"some ({u},{v})-walk of length <= {bound}",
                        "none",
                        VIOLATION,
                    )
                ]
    return []


def _supersets(mask: int, full: int) -> Iterator[int]:
    extra = full & ~mask
    sub = extra
    while True:
        yield mask | sub
        if sub == 0:
            return
        sub = (sub - 1) & extra


def _check_superset_period(sw, spec, powers, an) -> list[Finding]:
    """Offset supersets preserving gcd(S + T) keep the period d+/d."""
    if spec.n > SUPERSET_N_MAX or not sw.exact_of(spec)[0]:
        return []
    full = (1 << (spec.n - 1)) - 1
    formula = an.profile.d_plus // an.profile.d
    for smask in _supersets(_mask(spec.S), full):
        for tmask in _supersets(_mask(spec.T), full):
            star = ToeplitzSpec(spec.n, _offsets(smask), _offsets(tmask))
            if gcd_profile(star).d_plus != an.profile.d_plus:
                continue
            _, star_period = sw.cycle_of(star)
            if star_period != formula:
                return [
                    Finding(
                        "superset-period",
                        str(spec),
                        f"superset {star} keeps period {formula}",
                        f"period {star_period}",
                        VIOLATION,
                    )
                ]
    return []


def _check_tail_extension(sw, spec, powers, an) -> list[Finding]:
    """Adjoining any offset in (n - d, n) to S leaves the period unchanged."""
    if not sw.exact_of(spec)[0] or an.profile.d < 2:
        return []
    out = []
    for s_star in range(spec.n - an.profile.d + 1, spec.n):
        if not tail_extension_applicable(spec, s_star):
            out.append(
                Finding(
                    "tail-extension",
                    str(spec),
                    f"s*={s_star} inside the tail window",
                    "predicate disagrees",
                    VIOLATION,
                )
            )
            continue
        ext = ToeplitzSpec(spec.n, spec.S + (s_star,), spec.T)
        try:
            transferred = sink_source_same_period(
                spec, from_toeplitz(ext), sw.config.max_power
            )
        except TheoremViolationError as exc:
            out.append(
                Finding("tail-extension", str(spec), "period preserved", str(exc), VIOLATION)
            )
            continue
        if transferred is None:
            out.append(
                Finding(
                    "tail-extension",
                    str(spec),
                    f"s*={s_star}: contraction of added arcs has a source or sink",
                    "neither",
                    VIOLATION,
                )
            )
    return out


def _check_extension_closure(sw, spec, powers, an) -> list[Finding]:
    """Walk-ensured survives adjoining any offset bounded by n - d, either side."""
    if spec.n > EXTENSION_N_MAX or not sw.exact_of(spec)[0]:
        return []
    for s_star in range(1, spec.n - an.profile.d + 1):
        for ext in (
            ToeplitzSpec(spec.n, spec.S + (s_star,), spec.T),
            ToeplitzSpec(spec.n, spec.S, spec.T + (s_star,)),
        ):
            ok, _ = sw.exact_of(ext)
            if not ok:
                return [
                    Finding(
                        "extension-closure",
                        str(spec),
                        f"extension {ext} stays walk-ensured (s*={s_star})",
                        "exact decision: not walk-ensured",
                        VIOLATION,
                    )
                ]
    return []


def _check_gcd_update(sw, spec, powers, an) -> list[Finding]:
    """Incremental gcd update agrees with recomputation, whatever the reference."""
    prof = an.profile
    for s_star in range(1, spec.n):
        s_ext = ToeplitzSpec(spec.n, spec.S + (s_star,), spec.T)
        expected_s = (
            gcd(*s_ext.S, *s_ext.T),
            gcd(*(s + t for s in s_ext.S for t in s_ext.T)),
        )
        for ref in spec.S:
            got = gcd_after_extension(prof.d, prof.d_plus, s_star, ref)
            if got != expected_s:
                return [
                    Finding(
                        "gcd-update",
                        str(spec),
                        f"s*={s_star} ref={ref}: {expected_s}",
                        f"{got}",
                        VIOLATION,
                    )
                ]
        t_ext = ToeplitzSpec(spec.n, spec.S, spec.T + (s_star,))
        expected_t = (
            gcd(*t_ext.S, *t_ext.T),
            gcd(*(s + t for s in t_ext.S for t in t_ext.T)),
        )
        for ref in spec.T:
            got = gcd_after_extension(prof.d, prof.d_plus, s_star, ref)
            if got != expected_t:
                return [
                    Finding(
                        "gcd-update",
                        str(spec),
                        f"t*={s_star} ref={ref}: {expected_t}",
                        f"{got}",
                        VIOLATION,
                    )
                ]
    return []


PER_SPEC_CHECKS: list[tuple[str, Callable]] = [
    ("period-formula", _check_period_formula),
    ("competition-limit", _check_competition_limit),
    ("competition-divisibility", _check_competition_divisibility),
    ("certificate-soundness", _check_certificate_soundness),
    ("containment-chain", _check_containment_chain),
    ("p-set-laws", _check_p_set_laws),
    ("walk-displacements", _check_walk_displacements),
    ("sum-congruence", _check_sum_congruence),
    ("same-residue-walks", _check_same_residue_walks),
    ("superset-period", _check_superset_period),
    ("tail-extension", _check_tail_extension),
    ("extension-closure", _check_extension_closure),
    ("gcd-update", _check_gcd_update),
]


# ------------------------------------------------------------ per-order


def check_contraction_identity(n: int) -> list[Finding]:
    """Contraction of a one-offset digraph mod d is itself Toeplitz.

    For d not dividing s and s <= n - d, contracting the digraph of
    T_n<s;> mod d gives exactly the digraph of T_d<r; d-r>, r = s mod d.
    """
    out = []
    for d in range(2, n):
        for s in range(1, n - d + 1):
            r = s % d
            if r == 0:
                continue
            g = Digraph(from_toeplitz(ToeplitzSpec(n, (s,), ())))
            got = contract(g, d)
            want = Digraph(from_toeplitz(ToeplitzSpec(d, (r,), (d - r,))))
            if got != want:
                out.append(
                    Finding(
                        "contraction-identity",
                        f"n={n};S={s};T=",
                        f"contraction mod {d} equals the order-{d} two-offset digraph",
                        "differs",
                        VIOLATION,
                    )
                )
    return out


def check_contraction_cycles(n: int) -> list[Finding]:
    """The contraction above always decomposes into vertex-disjoint cycles."""
    out = []
    for d in range(2, n):
        for s in range(1, n - d + 1):
            if s % d == 0:
                continue
            g = Digraph(from_toeplitz(ToeplitzSpec(n, (s,), ())))
            if cycle_decomposition(contract(g, d)) is None:
                out.append(
                    Finding(
                        "contraction-cycles",
                        f"n={n};S={s};T=",
                        f"contraction mod {d} is a disjoint union of cycles",
                        "some vertex degree differs from 1",
                        VIOLATION,
                    )
                )
    return out


def check_cycle_structure(n: int) -> list[Finding]:
    """D(T_n<s; n-s>) splits into the residue classes mod gcd(n, s) as cycles."""
    out = []
    for s in range(1, n):
        d = gcd(n, s)
        g = Digraph(from_toeplitz(ToeplitzSpec(n, (s,), (n - s,))))
        dec = cycle_decomposition(g)
        want = {frozenset(range(i, n + 1, d)) for i in range(1, d + 1)}
        got = None if dec is None else {frozenset(c) for c in dec}
        if got != want:
            out.append(
                Finding(
                    "cycle-structure",
                    f"n={n};S={s};T={n - s}",
                    f"cycles are the residue classes mod {d}",
                    "no decomposition" if dec is None else "different classes",
                    VIOLATION,
                )
            )
    return out


PER_ORDER_CHECKS: list[tuple[str, Callable[[int], list[Finding]]]] = [
    ("contraction-identity", check_contraction_identity),
    ("contraction-cycles", check_contraction_cycles),
    ("cycle-structure", check_cycle_structure),
]


def check_worked_example() -> list[Finding]:
    """Reproduce the pinned length-2 walk-set example exactly."""
    spec = WORKED_EXAMPLE
    powers = PowerSequence(from_toeplitz(spec))
    hits = [
        ("p-set", p_set(spec, 2), frozenset(range(-5, 6))),
        ("q-set", q_set(spec, 2), frozenset({-3, -1, 4})),
        ("r-set", r_set(powers.power(2)), frozenset({4})),
    ]
    out = []
    for label, got, want in hits:
        if got != want:
            out.append(
                Finding(
                    "worked-example",
                    str(spec),
                    f"{label} at i=2 is {_fmt(want)}",
                    _fmt(got),
                    VIOLATION,
                )
            )
    if not powers.power(2).get(1, 5):
        out.append(
            Finding(
                "worked-example",
                str(spec),
                "square has entry (1,5)",
                "missing",
                VIOLATION,
            )
        )
    return out


ALL_CHECK_NAMES: tuple[str, ...] = tuple(
    [name for name, _ in PER_SPEC_CHECKS]
    + [name for name, _ in PER_ORDER_CHECKS]
    + ["worked-example"]
)


def run_sweep(config: SweepConfig) -> list[Finding]:
    """Run the enabled checks over the configured descriptor space."""
    sweep = _Sweep(config)
    findings: list[Finding] = []
    if config.enabled("worked-example"):
        findings.extend(check_worked_example())
    per_order = [(name, fn) for name, fn in PER_ORDER_CHECKS if config.enabled(name)]
    per_spec = [(name, fn) for name, fn in PER_SPEC_CHECKS if config.enabled(name)]
    for n in range(config.n_lo, config.n_hi + 1):
        for _, fn in per_order:
            findings.extend(fn(n))
        if not per_spec:
            continue
        for spec in sweep.specs(n):
            try:
                powers, an = sweep.analyze_spec(spec)
            except CapExceededError as exc:
                findings.append(
                    Finding(
                        "power-cap",
                        str(spec),
                        "power cycle within the step cap",
                        str(exc),
                        VIOLATION,
                    )
                )
                continue
            for _, fn in per_spec:
                findings.extend(fn(sweep, spec, powers, an))
    return findings


def render_report(findings: list[Finding], config: SweepConfig) -> str:
    """Stable text report: one tab-separated line per finding plus a summary."""
    lines = [
        f"# sweep n={config.n_lo}..{config.n_hi} mode={config.mode}"
        f" samples={config.samples} seed={config.seed}"
    ]
    violations = 0
    observations = 0
    for f in findings:
        lines.append(f.line())
        if f.severity == VIOLATION:
            violations += 1
        else:
            observations += 1
    lines.append(
        f"# findings={len(findings)} violations={violations} observations={observations}"
    )
    return "\n".join(lines) + "\n"
