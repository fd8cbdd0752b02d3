"""Brute-force cross-validation sweeps.

Every claim the library exploits as a formula is re-checked here from
first principles on small instances: ground truth is always direct
power iteration and explicit set computation on window masks, never
the formula under test.  A sweep walks descriptors (exhaustively below
order 9, seeded random sampling above), runs a registry of named checks
against each, and reports findings.

Severities: a "violation" contradicts a claimed identity; an
"observation" records behaviour in territory where nothing is claimed
(kept because such instances are exactly the counterexample candidates
worth collecting).  Reports are deterministic for a given
configuration, including the random mode via its recorded seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, reduce
from itertools import product
from math import gcd, lcm
from operator import mul, or_
from typing import Callable, Iterator, NamedTuple, Optional

from .boolmat import BoolMatrix, PowerSequence, from_toeplitz
from .digraph import contract, cycle_decomposition
from .engine import (
    PeriodReport,
    TheoremViolationError,
    analyze,
    decide_walk_ensured_exact,
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
from .walksets import _mask_to_set, _p_mask, _q_masks, _r_mask, _realized_mask, _shifted_comb
from .walksets import p_set, q_set, r_set

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
# The coefficients sum-congruence draws from; rng.choices reads only the
# length and items of its population, so this tuple draws what
# range(-10, 11) draws, and is indexed faster.
_COEFFICIENTS = tuple(range(-10, 11))
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
    to small orders, with samples 0; random mode draws `samples`
    descriptor pairs per order from the recorded seed.  checks=None
    means the full registry; an empty set is refused.
    """

    n_lo: int
    n_hi: int
    mode: str = "exhaustive"
    samples: int = 0
    seed: int = 0
    checks: Optional[frozenset[str]] = None

    def __post_init__(self):
        if not 2 <= self.n_lo <= self.n_hi <= 16:
            raise ValueError(f"order range {self.n_lo}..{self.n_hi} outside [2, 16]")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "exhaustive" and self.n_hi > 8:
            raise ValueError("exhaustive mode is limited to orders up to 8")
        if self.mode == "exhaustive" and self.samples != 0:
            raise ValueError("exhaustive mode takes no sample count")
        if self.mode == "random" and self.samples < 1:
            raise ValueError("random mode needs a positive sample count")
        if self.checks is not None:
            object.__setattr__(self, "checks", frozenset(self.checks))
            if not self.checks:
                raise ValueError("no check selected")
            unknown = self.checks - set(ALL_CHECK_NAMES)
            if unknown:
                raise ValueError(f"unknown checks: {sorted(unknown)}")

    def enabled(self, name: str) -> bool:
        return self.checks is None or name in self.checks


def _offsets(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1)


def _mask(offsets: tuple[int, ...]) -> int:
    return sum(1 << (v - 1) for v in offsets)


def enumerate_specs(n: int) -> Iterator[ToeplitzSpec]:
    """All (2^(n-1) - 1)^2 descriptors with nonempty S and T, S outer."""
    masks = product(range(1, 1 << (n - 1)), repeat=2)
    return (ToeplitzSpec(n, _offsets(s), _offsets(t)) for s, t in masks)


class _Truth(NamedTuple):
    """A descriptor's ground truth, read from one scan of A, A^2, ...: its index
    and period, and the exact decision's verdict and threshold on those powers."""

    index: int
    period: int
    walk_ensured: bool
    threshold: Optional[int]


class _Sweep:
    """Shared caches for one sweep run, freed with it (with each draw in
    random mode).

    Every descriptor the sweep visits comes from one table keyed by
    (n, S-mask, T-mask), so a descriptor met again as a superset or an
    extension of another is the same instance, with the same cached
    gcd profile and the same ground-truth record, read from one scan.
    """

    def __init__(self, config: SweepConfig):
        self.config = config
        self._specs: dict[tuple[int, int, int], ToeplitzSpec] = {}
        self._truths: dict[ToeplitzSpec, _Truth] = {}

    def spec(self, n: int, smask: int, tmask: int) -> ToeplitzSpec:
        spec = self._specs.get((n, smask, tmask))
        if spec is None:
            spec = self._specs[n, smask, tmask] = ToeplitzSpec(n, _offsets(smask), _offsets(tmask))
        return spec

    def specs(self, n: int) -> Iterator[ToeplitzSpec]:
        """The descriptors of order n, or its seeded draws in random mode,
        where few descriptors meet again, so both tables are emptied before
        each draw."""
        full = 1 << (n - 1)
        if self.config.mode == "exhaustive":
            yield from (self.spec(n, s, t) for s, t in product(range(1, full), repeat=2))
            return
        rng = random.Random(f"{self.config.seed}:{n}")
        for _ in range(self.config.samples):
            self._specs.clear()
            self._truths.clear()
            yield self.spec(n, rng.randrange(1, full), rng.randrange(1, full))

    def truth(self, spec: ToeplitzSpec, powers: Optional[PowerSequence] = None) -> _Truth:
        """spec's record, read the first time from powers: the scan analyze_spec
        makes, or a new one for a superset or extension a check meets first."""
        truth = self._truths.get(spec)
        if truth is None:
            if powers is None:
                powers = PowerSequence(from_toeplitz(spec))
            decided = decide_walk_ensured_exact(spec, powers=powers)
            truth = self._truths[spec] = _Truth(*powers.cycle(), *decided)
        return truth

    def analyze_spec(self, spec: ToeplitzSpec) -> tuple[PowerSequence, PeriodReport]:
        """The engine's report, held to the scan of A, A^2, ... that the checks read.

        A lifted index or period off the record raises TheoremViolationError,
        and so does a verdict or threshold of the engine's exact decision.
        The checks read the record's verdict, never the certificate, so that
        certificate-soundness compares two independent verdicts.
        """
        powers = PowerSequence(from_toeplitz(spec))
        truth = self.truth(spec, powers)
        report = analyze(spec)
        lifted, scanned = (report.matrix_index, report.matrix_period), truth[:2]
        if lifted != scanned:
            raise TheoremViolationError(f"{spec}: lifted {lifted}, scanned {scanned}")
        cert = report.certificate
        decided, scanned = (report.walk_ensured, cert.witness), truth[2:]
        if cert.rule is Rule.EXACT_DECISION and decided != scanned:
            raise TheoremViolationError(f"{spec}: decided {decided}, scanned {scanned}")
        return powers, report


def _fmt(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


# ---------------------------------------------------------------- checks
#
# A check returns (spec, expected, actual, severity) tuples; run_sweep
# turns them into findings under the registry name of the check.

Result = tuple[ToeplitzSpec, str, str, str]


def _check_period_formula(sw, spec, powers, an) -> list[Result]:
    """Walk-ensured descriptors have matrix period d+/d."""
    formula = an.profile.d_plus // an.profile.d
    if an.matrix_period == formula:
        return []
    actual = f"period {an.matrix_period}"
    if sw.truth(spec).walk_ensured:
        return [(spec, f"period {formula} = d+/d", actual, VIOLATION)]
    return [(spec, f"no claim (not walk-ensured); d+/d = {formula}", actual, OBSERVATION)]


def _check_competition_limit(sw, spec, powers, an) -> list[Result]:
    """Walk-ensured with d+ <= n: competition period 1 and the congruence limit."""
    if not sw.truth(spec).walk_ensured:
        return []
    actual = f"competition period {an.competition_period}"
    if an.profile.d_plus > spec.n:
        return [(spec, "no claim (d+ exceeds the order)", actual, OBSERVATION)]
    if an.competition_period != 1:
        return [(spec, "competition period 1", actual, VIOLATION)]
    if an.limit_matrix != predicted_limit(spec):
        want = "limit equals the congruence-class matrix"
        return [(spec, want, "limit differs", VIOLATION)]
    return []


def _check_competition_divisibility(sw, spec, powers, an) -> list[Result]:
    """Record specs whose competition period does not divide the matrix period."""
    if an.matrix_period % an.competition_period == 0:
        return []
    want = f"no claim; matrix period {an.matrix_period}"
    got = f"competition period {an.competition_period} does not divide it"
    return [(spec, want, got, OBSERVATION)]


def _check_certificate_soundness(sw, spec, powers, an) -> list[Result]:
    """Sufficient rules never certify a descriptor the exact decision rejects."""
    if an.certificate.verdict is not Verdict.PROVEN_WALK_ENSURED or sw.truth(spec).walk_ensured:
        return []
    want = f"walk-ensured (certified by {an.certificate.rule.value})"
    return [(spec, want, "exact decision: not walk-ensured", VIOLATION)]


def _check_containment_chain(sw, spec, powers, an) -> list[Result]:
    """r_set <= q_set <= p_set at every length up to CHAIN_I_MAX.  Powers repeat,
    so R is made once per distinct power, keyed by its value (a power sequence
    may hand out a new object, and id(), for one it made before)."""
    r_of = cache(_r_mask)
    for i, q in enumerate(_q_masks(spec, CHAIN_I_MAX), start=1):
        p = _p_mask(spec, i)
        r = r_of(powers.power(i))
        if r & ~q or q & ~p:
            r, q, p = (_fmt(_mask_to_set(x, spec.n)) for x in (r, q, p))
            return [(spec, f"i={i}: r <= q <= p", f"r={r} q={q} p={p}", VIOLATION)]
    return []


def _check_p_set_laws(sw, spec, powers, an) -> list[Result]:
    """Periodicity, disjoint window and one-step recurrence of the p-sets."""
    m = an.profile.d_plus // an.profile.d
    ps = [_p_mask(spec, i) for i in range(CHAIN_I_MAX + m + 1)]  # ps[0] unread
    s1, t1 = an.profile.s1, an.profile.t1
    full = (1 << (2 * spec.n - 1)) - 1
    fmt = lambda mask: _fmt(_mask_to_set(mask, spec.n))
    for i in range(1, CHAIN_I_MAX + 1):
        if ps[i] != ps[i + m]:
            got = f"{fmt(ps[i])} vs {fmt(ps[i + m])}"
            return [(spec, f"i={i}: p-set repeats with period d+/d = {m}", got, VIOLATION)]
        group = ps[i : i + m]
        if m > 1 and sum(map(int.bit_count, group)) != reduce(or_, group).bit_count():
            want = f"i={i}: {m} consecutive p-sets pairwise disjoint"
            return [(spec, want, "overlap", VIOLATION)]
        if i >= 2:
            rec = ((ps[i - 1] << s1) | (ps[i - 1] >> t1)) & full
            if rec != ps[i]:
                got = f"{fmt(rec)} vs {fmt(ps[i])}"
                return [(spec, f"i={i}: recurrence from p-set at i-1", got, VIOLATION)]
    return []


def _check_walk_displacements(sw, spec, powers, an) -> list[Result]:
    """Every walk displacement is representable as an i-term signed sum; the
    realized masks are kept per distinct power as containment-chain keeps R."""
    realized_of = cache(_realized_mask)
    for i, q in enumerate(_q_masks(spec, DISPLACEMENT_I_MAX), start=1):
        realized = realized_of(powers.power(i))
        if realized & ~q:
            want = f"i={i}: walk displacements within q-set {_fmt(_mask_to_set(q, spec.n))}"
            return [(spec, want, _fmt(_mask_to_set(realized, spec.n)), VIOLATION)]
    return []


def _check_sum_congruence(sw, spec, powers, an) -> list[Result]:
    """Signed combinations satisfy sum a*s - sum b*t = (sum a + sum b) s1 mod d+.

    The difference of the two sides is one dot product of the draw (a, b)
    with the coefficients s - s1 and -(t + s1)."""
    rng = random.Random(f"{sw.config.seed}:congruence:{spec}")
    prof = an.profile
    k, ks = len(spec.S) + len(spec.T), len(spec.S)
    coefs = [s - prof.s1 for s in spec.S] + [-(t + prof.s1) for t in spec.T]
    draws = rng.choices(_COEFFICIENTS, k=CONGRUENCE_SAMPLES * k)
    for j in range(0, len(draws), k):
        difference = sum(map(mul, coefs, draws[j : j + k]))
        if difference % prof.d_plus != 0:
            avec, bvec = draws[j : j + ks], draws[j + ks : j + k]
            want = f"combination congruent mod d+ = {prof.d_plus}"
            return [(spec, want, f"a={avec} b={bvec} difference {difference}", VIOLATION)]
    return []


def _check_same_residue_walks(sw, spec, powers, an) -> list[Result]:
    """Walk-ensured: every pair of vertices congruent mod d is joined by a walk.

    Row u of the OR of the distinct powers up to the bound must hold the
    columns v = u mod d, a comb of period d; the first missing (u, v) in
    row-major order is reported."""
    if not sw.truth(spec).walk_ensured:
        return []
    d, n = an.profile.d, spec.n
    bound = an.matrix_index + lcm(an.matrix_period, an.profile.d_plus // d)
    reach = [0] * n
    for x in set(map(powers.power, range(1, bound + 1))):
        reach = list(map(or_, reach, x.rows))
    for u, row in enumerate(reach, start=1):
        missing = _shifted_comb(d, n, (u - 1) % d) & ~row
        if missing:
            v = (missing & -missing).bit_length()
            return [(spec, f"some ({u},{v})-walk of length <= {bound}", "none", VIOLATION)]
    return []


def _supersets(mask: int, full: int) -> Iterator[int]:
    extra = full & ~mask
    sub = extra
    while True:
        yield mask | sub
        if sub == 0:
            return
        sub = (sub - 1) & extra


def _check_superset_period(sw, spec, powers, an) -> list[Result]:
    """Offset supersets preserving gcd(S + T) keep the period d+/d."""
    if spec.n > SUPERSET_N_MAX or not sw.truth(spec).walk_ensured:
        return []
    n, d_plus = spec.n, an.profile.d_plus
    full = (1 << (n - 1)) - 1
    formula = d_plus // an.profile.d
    tmasks = list(_supersets(_mask(spec.T), full))
    for smask in _supersets(_mask(spec.S), full):
        for tmask in tmasks:
            star = sw.spec(n, smask, tmask)
            if gcd_profile(star).d_plus != d_plus:
                continue
            star_period = sw.truth(star).period
            if star_period != formula:
                want = f"superset {star} keeps period {formula}"
                return [(spec, want, f"period {star_period}", VIOLATION)]
    return []


def _check_tail_extension(sw, spec, powers, an) -> list[Result]:
    """Adjoining any offset in (n - d, n) to S leaves the period unchanged."""
    if not sw.truth(spec).walk_ensured or an.profile.d < 2:
        return []
    out = []
    for s_star in range(spec.n - an.profile.d + 1, spec.n):
        if not tail_extension_applicable(spec, s_star):
            want = f"s*={s_star} inside the tail window"
            out.append((spec, want, "predicate disagrees", VIOLATION))
            continue
        ext = sw.spec(spec.n, _mask(spec.S) | 1 << (s_star - 1), _mask(spec.T))
        try:
            transferred = sink_source_same_period(spec, from_toeplitz(ext))
        except TheoremViolationError as exc:
            out.append((spec, "period preserved", str(exc), VIOLATION))
            continue
        if transferred is None:
            want = f"s*={s_star}: contraction of added arcs has a source or sink"
            out.append((spec, want, "neither", VIOLATION))
    return out


def _check_extension_closure(sw, spec, powers, an) -> list[Result]:
    """Walk-ensured survives adjoining any offset bounded by n - d, either side."""
    if spec.n > EXTENSION_N_MAX or not sw.truth(spec).walk_ensured:
        return []
    smask, tmask = _mask(spec.S), _mask(spec.T)
    for s_star in range(1, spec.n - an.profile.d + 1):
        bit = 1 << (s_star - 1)
        for ext in (sw.spec(spec.n, smask | bit, tmask), sw.spec(spec.n, smask, tmask | bit)):
            if not sw.truth(ext).walk_ensured:
                want = f"extension {ext} stays walk-ensured (s*={s_star})"
                return [(spec, want, "exact decision: not walk-ensured", VIOLATION)]
    return []


def _check_gcd_update(sw, spec, powers, an) -> list[Result]:
    """Incremental gcd update agrees with the extension's gcd profile, whatever the reference."""
    prof = an.profile
    smask, tmask = _mask(spec.S), _mask(spec.T)
    for s_star in range(1, spec.n):
        bit = 1 << (s_star - 1)
        for label, ext, refs in (
            ("s*", sw.spec(spec.n, smask | bit, tmask), spec.S),
            ("t*", sw.spec(spec.n, smask, tmask | bit), spec.T),
        ):
            want = (gcd_profile(ext).d, gcd_profile(ext).d_plus)
            for ref in refs:
                got = gcd_after_extension(prof.d, prof.d_plus, s_star, ref)
                if got != want:
                    return [(spec, f"{label}={s_star} ref={ref}: {want}", f"{got}", VIOLATION)]
    return []


PER_SPEC_CHECKS: list[tuple[str, Callable[..., list[Result]]]] = [
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


def _contractions(n: int) -> Iterator[tuple[int, int, BoolMatrix]]:
    """(d, s, D(T_n<s;>) contracted mod d) for 2 <= d < n, s <= n - d, d not dividing s."""
    for d in range(2, n):
        for s in range(1, n - d + 1):
            if s % d:
                yield d, s, contract(from_toeplitz(ToeplitzSpec(n, (s,), ())), d)


def check_contraction_identity(n: int) -> list[Result]:
    """Contraction of a one-offset digraph mod d is itself Toeplitz.

    For d not dividing s and s <= n - d, contracting the digraph of
    T_n<s;> mod d gives exactly the digraph of T_d<r; d-r>, r = s mod d.
    """
    return [
        (
            ToeplitzSpec(n, (s,), ()),
            f"contraction mod {d} equals the order-{d} two-offset digraph",
            "differs",
            VIOLATION,
        )
        for d, s, got in _contractions(n)
        if got != from_toeplitz(ToeplitzSpec(d, (s % d,), (d - s % d,)))
    ]


def check_contraction_cycles(n: int) -> list[Result]:
    """The contraction above always decomposes into vertex-disjoint cycles."""
    return [
        (
            ToeplitzSpec(n, (s,), ()),
            f"contraction mod {d} is a disjoint union of cycles",
            "some vertex degree differs from 1",
            VIOLATION,
        )
        for d, s, got in _contractions(n)
        if cycle_decomposition(got) is None
    ]


def check_cycle_structure(n: int) -> list[Result]:
    """D(T_n<s; n-s>) splits into the residue classes mod gcd(n, s) as cycles."""
    out = []
    for s in range(1, n):
        d = gcd(n, s)
        spec = ToeplitzSpec(n, (s,), (n - s,))
        dec = cycle_decomposition(from_toeplitz(spec))
        want = {frozenset(range(i, n + 1, d)) for i in range(1, d + 1)}
        got = None if dec is None else {frozenset(c) for c in dec}
        if got != want:
            reason = "no decomposition" if dec is None else "different classes"
            out.append((spec, f"cycles are the residue classes mod {d}", reason, VIOLATION))
    return out


PER_ORDER_CHECKS: list[tuple[str, Callable[[int], list[Result]]]] = [
    ("contraction-identity", check_contraction_identity),
    ("contraction-cycles", check_contraction_cycles),
    ("cycle-structure", check_cycle_structure),
]


WORKED_EXAMPLE_CHECK = "worked-example"


def check_worked_example() -> list[Result]:
    """Reproduce the pinned length-2 walk-set example exactly."""
    spec = WORKED_EXAMPLE
    powers = PowerSequence(from_toeplitz(spec))
    hits = [
        ("p-set", p_set(spec, 2), frozenset(range(-5, 6))),
        ("q-set", q_set(spec, 2), frozenset({-3, -1, 4})),
        ("r-set", r_set(powers.power(2)), frozenset({4})),
    ]
    out = [
        (spec, f"{label} at i=2 is {_fmt(want)}", _fmt(got), VIOLATION)
        for label, got, want in hits
        if got != want
    ]
    if not powers.power(2).get(1, 5):
        out.append((spec, "square has entry (1,5)", "missing", VIOLATION))
    return out


ALL_CHECK_NAMES: tuple[str, ...] = tuple(
    [name for name, _ in PER_SPEC_CHECKS]
    + [name for name, _ in PER_ORDER_CHECKS]
    + [WORKED_EXAMPLE_CHECK]
)


def run_sweep(config: SweepConfig) -> list[Finding]:
    """Run the enabled checks over the configured descriptor space.

    Every scan ends, because a finite matrix has finitely many powers,
    so no descriptor is refused; a lifted index or period off the scan
    raises TheoremViolationError.
    """
    sweep = _Sweep(config)
    findings: list[Finding] = []

    def record(name: str, results: list[Result]) -> None:
        findings.extend(Finding(name, str(spec), *rest) for spec, *rest in results)

    if config.enabled(WORKED_EXAMPLE_CHECK):
        record(WORKED_EXAMPLE_CHECK, check_worked_example())
    per_order = [(name, fn) for name, fn in PER_ORDER_CHECKS if config.enabled(name)]
    per_spec = [(name, fn) for name, fn in PER_SPEC_CHECKS if config.enabled(name)]
    for n in range(config.n_lo, config.n_hi + 1):
        for name, fn in per_order:
            record(name, fn(n))
        if not per_spec:
            continue
        for spec in sweep.specs(n):
            powers, an = sweep.analyze_spec(spec)
            for name, fn in per_spec:
                record(name, fn(sweep, spec, powers, an))
    return findings


def render_report(findings: list[Finding], config: SweepConfig) -> str:
    """Stable text report: one tab-separated line per finding plus a summary."""
    lines = [
        f"# sweep n={config.n_lo}..{config.n_hi} mode={config.mode}"
        f" samples={config.samples} seed={config.seed}"
    ]
    lines += [f.line() for f in findings]
    violations = sum(f.severity == VIOLATION for f in findings)
    observations = len(findings) - violations
    lines.append(
        f"# findings={len(findings)} violations={violations} observations={observations}"
    )
    return "\n".join(lines) + "\n"
