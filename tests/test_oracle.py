"""The sweeping cross-validator: enumeration, determinism, reporting."""

from collections import Counter

import pytest

from toeplitz_periods import BoolMatrix, TheoremViolationError, ToeplitzSpec, boolmat, oracle
from toeplitz_periods.oracle import (
    ALL_CHECK_NAMES,
    PER_SPEC_CHECKS,
    Finding,
    SweepConfig,
    enumerate_specs,
    render_report,
    run_sweep,
)
from toeplitz_periods.oracle import (
    OBSERVATION,
    VIOLATION,
    check_contraction_cycles,
    check_contraction_identity,
    check_cycle_structure,
    check_worked_example,
)
from toeplitz_periods.toeplitz import Certificate, Rule, Verdict, gcd_profile

from conftest import record_calls


# --------------------------------------------------------------------------
# descriptor enumeration
# --------------------------------------------------------------------------


def test_enumerate_counts():
    assert len(list(enumerate_specs(2))) == 1
    assert len(list(enumerate_specs(3))) == 9
    assert len(list(enumerate_specs(7))) == 3969  # (2^6 - 1)^2


def test_enumerate_order_and_extremes():
    specs = list(enumerate_specs(3))
    assert specs[0] == ToeplitzSpec(3, (1,), (1,))
    assert specs[-1] == ToeplitzSpec(3, (1, 2), (1, 2))
    assert len(set(specs)) == len(specs)
    # S is the outer loop: the first block shares S = {1}
    assert all(s.S == (1,) for s in specs[:3])


# --------------------------------------------------------------------------
# configuration validation
# --------------------------------------------------------------------------


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(1, 4)
    with pytest.raises(ValueError):
        SweepConfig(4, 2)
    with pytest.raises(ValueError):
        SweepConfig(2, 17)
    with pytest.raises(ValueError):
        SweepConfig(2, 10)  # exhaustive beyond 9
    with pytest.raises(ValueError):
        SweepConfig(2, 9, mode="random")  # no samples
    with pytest.raises(ValueError):
        SweepConfig(2, 4, mode="sideways")
    with pytest.raises(ValueError):
        SweepConfig(2, 4, checks=frozenset({"no-such-check"}))
    with pytest.raises(ValueError, match="^no check selected$"):
        SweepConfig(2, 4, checks=frozenset())
    for samples in (5, -1):  # exhaustive mode reads no sample count
        with pytest.raises(ValueError, match="^exhaustive mode takes no sample count$"):
            SweepConfig(2, 2, samples=samples)
    # _replace and _make build through the constructor, so they raise its errors
    with pytest.raises(ValueError, match=r"^order range 2\.\.99 outside \[2, 16\]$"):
        SweepConfig(2, 3)._replace(n_hi=99)
    with pytest.raises(ValueError, match="^exhaustive mode is limited to orders up to 9$"):
        SweepConfig(2, 3)._replace(n_hi=10)
    with pytest.raises(ValueError, match="^no check selected$"):
        SweepConfig._make((2, 3, "exhaustive", 0, 0, ()))
    with pytest.raises(AttributeError):
        SweepConfig(2, 3).n_hi = 99
    assert SweepConfig(2, 3)._replace(checks=["gcd-update"]).checks == frozenset({"gcd-update"})
    cfg = SweepConfig(2, 12, mode="random", samples=5)
    assert cfg.enabled("period-formula")
    only = SweepConfig(2, 4, checks=frozenset({"period-formula"}))
    assert only.enabled("period-formula") and not only.enabled("p-set-laws")


def test_check_registry_names():
    assert "worked-example" in ALL_CHECK_NAMES
    assert "period-formula" in ALL_CHECK_NAMES
    assert len(set(ALL_CHECK_NAMES)) == len(ALL_CHECK_NAMES)


# --------------------------------------------------------------------------
# single checks
# --------------------------------------------------------------------------


def test_worked_example_check_is_clean():
    assert check_worked_example() == []


def test_worked_example_reports_a_square_without_entry_1_5(monkeypatch):
    # the square loses (1,5), and with it the full diagonal of displacement 4;
    # the sweep runs the one check and no descriptor's
    class Holed(oracle.PowerSequence):
        def power(self, m):
            return super().power(m).and_not(BoolMatrix.from_entries(6, [(1, 5)]))

    monkeypatch.setattr(oracle, "PowerSequence", Holed)
    monkeypatch.setattr(oracle, "analyze", None)
    findings = run_sweep(SweepConfig(2, 3, checks=frozenset({"worked-example"})))
    assert [f.line() for f in findings] == [
        "worked-example\tn=6;S=2,4;T=5\tr-set at i=2 is {4}\t{}\tviolation",
        "worked-example\tn=6;S=2,4;T=5\tsquare has entry (1,5)\tmissing\tviolation",
    ]


@pytest.mark.parametrize(
    "decomposition, reason",
    [(lambda m: None, "no decomposition"), (lambda m: [[1], [2], [3]], "different classes")],
)
def test_cycle_structure_reports_each_descriptor_off_the_residue_classes(
    monkeypatch, decomposition, reason
):
    # a sweep of per-order checks only analyzes no descriptor
    monkeypatch.setattr(oracle, "cycle_decomposition", decomposition)
    monkeypatch.setattr(oracle, "analyze", None)
    findings = run_sweep(SweepConfig(3, 3, checks=frozenset({"cycle-structure"})))
    assert [f.line() for f in findings] == [
        f"cycle-structure\t{spec}\tcycles are the residue classes mod 1\t{reason}\tviolation"
        for spec in ("n=3;S=1;T=2", "n=3;S=2;T=1")
    ]


def test_per_order_checks_are_clean_up_to_12():
    for n in range(2, 13):
        assert check_contraction_identity(n) == []
        assert check_contraction_cycles(n) == []
        assert check_cycle_structure(n) == []


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------


def test_exhaustive_sweep_small_has_no_violations():
    findings = run_sweep(SweepConfig(2, 5))
    assert [f for f in findings if f.severity == VIOLATION] == []
    # the no-claim observations all concern the period formula
    assert {f.check for f in findings if f.severity == OBSERVATION} <= {
        "period-formula",
        "competition-limit",
    }


def test_sweep_is_deterministic():
    cfg = SweepConfig(2, 4)
    a = render_report(run_sweep(cfg), cfg)
    b = render_report(run_sweep(cfg), cfg)
    assert a == b


def test_random_sweep_reproducible():
    cfg = SweepConfig(6, 9, mode="random", samples=8, seed=11)
    a = render_report(run_sweep(cfg), cfg)
    b = render_report(run_sweep(cfg), cfg)
    assert a == b
    assert a.startswith("# sweep n=6..9 mode=random samples=8 seed=11\n")


def test_sweep_respects_check_selection():
    findings = run_sweep(SweepConfig(2, 4, checks=frozenset({"gcd-update"})))
    assert findings == []  # the gcd update rule never misses at these orders


def test_sweep_holds_the_lifted_index_to_the_scan(monkeypatch):
    real = oracle.analyze

    def off_by_one(spec):
        report = real(spec)
        return report._replace(matrix_index=report.matrix_index + 1)

    monkeypatch.setattr(oracle, "analyze", off_by_one)
    with pytest.raises(TheoremViolationError) as err:
        run_sweep(SweepConfig(3, 3))
    # the sweep visits the full offset sets first
    assert str(err.value) == "n=3;S=1,2;T=1,2: lifted (3, 1), scanned (2, 1)"


def test_sweep_holds_the_exact_verdict_to_the_scan(monkeypatch):
    # n=3;S=2;T=2 is the one order-3 descriptor no sufficient rule settles
    real = oracle.analyze

    def flipped(spec):
        report = real(spec)
        if spec != ToeplitzSpec(3, (2,), (2,)):
            return report
        assert report.certificate.rule is Rule.EXACT_DECISION and not report.walk_ensured
        cert = Certificate(Verdict.PROVEN_BY_EXACT_DECISION, Rule.EXACT_DECISION, 1)
        return report._replace(certificate=cert)

    monkeypatch.setattr(oracle, "analyze", flipped)
    with pytest.raises(TheoremViolationError) as err:
        run_sweep(SweepConfig(3, 3))
    assert str(err.value) == "n=3;S=2;T=2: decided (True, 1), scanned (False, None)"


def test_sweep_scans_each_descriptor_once(monkeypatch):
    # supersets and one-offset extensions are visited first, so every record a
    # check reads comes from the scan of that descriptor's own visit; the one
    # more scan is the worked example's
    scans = Counter()

    class CountedScan(oracle.PowerSequence):
        def __init__(self, base):
            scans[base] += 1
            super().__init__(base)

    monkeypatch.setattr(oracle, "PowerSequence", CountedScan)
    run_sweep(SweepConfig(2, 5))
    assert sum(scans.values()) == 1 + sum(len(list(enumerate_specs(n))) for n in range(2, 6))
    assert max(scans.values()) == 1


def test_sweep_visits_supersets_first_and_reports_in_enumeration_order():
    sw = oracle._Sweep(SweepConfig(4, 4))
    visits = list(sw.specs(4))
    assert visits == list(reversed(list(enumerate_specs(4))))
    masks = [(oracle._mask(spec.S), oracle._mask(spec.T)) for spec in visits]
    for k, (s, t) in enumerate(masks):
        assert all(s | s2 != s2 or t | t2 != t2 for s2, t2 in masks[k + 1 :])
    findings = run_sweep(SweepConfig(4, 5, checks=frozenset({"period-formula"})))
    order = [str(spec) for n in (4, 5) for spec in enumerate_specs(n)]
    keys = [order.index(f.spec) for f in findings]
    assert len(keys) > 1 and keys == sorted(keys)


def test_sweep_makes_the_walk_masks_once_per_visit(monkeypatch):
    # containment-chain, p-set-laws and walk-displacements read one list of
    # P masks for i <= CHAIN_I_MAX + d+/d and one of Q masks for i <= CHAIN_I_MAX,
    # each made by one call
    calls = record_calls(monkeypatch, (oracle, "_p_masks"), (oracle, "_q_masks"))
    run_sweep(SweepConfig(2, 5))
    specs = [spec for n in range(2, 6) for spec in enumerate_specs(n)]
    p_args = []
    for spec in specs:
        prof = gcd_profile(spec)
        p_args.append((spec, 0, oracle.CHAIN_I_MAX + prof.d_plus // prof.d + 1))
    assert Counter(calls.args["_p_masks"]) == Counter(p_args)
    assert Counter(calls.args["_q_masks"]) == Counter((spec, oracle.CHAIN_I_MAX) for spec in specs)


def test_sweep_constructs_each_descriptor_once(monkeypatch):
    # supersets and one-offset extensions come from the sweep's table, so a
    # descriptor a check meets is the instance the sweep visits
    visited = sum(len(list(enumerate_specs(n))) for n in range(2, 7))
    made = Counter()

    class CountedSpec(oracle.ToeplitzSpec):
        def __new__(cls, n, S=(), T=()):
            self = super().__new__(cls, n, S, T)
            made[self.n, self.S, self.T] += 1
            return self

    monkeypatch.setattr(oracle, "ToeplitzSpec", CountedSpec)
    run_sweep(SweepConfig(2, 6, checks=frozenset(name for name, _ in PER_SPEC_CHECKS)))
    assert len(made) == visited
    assert max(made.values()) == 1


def test_sweep_orders_never_pack(monkeypatch):
    # below order 32 every step is a product, so the packed layout is never
    # built, and the grams of Toeplitz powers mirror their rows instead of
    # running the transpose
    calls = record_calls(
        monkeypatch,
        (boolmat._ShiftKernel, "pack"),
        (boolmat._ShiftKernel, "unpack"),
        (boolmat.BoolMatrix, "transpose"),
    )
    run_sweep(SweepConfig(2, 5))
    assert not calls


class _Kept(dict):
    """Tables that ignore clear(), as the sweep's were before they were
    emptied per draw in random mode and per order in exhaustive mode."""

    def clear(self):
        pass


def records(sweep) -> int:
    """The records a sweep's tables hold, over every order."""
    return sum(map(len, sweep._tables.values()))


def test_random_sweep_holds_one_draw_at_a_time(monkeypatch):
    # gcd-update meets the 2(n - 1) one-offset extensions of every draw; few
    # meet again in random mode, so the tables keep at most the draw and its
    # extensions, and keeping every table entry instead changes no byte
    sweeps = []

    class Seen(oracle._Sweep):
        def __init__(self, config):
            super().__init__(config)
            sweeps.append(self)

    monkeypatch.setattr(oracle, "_Sweep", Seen)
    cfg = SweepConfig(9, 10, mode="random", samples=20, seed=1, checks=frozenset({"gcd-update"}))
    report = render_report(run_sweep(cfg), cfg)
    assert 0 < records(sweeps[-1]) <= 2 * 10 - 1

    class Kept(oracle._Sweep):
        def __init__(self, config):
            super().__init__(config)
            self._tables = _Kept()
            sweeps.append(self)

    monkeypatch.setattr(oracle, "_Sweep", Kept)
    assert render_report(run_sweep(cfg), cfg) == report
    assert records(sweeps[-1]) > 20 * (2 * 9 - 1)


def test_exhaustive_sweep_holds_one_order_at_a_time(monkeypatch):
    # supersets and extensions keep n, so the tables are emptied when an
    # order starts and end holding order 6's alone, 31 * 31 descriptors;
    # keeping every table entry instead changes no byte
    sweeps = []

    class Seen(oracle._Sweep):
        def __init__(self, config):
            super().__init__(config)
            sweeps.append(self)

    monkeypatch.setattr(oracle, "_Sweep", Seen)
    cfg = SweepConfig(2, 6)
    report = render_report(run_sweep(cfg), cfg)
    assert records(sweeps[-1]) <= 31 * 31
    assert set(sweeps[-1]._tables) == {6}

    class Kept(oracle._Sweep):
        def __init__(self, config):
            super().__init__(config)
            self._tables = _Kept()
            sweeps.append(self)

    monkeypatch.setattr(oracle, "_Sweep", Kept)
    assert render_report(run_sweep(cfg), cfg) == report
    assert records(sweeps[-1]) > 31 * 31


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def test_render_report_shape():
    cfg = SweepConfig(2, 3)
    findings = [
        Finding("demo-check", "n=3;S=1;T=1", "want", "got", VIOLATION),
        Finding("demo-check", "n=3;S=2;T=1", "want", "got", OBSERVATION),
    ]
    text = render_report(findings, cfg)
    lines = text.splitlines()
    assert lines[0] == "# sweep n=2..3 mode=exhaustive samples=0 seed=0"
    assert lines[1] == "demo-check\tn=3;S=1;T=1\twant\tgot\tviolation"
    assert lines[2].endswith("\tobservation")
    assert lines[3] == "# findings=2 violations=1 observations=1"
    assert text.endswith("\n")


def test_finding_line_is_tab_separated():
    f = Finding("c", "s", "e", "a", VIOLATION)
    assert f.line().split("\t") == ["c", "s", "e", "a", "violation"]
