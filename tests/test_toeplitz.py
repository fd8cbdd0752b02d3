"""Descriptor parsing, gcd quantities, and walk-ensured certificates."""

import math

import pytest

from toeplitz_periods import (
    ToeplitzSpec,
    certify_walk_ensured,
    decide_walk_ensured_exact,
)
from toeplitz_periods.oracle import enumerate_specs
from toeplitz_periods.toeplitz import (
    Certificate,
    Rule,
    SpecFormatError,
    Verdict,
    check_coprime_pair,
    check_main1,
    check_star,
    extension_chain,
    gcd_after_extension,
    gcd_profile,
    tail_extension_applicable,
)

WORKED = ToeplitzSpec(6, (2, 4), (5,))


# --------------------------------------------------------------------------
# descriptor construction and string form
# --------------------------------------------------------------------------


def test_spec_normalizes_offsets():
    spec = ToeplitzSpec(6, [4, 2, 4], (5,))
    assert spec.S == (2, 4) and spec.T == (5,)
    assert str(spec) == "n=6;S=2,4;T=5"


def test_spec_validation():
    with pytest.raises(ValueError):
        ToeplitzSpec(1)  # order below 2
    with pytest.raises(ValueError):
        ToeplitzSpec(4, (4,), ())  # offset == n
    with pytest.raises(ValueError):
        ToeplitzSpec(4, (), (0,))  # offset below 1
    ToeplitzSpec(2, (1,), (1,))  # smallest legal descriptor
    # _replace and _make build through the constructor, so they raise its errors
    spec = ToeplitzSpec(6, (2, 4), (5,))
    with pytest.raises(ValueError, match="^order must be at least 2, got 1$"):
        spec._replace(n=1)
    with pytest.raises(ValueError, match=r"^S offset 6 outside \[1, 5\]$"):
        spec._replace(S=(2, 6))
    with pytest.raises(ValueError, match="^order must be at least 2, got 1$"):
        ToeplitzSpec._make((1, (), ()))
    with pytest.raises(TypeError):
        ToeplitzSpec._make((6, (2.0,), (5,)))
    assert spec._replace(S=(4, 2, 2)) == spec  # normalized like a constructor call
    assert ToeplitzSpec._make((6, [4, 2], [5])) == spec
    for name in ("n", "S", "T", "extra", "_gcd_profile"):
        with pytest.raises(AttributeError):
            setattr(spec, name, 3)
        with pytest.raises(AttributeError):
            delattr(spec, name)
    assert spec == (6, (2, 4), (5,))


@pytest.mark.parametrize(
    "n, S, T",
    [
        (6.0, (2,), (5,)),
        (6, (2.5,), (5,)),
        (6, (2,), (5.0,)),
        (6, (True,), (5,)),
        (6, (1, True), (5,)),  # a bool equal to an offset already present
        (True, (1,), (1,)),
        ("6", (2,), (5,)),
    ],
)
def test_spec_rejects_non_int_order_and_offsets(n, S, T):
    with pytest.raises(TypeError):
        ToeplitzSpec(n, S, T)


def test_spec_string_round_trip():
    for text in ("n=6;S=2,4;T=5", "n=2;S=1;T=1", "n=5;S=;T=3", "n=9;S=3;T="):
        spec = ToeplitzSpec.from_string(text)
        assert spec.to_string() == text
        assert ToeplitzSpec.from_string(spec.to_string()) == spec


def test_spec_string_ignores_whitespace_and_sorts():
    spec = ToeplitzSpec.from_string("  n = 6 ; S = 4, 2 ; T = 5 ")
    assert spec == WORKED


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "n=6;S=2,4",  # missing field
        "n=6;S=2;T=5;T=1",  # four fields
        "n=6;S=2;X=5",  # unknown key
        "n=6;n=6;S=2",  # duplicate key
        "n=six;S=2;T=5",  # bad int
        "n=6;S=2,;T=5",  # dangling comma
        "n=6;S=2;T=9",  # offset outside range
        "n=1;S=;T=",  # order too small
    ],
)
def test_spec_string_rejects_malformed(bad):
    with pytest.raises(SpecFormatError):
        ToeplitzSpec.from_string(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("n=1_0;S=2;T=5", "bad order '1_0' in 'n=1_0;S=2;T=5'"),
        ("n=\u0666;S=2;T=5", "bad order '\u0666' in 'n=\u0666;S=2;T=5'"),  # Arabic-Indic six
        ("n=\uff16;S=2;T=5", "bad order '\uff16' in 'n=\uff16;S=2;T=5'"),  # fullwidth six
        ("n=6;S=1_0;T=5", "bad S list '1_0' in 'n=6;S=1_0;T=5'"),
        ("n=6;S=2;T=\u0665", "bad T list '\u0665' in 'n=6;S=2;T=\u0665'"),
        ("n=6;S=2;T=+-5", "bad T list '+-5' in 'n=6;S=2;T=+-5'"),
        ("n=-1;S=;T=", "order must be at least 2, got -1"),  # the range check's message
        ("n=6;S=-1;T=5", "S offset -1 outside [1, 5]"),
    ],
)
def test_spec_string_takes_only_ascii_signed_digits(text, message):
    # int() alone takes "1_0" as 10 and other scripts' digits as theirs
    with pytest.raises(SpecFormatError) as exc:
        ToeplitzSpec.from_string(text)
    assert str(exc.value) == message


def test_spec_string_keeps_a_sign_and_leading_zeros():
    assert ToeplitzSpec.from_string("n=+06;S=+2,04;T=5") == WORKED


def test_spec_format_error_is_value_error():
    assert issubclass(SpecFormatError, ValueError)


# --------------------------------------------------------------------------
# gcd profile
# --------------------------------------------------------------------------


def test_gcd_profile_worked_example():
    prof = gcd_profile(WORKED)
    assert (prof.d, prof.d_plus) == (1, 1)
    assert (prof.s1, prof.t1, prof.s_max, prof.t_max) == (2, 5, 4, 5)


def test_gcd_profile_even_sets():
    prof = gcd_profile(ToeplitzSpec(8, (2, 4), (2,)))
    assert (prof.d, prof.d_plus) == (2, 2)
    prof = gcd_profile(ToeplitzSpec(8, (2, 6), (4,)))
    assert (prof.d, prof.d_plus) == (2, 2)
    prof = gcd_profile(ToeplitzSpec(5, (4,), (2,)))
    assert (prof.d, prof.d_plus) == (2, 6)


def test_gcd_profile_needs_both_sides():
    with pytest.raises(ValueError):
        gcd_profile(ToeplitzSpec(5, (1,), ()))
    with pytest.raises(ValueError):
        gcd_profile(ToeplitzSpec(5, (), (1,)))


def test_gcd_profile_derived_once_per_spec():
    spec = ToeplitzSpec(8, (2, 4), (2,))
    assert gcd_profile(spec) is gcd_profile(spec)


def test_gcd_profile_leaves_spec_identity_alone():
    derived = ToeplitzSpec(8, (2, 4), (2,))
    gcd_profile(derived)
    fresh = ToeplitzSpec(8, (2, 4), (2,))
    assert derived == fresh and hash(derived) == hash(fresh)
    assert hash(derived) == hash((derived.n, derived.S, derived.T))
    assert repr(derived) == repr(fresh) and str(derived) == str(fresh)
    assert ToeplitzSpec._fields == ("n", "S", "T")


def test_gcd_profile_of_one_sided_spec_raises_every_time():
    spec = ToeplitzSpec(5, (2,), ())
    for _ in range(2):
        with pytest.raises(ValueError, match="both offset sets nonempty"):
            gcd_profile(spec)


def test_gcd_identities_exhaustive():
    # d divides d+, and d = gcd(d+, s1) for every descriptor
    for n in range(2, 7):
        for spec in enumerate_specs(n):
            prof = gcd_profile(spec)
            assert prof.d_plus % prof.d == 0
            assert prof.d == math.gcd(prof.d_plus, prof.s1)
            assert prof.d == math.gcd(prof.d_plus, prof.t1)


# --------------------------------------------------------------------------
# sufficient conditions, individually
# --------------------------------------------------------------------------


def test_check_star_examples():
    assert check_star(ToeplitzSpec(5, (1,), (2,))) is True
    assert check_star(ToeplitzSpec(4, (2,), (2,))) is True
    # max S + min T = 4 + 2 exceeds n = 5
    assert check_star(ToeplitzSpec(5, (1, 4), (2, 3))) is False
    assert check_star(WORKED) is False


def test_check_coprime_pair_examples():
    assert check_coprime_pair(ToeplitzSpec(5, (1, 4), (2, 3))) == (1, 2)
    assert check_coprime_pair(WORKED) is None  # all sums exceed 6 or share a factor
    assert check_coprime_pair(ToeplitzSpec(4, (2,), (2,))) is None  # gcd 2
    with pytest.raises(ValueError):
        check_coprime_pair(ToeplitzSpec(4, (1,), ()))


def test_check_main1_examples():
    assert check_main1(ToeplitzSpec(4, (2,), (2,))) is True
    # 2 + 5 = 7 exceeds n = 6
    assert check_main1(WORKED) is False
    # minima fit but max offset 7 exceeds 8 - gcd(2, 2) = 6
    assert check_main1(ToeplitzSpec(8, (2, 7), (2,))) is False
    assert check_main1(ToeplitzSpec(8, (2, 6), (4,))) is True


# --------------------------------------------------------------------------
# gcd bookkeeping for extensions
# --------------------------------------------------------------------------


def test_gcd_after_extension_example():
    # adjoining 5 to S = {2, 4} with T = {2} makes both gcds collapse to 1
    prof = gcd_profile(ToeplitzSpec(8, (2, 4), (2,)))
    assert gcd_after_extension(prof.d, prof.d_plus, 5, 2) == (1, 1)
    # re-adjoining an existing member changes nothing
    assert gcd_after_extension(prof.d, prof.d_plus, 2, 2) == (prof.d, prof.d_plus)


def test_gcd_after_extension_reference_independent():
    prof = gcd_profile(ToeplitzSpec(9, (2, 6), (4, 8)))
    for s_star in range(1, 9):
        results = {gcd_after_extension(prof.d, prof.d_plus, s_star, ref) for ref in (2, 6)}
        assert len(results) == 1


def test_gcd_after_extension_matches_recomputation():
    for n in range(2, 6):
        for spec in enumerate_specs(n):
            prof = gcd_profile(spec)
            for s_star in range(1, n):
                via_update = gcd_after_extension(prof.d, prof.d_plus, s_star, spec.S[0])
                bigger = ToeplitzSpec(n, spec.S + (s_star,), spec.T)
                fresh = gcd_profile(bigger)
                assert via_update == (fresh.d, fresh.d_plus)


# --------------------------------------------------------------------------
# extension chains
# --------------------------------------------------------------------------


def test_extension_chain_success():
    chain = extension_chain(ToeplitzSpec(12, (4, 6, 9, 11), (4,)))
    assert chain == (("base", 4, 4), ("S", 6), ("S", 9), ("S", 11))


def test_extension_chain_failure():
    assert extension_chain(WORKED) is None  # no base pair fits: 2+5 = 7 > 6
    # base (3, 6) fits into n = 9 but 8 > 9 - gcd stays out of reach
    assert extension_chain(ToeplitzSpec(9, (3, 8), (6,))) is None


def multi_pass_extension_chain(spec):
    """The chain with retry passes: offsets deferred by one pass are tried
    again until a pass adds nothing."""
    items = sorted([(s, "S") for s in spec.S] + [(t, "T") for t in spec.T])
    for s0 in spec.S:
        for t0 in spec.T:
            if s0 + t0 > spec.n:
                continue
            d, d_plus = math.gcd(s0, t0), s0 + t0
            steps = [("base", s0, t0)]
            pending = list(items)
            pending.remove((s0, "S"))
            pending.remove((t0, "T"))
            while pending:
                kept = []
                added = False
                for value, side in pending:
                    if value <= spec.n - d:
                        ref = s0 if side == "S" else t0
                        d, d_plus = gcd_after_extension(d, d_plus, value, ref)
                        steps.append((side, value))
                        added = True
                    else:
                        kept.append((value, side))
                pending = kept
                if not added:
                    break
            if not pending:
                return tuple(steps)
    return None


def test_one_pass_extension_chain_matches_the_retrying_twin():
    # d never grows as offsets join, so a retry pass never adds an offset
    for n in range(2, 9):
        for spec in enumerate_specs(n):
            assert extension_chain(spec) == multi_pass_extension_chain(spec), spec


def test_star_implies_extension_chain():
    for n in range(2, 8):
        for spec in enumerate_specs(n):
            if check_star(spec):
                assert extension_chain(spec) is not None, spec


def test_every_earlier_rule_implies_extension_chain():
    # certify_walk_ensured's docstring proves it: the chain from a coprime
    # pair keeps d = 1, and the chain from the minima meets Main1's bound,
    # which Star implies; so the rule order only picks the name reported
    certified = 0
    for n in range(2, 8):
        for spec in enumerate_specs(n):
            assert check_main1(spec) or not check_star(spec), spec
            if check_star(spec) or check_coprime_pair(spec) or check_main1(spec):
                assert extension_chain(spec) is not None, spec
                certified += 1
    assert certified > 0


# --------------------------------------------------------------------------
# certificates and rule precedence
# --------------------------------------------------------------------------


def test_certify_rule_star():
    cert = certify_walk_ensured(ToeplitzSpec(5, (1,), (2,)))
    assert cert.verdict is Verdict.PROVEN_WALK_ENSURED
    assert cert.rule is Rule.STAR
    assert cert.witness == (3, 3)
    assert cert.walk_ensured is True


def test_certify_rule_coprime_pair():
    cert = certify_walk_ensured(ToeplitzSpec(5, (1, 4), (2, 3)))
    assert cert.rule is Rule.COPRIME_PAIR
    assert cert.witness == (1, 2)


def test_certify_rule_main1():
    cert = certify_walk_ensured(ToeplitzSpec(8, (2, 6), (4,)))
    assert cert.rule is Rule.MAIN1
    assert cert.witness == (2, 4)


def test_certify_rule_extension_chain():
    spec = ToeplitzSpec(12, (4, 6, 9, 11), (4,))
    assert check_star(spec) is False
    assert check_coprime_pair(spec) is None
    assert check_main1(spec) is False
    cert = certify_walk_ensured(spec)
    assert cert.rule is Rule.EXTENSION_CHAIN
    assert cert.witness[0] == ("base", 4, 4)


def test_certify_unknown():
    cert = certify_walk_ensured(WORKED)
    assert cert.verdict is Verdict.UNKNOWN
    assert cert.rule is None and cert.witness is None
    assert cert.walk_ensured is None


def test_certified_specs_are_walk_ensured_small():
    # soundness spot check at small orders (the sweep covers n <= 7)
    for n in range(2, 6):
        for spec in enumerate_specs(n):
            cert = certify_walk_ensured(spec)
            if cert.verdict is Verdict.PROVEN_WALK_ENSURED:
                ok, _ = decide_walk_ensured_exact(spec)
                assert ok, spec


def test_certificate_requires_witness_when_proven():
    with pytest.raises(ValueError):
        Certificate(Verdict.PROVEN_WALK_ENSURED)
    with pytest.raises(ValueError):
        Certificate(Verdict.PROVEN_WALK_ENSURED, Rule.STAR)
    unknown = Certificate(Verdict.UNKNOWN)
    with pytest.raises(ValueError, match="^a proven certificate needs rule and witness$"):
        unknown._replace(verdict=Verdict.PROVEN_WALK_ENSURED)
    with pytest.raises(ValueError, match="^a proven certificate needs rule and witness$"):
        Certificate._make((Verdict.PROVEN_WALK_ENSURED, Rule.STAR, None))
    with pytest.raises(AttributeError):
        unknown.rule = Rule.STAR
    assert Certificate(Verdict.NOT_WALK_ENSURED, Rule.EXACT_DECISION).walk_ensured is False
    assert (
        Certificate(Verdict.PROVEN_BY_EXACT_DECISION, Rule.EXACT_DECISION, 3).walk_ensured
        is True
    )


def test_verdict_and_rule_wire_names():
    assert [v.value for v in Verdict] == [
        "ProvenWalkEnsured",
        "ProvenByExactDecision",
        "NotWalkEnsured",
        "Unknown",
    ]
    assert [r.value for r in Rule] == [
        "Star",
        "CoprimePair",
        "Main1",
        "ExtensionChain",
        "ExactDecision",
    ]


# --------------------------------------------------------------------------
# tail extension window
# --------------------------------------------------------------------------


def test_tail_extension_window():
    spec = ToeplitzSpec(10, (4,), (4,))  # d = 4, window is 6 < s* < 10
    assert [s for s in range(1, 10) if tail_extension_applicable(spec, s)] == [7, 8, 9]


def test_tail_extension_needs_offsets():
    with pytest.raises(ValueError):
        tail_extension_applicable(ToeplitzSpec(5), 3)
    # a one-sided descriptor is enough: d = gcd of whatever is present
    assert tail_extension_applicable(ToeplitzSpec(10, (4, 8), ()), 9) is True
    assert tail_extension_applicable(ToeplitzSpec(10, (4, 8), ()), 5) is False
