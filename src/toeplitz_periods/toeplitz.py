"""Toeplitz matrix descriptors and walk-ensured certificates.

A descriptor T_n<S;T> fixes the order n and two nonempty offset sets
S, T inside [1, n-1]; the matrix has a 1 at (i, j) exactly when j - i
lies in S or i - j lies in T.  This module holds the descriptor type,
the gcd quantities d = gcd(S u T) and d+ = gcd(S + T) that control
periods, and the sufficient conditions under which a descriptor is
certified walk-ensured (``walksets``), in plain integer arithmetic; the
exact decision that settles what these rules leave open is the engine's.
"""

from __future__ import annotations

import enum
import math
import re
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Union


class SpecFormatError(ValueError):
    """A descriptor string failed to parse."""


_INTEGER = re.compile(r"[+-]?[0-9]+")  # int() would also take "1_0" and non-ASCII digits


class _Checked:
    """Base of a record whose __new__ validates its fields.

    A named tuple's _make, and _replace through it, would build the
    tuple without calling __new__; here both build through it.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _SpecFields(NamedTuple):
    n: int
    S: tuple[int, ...]
    T: tuple[int, ...]


class ToeplitzSpec(_Checked, _SpecFields):
    """Descriptor T_n<S;T>; offsets are stored sorted and duplicate-free.

    S holds the upward offsets (superdiagonals), T the downward ones.
    Either set may be empty at this level; operations that need gcd
    data require both nonempty and say so.  The gcd profile is worked
    out on first use and kept in the instance dict, which the other
    records do not have; it is not a field, so ==, hash and repr see
    only (n, S, T).  No attribute can be set or deleted.
    """

    def __new__(cls, n: int, S: Iterable[int] = (), T: Iterable[int] = ()):
        S, T = tuple(S), tuple(T)
        for v in (n, *S, *T):
            if type(v) is not int:
                raise TypeError(f"order and offsets must be int, got {v!r}")
        S = tuple(sorted(set(S)))
        T = tuple(sorted(set(T)))
        if n < 2:
            raise ValueError(f"order must be at least 2, got {n}")
        for name, vals in (("S", S), ("T", T)):
            for v in vals:
                if not 1 <= v <= n - 1:
                    raise ValueError(f"{name} offset {v} outside [1, {n - 1}]")
        return super().__new__(cls, n, S, T)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: ToeplitzSpec is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: ToeplitzSpec is read-only")

    def to_string(self) -> str:
        s = ",".join(str(v) for v in self.S)
        t = ",".join(str(v) for v in self.T)
        return f"n={self.n};S={s};T={t}"

    @classmethod
    def from_string(cls, text: str) -> "ToeplitzSpec":
        """Parse "n=<int>;S=<comma ints>;T=<comma ints>"; whitespace ignored."""
        compact = "".join(text.split())
        parts = compact.split(";")
        if len(parts) != 3:
            raise SpecFormatError(f"expected three ;-separated fields: {text!r}")
        seen: dict[str, str] = {}
        for part in parts:
            key, eq, value = part.partition("=")
            if not eq or key not in ("n", "S", "T") or key in seen:
                raise SpecFormatError(f"bad field {part!r} in {text!r}")
            seen[key] = value

        def ints(value: str, label: str) -> list[int]:
            items = value.split(",") if value else []
            if not all(map(_INTEGER.fullmatch, items)):
                raise SpecFormatError(f"bad {label} list {value!r} in {text!r}")
            return [int(v) for v in items]

        if not _INTEGER.fullmatch(seen["n"]):
            raise SpecFormatError(f"bad order {seen['n']!r} in {text!r}")
        try:
            return cls(int(seen["n"]), ints(seen["S"], "S"), ints(seen["T"], "T"))
        except ValueError as exc:
            raise SpecFormatError(str(exc)) from None

    def __str__(self) -> str:
        return self.to_string()

    @cached_property
    def _gcd_profile(self) -> "GcdProfile":
        if not self.S or not self.T:
            raise ValueError("gcd profile needs both offset sets nonempty")
        return GcdProfile(
            d=math.gcd(*self.S, *self.T),
            d_plus=math.gcd(*(s + t for s in self.S for t in self.T)),
            s1=self.S[0],
            t1=self.T[0],
            s_max=self.S[-1],
            t_max=self.T[-1],
        )


class GcdProfile(NamedTuple):
    """The gcd data of a descriptor with both offset sets nonempty.

    d divides d_plus (every s + t is a difference of sums of elements
    of S u T), and d = gcd(d_plus, s1) holds as a consequence; both are
    asserted in the test suite rather than assumed here.
    """

    d: int
    d_plus: int
    s1: int
    t1: int
    s_max: int
    t_max: int


def gcd_profile(spec: ToeplitzSpec) -> GcdProfile:
    """d = gcd(S u T), d+ = gcd of all pairwise sums s + t, and extremes.

    Derived once per spec instance; later calls return the same object.
    """
    return spec._gcd_profile


class Verdict(enum.Enum):
    PROVEN_WALK_ENSURED = "ProvenWalkEnsured"
    PROVEN_BY_EXACT_DECISION = "ProvenByExactDecision"
    NOT_WALK_ENSURED = "NotWalkEnsured"
    UNKNOWN = "Unknown"


class Rule(enum.Enum):
    STAR = "Star"
    COPRIME_PAIR = "CoprimePair"
    MAIN1 = "Main1"
    EXTENSION_CHAIN = "ExtensionChain"
    EXACT_DECISION = "ExactDecision"


Witness = Union[int, tuple, None]


class _CertificateFields(NamedTuple):
    verdict: Verdict
    rule: Optional[Rule]
    witness: Witness


class Certificate(_Checked, _CertificateFields):
    """Outcome of a walk-ensured query, with the rule that settled it.

    Witness payload by rule:
      STAR            (min S + max T, max S + min T), the two bounded sums
      COPRIME_PAIR    the coprime pair (s, t)
      MAIN1           the minima (s1, t1)
      EXTENSION_CHAIN growth steps: ("base", s, t) then ("S"|"T", value)
      EXACT_DECISION  the stabilization threshold M
    """

    __slots__ = ()

    def __new__(cls, verdict: Verdict, rule: Optional[Rule] = None, witness: Witness = None):
        if verdict is Verdict.PROVEN_WALK_ENSURED and (rule is None or witness is None):
            raise ValueError("a proven certificate needs rule and witness")
        return super().__new__(cls, verdict, rule, witness)

    @property
    def walk_ensured(self) -> Optional[bool]:
        """True/False when settled, None while unknown."""
        if self.verdict in (Verdict.PROVEN_WALK_ENSURED, Verdict.PROVEN_BY_EXACT_DECISION):
            return True
        if self.verdict is Verdict.NOT_WALK_ENSURED:
            return False
        return None


def check_star(spec: ToeplitzSpec) -> bool:
    """min S + max T <= n and max S + min T <= n."""
    prof = gcd_profile(spec)
    return prof.s1 + prof.t_max <= spec.n and prof.s_max + prof.t1 <= spec.n


def check_coprime_pair(spec: ToeplitzSpec) -> Optional[tuple[int, int]]:
    """Lexicographically least (s, t) with s + t <= n and gcd(s, t) = 1."""
    if not spec.S or not spec.T:
        raise ValueError("coprime pair check needs both offset sets nonempty")
    for s in spec.S:
        for t in spec.T:
            if s + t <= spec.n and math.gcd(s, t) == 1:
                return (s, t)
    return None


def check_main1(spec: ToeplitzSpec) -> bool:
    """min S + min T <= n and max(max S, max T) <= n - gcd(min S, min T)."""
    prof = gcd_profile(spec)
    if prof.s1 + prof.t1 > spec.n:
        return False
    return max(prof.s_max, prof.t_max) <= spec.n - math.gcd(prof.s1, prof.t1)


def gcd_after_extension(d: int, d_plus: int, s_star: int, s_ref: int) -> tuple[int, int]:
    """(new d, new d+) after adjoining offset s_star to the side of s_ref.

    gcd(S* u T) = gcd(d, s* - s) and gcd(S* + T) = gcd(d+, s* - s) for s
    a member of the side being extended; gcd(x, 0) = x covers s* = s.
    s_ref must already belong to the extended side; the result does not
    depend on which member is used, a fact the oracle re-checks.
    """
    return math.gcd(d, s_star - s_ref), math.gcd(d_plus, s_star - s_ref)


def extension_chain(spec: ToeplitzSpec) -> Optional[tuple]:
    """Grow the full descriptor from a short base pair, if possible.

    A base pair (s, t) with s + t <= n is walk-ensured on its own; any
    offset bounded by n - d may then be adjoined without losing the
    property, d being the gcd of the offsets collected so far.  One pass
    per base pair adjoins the other offsets in ascending value across
    both sides and stops at the first one above n - d.  No retry pass
    could add more: d is a gcd over a growing set, so it never grows and
    the bound n - d never falls.  Once an offset fails, every later one
    is at least as large and fails at the same d, and a retry would meet
    that offset first with d unchanged.  Every admissible base pair is
    tried before giving up.
    """
    items = sorted([(s, "S") for s in spec.S] + [(t, "T") for t in spec.T])
    for s0 in spec.S:
        for t0 in spec.T:
            if s0 + t0 > spec.n:
                continue
            d, d_plus = math.gcd(s0, t0), s0 + t0
            steps: list[tuple] = [("base", s0, t0)]
            rest = (item for item in items if item not in ((s0, "S"), (t0, "T")))
            for value, side in rest:
                if value > spec.n - d:
                    break
                ref = s0 if side == "S" else t0
                d, d_plus = gcd_after_extension(d, d_plus, value, ref)
                steps.append((side, value))
            else:
                return tuple(steps)
    return None


def certify_walk_ensured(spec: ToeplitzSpec) -> Certificate:
    """Try the sufficient conditions in fixed order; never disproves.

    Order: the two-sided sum bound, then a coprime short pair, then the
    minima rule, then the extension chain.  A miss on all four returns
    UNKNOWN; only the engine's exact decision can return a negative.

    The extension chain applies whenever one of the first three does, so
    the order only picks the rule reported.  extension_chain tries every
    base pair (s0, t0) with s0 + t0 <= n, and the gcd d of the offsets it
    collects starts at gcd(s0, t0) and never grows, so the chain from
    (s0, t0) adjoins every offset when all are at most n - gcd(s0, t0).
    CoprimePair: its pair has gcd 1, and every offset is at most n - 1.
    Main1: (s1, t1) is a base pair, and max(s_max, t_max) <= n - gcd(s1, t1).
    Star: s1 + t1 <= s1 + t_max <= n, and s_max <= n - t1, t_max <= n - s1,
    both at most n - min(s1, t1) <= n - gcd(s1, t1), so Star implies Main1.
    """
    prof = gcd_profile(spec)
    if check_star(spec):
        witness = (prof.s1 + prof.t_max, prof.s_max + prof.t1)
        return Certificate(Verdict.PROVEN_WALK_ENSURED, Rule.STAR, witness)
    pair = check_coprime_pair(spec)
    if pair is not None:
        return Certificate(Verdict.PROVEN_WALK_ENSURED, Rule.COPRIME_PAIR, pair)
    if check_main1(spec):
        return Certificate(
            Verdict.PROVEN_WALK_ENSURED, Rule.MAIN1, (prof.s1, prof.t1)
        )
    chain = extension_chain(spec)
    if chain is not None:
        return Certificate(Verdict.PROVEN_WALK_ENSURED, Rule.EXTENSION_CHAIN, chain)
    return Certificate(Verdict.UNKNOWN)


def tail_extension_applicable(spec: ToeplitzSpec, s_star: int) -> bool:
    """True iff n - gcd(S u T) < s_star < n.

    Offsets in that window touch only the corner of the matrix; such an
    extension is guaranteed to leave the period unchanged.
    """
    if not spec.S and not spec.T:
        raise ValueError("tail extension window needs some offsets")
    d = math.gcd(*spec.S, *spec.T)
    return spec.n - d < s_star < spec.n
