"""Displacement sets of walks in a Toeplitz digraph.

Walks of length i in the digraph of T_n<S;T> move by +s per upward arc
and -t per downward arc, so the displacement v - u of any (u, v)-walk
of length i is a sum of exactly i terms drawn from S u (-T).  Three
nested families over the window I_n = [-(n-1), n-1] describe this at
growing strength:

  p_set  displacements allowed by congruence alone: l = i*s1 mod d+
  q_set  displacements representable as an i-term sum, clamped to I_n
  r_set  displacements realized by walks between *every* vertex pair at
         that offset, read off the i-th Boolean power

r_set <= q_set <= p_set always; a descriptor is walk-ensured exactly
when p_set and r_set agree for every sufficiently long i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .boolmat import BoolMatrix, PowerSequence, from_toeplitz
from .toeplitz import ToeplitzSpec, gcd_profile

DEFAULT_SUM_LENGTH_BOUND = 64


def window(n: int) -> range:
    """The displacement window I_n = [-(n-1), n-1]."""
    return range(-(n - 1), n)


def p_set(spec: ToeplitzSpec, i: int) -> frozenset[int]:
    """Displacements congruent to i * min(S) modulo d+, within I_n."""
    if i < 1:
        raise ValueError("walk length must be positive")
    prof = gcd_profile(spec)
    target = (i * prof.s1) % prof.d_plus
    return frozenset(l for l in window(spec.n) if l % prof.d_plus == target)


def _q_mask_steps(spec: ToeplitzSpec, i_max: int):
    """Yield (i, mask) for i = 1..i_max; bit (x + i_max*maxT) holds sum x.

    The mask covers the full unclamped range [-i*maxT, i*maxS]; one
    shift-OR per offset advances the whole set, so the cost per step is
    |S| + |T| big-integer operations.
    """
    shift = i_max * (spec.T[-1] if spec.T else 0)
    mask = 1 << shift
    for i in range(1, i_max + 1):
        nxt = 0
        for s in spec.S:
            nxt |= mask << s
        for t in spec.T:
            nxt |= mask >> t
        mask = nxt
        yield i, mask, shift


def q_set(
    spec: ToeplitzSpec, i: int, *, length_bound: int = DEFAULT_SUM_LENGTH_BOUND
) -> frozenset[int]:
    """Sums of exactly i terms from S u (-T) that land inside I_n.

    Intermediate sums may leave the window; only the final value is
    clamped.  Lengths above length_bound are refused loudly rather than
    silently truncated.
    """
    if i < 1:
        raise ValueError("walk length must be positive")
    if i > length_bound:
        raise ValueError(f"sum length {i} above bound {length_bound}")
    for _, mask, shift in _q_mask_steps(spec, i):
        pass
    return frozenset(
        x for x in window(spec.n) if x + shift >= 0 and (mask >> (x + shift)) & 1
    )


def q_sequence(
    spec: ToeplitzSpec, i_max: int
) -> "Iterator[tuple[int, frozenset[int]]]":
    """Yield (i, q_set(spec, i)) for i = 1..i_max sharing one DP run."""
    for i, mask, shift in _q_mask_steps(spec, i_max):
        yield i, frozenset(
            x for x in window(spec.n) if x + shift >= 0 and (mask >> (x + shift)) & 1
        )


def r_set(power: BoolMatrix) -> frozenset[int]:
    """Displacements whose entire diagonal of the given power is ones."""
    n = power.n
    rows = power.rows
    out = []
    for l in window(n):
        lo = max(1, 1 - l)
        hi = min(n, n - l)
        if all((rows[u - 1] >> (u + l - 1)) & 1 for u in range(lo, hi + 1)):
            out.append(l)
    return frozenset(out)


@dataclass(frozen=True)
class WalkSets:
    """The three displacement sets at one walk length."""

    i: int
    p: frozenset[int]
    q: frozenset[int]
    r: frozenset[int]


def walksets_at(
    spec: ToeplitzSpec,
    i: int,
    powers: PowerSequence | None = None,
    *,
    length_bound: int = DEFAULT_SUM_LENGTH_BOUND,
) -> WalkSets:
    if powers is None:
        powers = PowerSequence(from_toeplitz(spec))
    return WalkSets(
        i=i,
        p=p_set(spec, i),
        q=q_set(spec, i, length_bound=length_bound),
        r=r_set(powers.power(i)),
    )
