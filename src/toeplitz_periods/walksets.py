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

All three are window masks of 2n-1 bits inside the package, bit
l + n - 1 standing for displacement l: P a comb of period d+ shifted
into place, Q a shift-OR recurrence, R an AND over shifted rows.  The
sweep oracle and the exact decision compare masks; frozensets are made
at the API edge.  The Q recurrence never needs bits outside the window:
the terms of any i-term sum that ends in I_n can be reordered to step
up while the running sum is <= 0 and down while it is > 0, and once one
kind of term runs out the sum moves monotonically to its end value.
Every offset is at most n - 1, so every partial sum of that order stays
in I_n, and the shift-OR step may drop the bits outside the window
after each term without losing a reachable end value.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import cycle, islice
from operator import or_
from typing import Iterator, NamedTuple

from .boolmat import BoolMatrix, _shift_or, from_toeplitz
from .toeplitz import ToeplitzSpec, gcd_profile


def _mask_to_set(mask: int, n: int) -> frozenset[int]:
    """The displacements whose bits are set in a window mask of order n."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - n)
        mask ^= low
    return frozenset(out)


@cache
def _comb(step: int, width: int) -> int:
    """Bits at every multiple of step below width."""
    return ((1 << (width + step - 1) // step * step) - 1) // ((1 << step) - 1)


@cache
def _shifted_comb(step: int, width: int, first: int) -> int:
    """_comb(step, width) moved up by first < step, cut to width bits."""
    return (_comb(step, width) << first) & ((1 << width) - 1)


def _p_masks(spec: ToeplitzSpec, start: int, stop: int) -> Iterator[int]:
    """Yield the window mask of p_set(spec, i) for i = start .. stop - 1: the
    comb of period d+ from i * s1 on, cut from one comb d+ bits wider."""
    prof, n = gcd_profile(spec), spec.n
    step, width = prof.d_plus, 2 * n - 1
    comb, full = _comb(step, width + step), (1 << width) - 1
    for i in range(start, stop):
        yield comb >> (step - (i * prof.s1 + n - 1) % step) & full


def p_set(spec: ToeplitzSpec, i: int) -> frozenset[int]:
    """Displacements congruent to i * min(S) modulo d+, within I_n."""
    if i < 1:
        raise ValueError("walk length must be positive")
    return _mask_to_set(next(_p_masks(spec, i, i + 1)), spec.n)


def _q_fold(spec: ToeplitzSpec, i_max: int) -> tuple[list[int], list[int]]:
    """(masks, loop): the window masks Q_1 .. Q_k of the i-term sums, made by
    the shift-OR DP up to i_max or to its first repeat, whichever is first.

    One shift-OR per offset advances the whole set, so a step costs
    |S| + |T| big-integer operations on at most 2n - 1 bits.  Q_(j+1) is a
    function of Q_j, so when Q_(k+1) repeats Q_a, the masks from Q_a on are
    the cycle loop and Q_(k+1+r) = loop[r % len(loop)]; else loop is empty.
    """
    full = (1 << (2 * spec.n - 1)) - 1
    mask, first = 1 << (spec.n - 1), {}  # mask -> the least j with Q_j = mask, in order of j
    for j in range(1, i_max + 1):
        mask = _shift_or(mask, spec.S, spec.T) & full
        a = first.setdefault(mask, j)
        if a < j:
            masks = list(first)
            return masks, masks[a - 1 :]
    return list(first), []


def _q_masks(spec: ToeplitzSpec, i_max: int) -> Iterator[int]:
    """Yield the window mask of the i-term sums for i = 1..i_max, the DP's
    masks up to its first repeat and then its cycle."""
    masks, loop = _q_fold(spec, i_max)
    yield from masks
    yield from islice(cycle(loop), i_max - len(masks))


def q_set(spec: ToeplitzSpec, i: int) -> frozenset[int]:
    """Sums of exactly i terms from S u (-T) that land inside I_n; i folds
    into the cycle of the masks at their first repeat."""
    if i < 1:
        raise ValueError("walk length must be positive")
    masks, loop = _q_fold(spec, i)
    mask = masks[i - 1] if i <= len(masks) else loop[(i - len(masks) - 1) % len(loop)]
    return _mask_to_set(mask, spec.n)


def q_sequence(
    spec: ToeplitzSpec, i_max: int
) -> "Iterator[tuple[int, frozenset[int]]]":
    """Yield (i, q_set(spec, i)) for i = 1..i_max sharing one DP run."""
    for i, mask in enumerate(_q_masks(spec, i_max), start=1):
        yield i, _mask_to_set(mask, spec.n)


def _r_mask(power: BoolMatrix) -> int:
    """Window mask of the displacements whose entire diagonal is ones.

    Row u, shifted left by n-1-u, puts entry (u, v) on the bit of its
    displacement; bits the row does not cover are forced to one, so
    the AND over all rows keeps exactly the full diagonals.
    """
    n = power.n
    acc = (1 << (2 * n - 1)) - 1
    row_span = (1 << n) - 1
    for u, row in enumerate(power.rows):
        shift = n - 1 - u
        acc &= (row << shift) | ~(row_span << shift)
    return acc


def _realized_mask(power: BoolMatrix) -> int:
    """Window mask of the displacements v - u of the entries (u, v) of power:
    r_set's shifted rows, ORed instead of ANDed."""
    return reduce(or_, (row << (power.n - 1 - u) for u, row in enumerate(power.rows)), 0)


def r_set(power: BoolMatrix) -> frozenset[int]:
    """Displacements whose entire diagonal of the given power is ones."""
    return _mask_to_set(_r_mask(power), power.n)


class WalkSets(NamedTuple):
    """The three displacement sets at one walk length."""

    i: int
    p: frozenset[int]
    q: frozenset[int]
    r: frozenset[int]


def walksets_at(spec: ToeplitzSpec, i: int) -> WalkSets:
    power = from_toeplitz(spec).power(i)
    return WalkSets(i=i, p=p_set(spec, i), q=q_set(spec, i), r=r_set(power))
