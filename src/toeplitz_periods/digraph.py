"""Directed graphs, each given by its bit-packed adjacency matrix.

Every function here takes the adjacency BoolMatrix, and contract
returns one.  Vertices are 1..n; an arc (u, v) is a 1 at row u,
column v.  The main operation is contraction modulo d: vertices
collapse onto their residue classes and an arc joins two classes when
any member arc does.  Residue classes use representatives 1..d, so
vertex v lands on class ((v - 1) mod d) + 1.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Optional

from .boolmat import BoolMatrix, Offsets, _toeplitz_rows


def contract(m: BoolMatrix, d: int) -> BoolMatrix:
    """Quotient by residue classes mod d; arcs are OR-folded blockwise."""
    n = m.n
    if not 1 <= d <= n:
        raise ValueError(f"modulus {d} outside [1, {n}]")
    folded = [0] * d
    for v, row in enumerate(m.rows):
        folded[v % d] |= row
    classes = ({j % d for j in range(n) if row >> j & 1} for row in folded)
    return BoolMatrix(sum(1 << c for c in cs) for cs in classes)


def has_source_or_sink(m: BoolMatrix) -> bool:
    """True iff some vertex has no incoming arcs or no outgoing arcs.

    Loops count in both degrees; an isolated vertex is both a source
    and a sink.
    """
    return 0 in m.rows or reduce(or_, m.rows, 0) != (1 << m.n) - 1


def _levels(rows: tuple[int, ...], root: int, inside: int) -> tuple[list[int], list[int]]:
    """BFS from root (0-indexed) along rows within the vertex mask inside:
    the vertex mask of each level, and the OR of its members' rows."""
    levels, images, seen, level = [], [], 0, 1 << root
    while level:
        seen |= level
        levels.append(level)
        image, rest = 0, level
        while rest:
            low = rest & -rest
            image |= rows[low.bit_length() - 1]
            rest ^= low
        images.append(image)
        level = image & inside & ~seen
    return levels, images


def power_period(m: BoolMatrix, offsets: Optional[Offsets] = None) -> int:
    """Period of the Boolean powers of m; 1 when its digraph has no cycle.

    The lcm over strong components of their cyclicity, the gcd of
    lvl[u] + 1 - lvl[v] over the arcs u -> v inside, lvl being BFS levels
    from one member (Brualdi & Ryser, Combinatorial Matrix Theory, 3.4).
    Walks between members stay inside, so a bitmask BFS over the vertices
    of no component found yet, forward and then backward, finds both.  An
    arc into a member from a vertex the forward BFS reached starts inside
    too, so the set bits of the OR of level k's rows within the component
    are the heads of the arcs inside that leave level k.  Each vertex's
    level is recorded once and each such arc read once until the gcd is 1:
    linear in the arcs, where comparing every pair of levels would be
    quadratic in the BFS depth, about n on T_n<1;n-2,n-1>.  When offsets =
    (S, T) says m = T_n<S;T>, its columns are the rows of T_n<T;S>.
    """
    rows = m.rows
    cols = m.transpose().rows if offsets is None else _toeplitz_rows(m.n, *offsets[::-1])
    period, left, level_of = 1, (1 << m.n) - 1, {}
    while left:
        root = (left & -left).bit_length() - 1
        levels, images = _levels(rows, root, left)
        comp = reduce(or_, _levels(cols, root, reduce(or_, levels))[0])
        left &= ~comp
        for k, level in enumerate(levels):
            rest = level & comp
            while rest:
                low = rest & -rest
                level_of[low] = k
                rest ^= low
        cyclicity = 0
        for k, image in enumerate(images):
            heads = image & comp
            while heads and cyclicity != 1:
                low = heads & -heads
                cyclicity = gcd(cyclicity, k + 1 - level_of[low])
                heads ^= low
        period = lcm(period, cyclicity or 1)
    return period


def cycle_decomposition(m: BoolMatrix) -> Optional[list[list[int]]]:
    """Vertex-disjoint cycles covering the digraph, if it is one.

    Requires in-degree and out-degree exactly 1 everywhere; otherwise
    None.  Cycles are listed by smallest member, each starting at its
    smallest vertex.
    """
    rows = m.rows
    if any(r.bit_count() != 1 for r in rows) or len(set(rows)) != len(rows):
        return None
    succ = {u: r.bit_length() for u, r in enumerate(rows, start=1)}
    seen: set[int] = set()
    cycles = []
    for start in range(1, m.n + 1):
        if start not in seen:
            cycle = [start]
            while succ[cycle[-1]] != start:
                cycle.append(succ[cycle[-1]])
            seen.update(cycle)
            cycles.append(cycle)
    return cycles


def to_dot(m: BoolMatrix) -> str:
    """DOT text: every vertex declared, then one line per arc "u -> v;"."""
    lines = ["digraph {"]
    for v in range(1, m.n + 1):
        lines.append(f"  {v};")
    for u, v in m.entries():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
