"""Digraphs over bit-packed adjacency matrices.

Vertices are 1..n; an arc (u, v) is a 1 at row u, column v.  The main
operation is contraction modulo d: vertices collapse onto their
residue classes and an arc joins two classes when any member arc does.
Residue classes use representatives 1..d, so vertex v lands on class
((v - 1) mod d) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .boolmat import BoolMatrix


@dataclass(frozen=True)
class Digraph:
    matrix: BoolMatrix

    @property
    def order(self) -> int:
        return self.matrix.n

    def arcs(self) -> Iterator[tuple[int, int]]:
        return self.matrix.entries()

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.matrix.get(u, v))


def contract(g: Digraph, d: int) -> Digraph:
    """Quotient by residue classes mod d; arcs are OR-folded blockwise."""
    n = g.order
    if not 1 <= d <= n:
        raise ValueError(f"modulus {d} outside [1, {n}]")
    folded = [0] * d
    for v in range(n):
        folded[v % d] |= g.matrix.rows[v]
    col_class = [0] * d
    for j in range(n):
        col_class[j % d] |= 1 << j
    rows = []
    for i in range(d):
        r = 0
        for j in range(d):
            if folded[i] & col_class[j]:
                r |= 1 << j
        rows.append(r)
    return Digraph(BoolMatrix(rows))


def has_source_or_sink(g: Digraph) -> bool:
    """True iff some vertex has no incoming arcs or no outgoing arcs.

    Loops count in both degrees; an isolated vertex is both a source
    and a sink.
    """
    if any(r == 0 for r in g.matrix.rows):
        return True
    seen = 0
    for r in g.matrix.rows:
        seen |= r
    return seen != (1 << g.order) - 1


def cycle_decomposition(g: Digraph) -> Optional[list[list[int]]]:
    """Vertex-disjoint cycles covering the digraph, if it is one.

    Requires in-degree and out-degree exactly 1 everywhere; otherwise
    None.  Cycles are listed by smallest member, each starting at its
    smallest vertex.
    """
    n = g.order
    succ = [0] * n
    indeg = [0] * n
    for u in range(n):
        r = g.matrix.rows[u]
        if r.bit_count() != 1:
            return None
        v = r.bit_length() - 1
        succ[u] = v
        indeg[v] += 1
    if any(x != 1 for x in indeg):
        return None
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = []
        v = start
        while not seen[v]:
            seen[v] = True
            cycle.append(v + 1)
            v = succ[v]
        cycles.append(cycle)
    return cycles


def to_dot(g: Digraph) -> str:
    """DOT text: every vertex declared, then one line per arc "u -> v;"."""
    lines = ["digraph {"]
    for v in range(1, g.order + 1):
        lines.append(f"  {v};")
    for u, v in g.arcs():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
