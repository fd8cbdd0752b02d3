"""Bit-packed square Boolean matrices.

Each row is a Python integer used as a bit vector: bit j-1 of row i-1
holds entry (i, j), so a matrix of order n is a tuple of n integers
below 2**n.  Multiplication over the Boolean semiring (OR for +, AND
for *) becomes row selection plus OR, one word operation per machine
word instead of one per scalar.  Matrices are immutable and hashable,
which lets dictionaries do hash-then-exact-compare keying for
free during cycle detection.
"""

from __future__ import annotations

from operator import or_
from typing import Callable, Iterable, Iterator, TYPE_CHECKING

if TYPE_CHECKING:
    from .toeplitz import ToeplitzSpec


class BoolMatrix:
    """Immutable square 0/1 matrix with OR/AND arithmetic.

    Entries are addressed 1-indexed: ``get(i, j)`` is row i, column j
    with 1 <= i, j <= n.  ``rows`` is exposed read-only for callers
    that want to work on the packed integers directly.
    """

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, rows: Iterable[int]):
        rows = tuple(rows)
        n = len(rows)
        if rows and (min(rows) < 0 or max(rows) >> n):
            raise ValueError("row value has bits outside column range")
        self.n = n
        self.rows = rows
        self._hash = None

    @classmethod
    def zeros(cls, n: int) -> "BoolMatrix":
        return cls([0] * n)

    @classmethod
    def identity(cls, n: int) -> "BoolMatrix":
        return cls([1 << i for i in range(n)])

    @classmethod
    def ones(cls, n: int) -> "BoolMatrix":
        return cls([(1 << n) - 1] * n)

    @classmethod
    def from_entries(cls, n: int, entries: Iterable[tuple[int, int]]) -> "BoolMatrix":
        """Build from 1-indexed (i, j) positions that hold a 1."""
        rows = [0] * n
        for i, j in entries:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"entry ({i}, {j}) outside order {n}")
            rows[i - 1] |= 1 << (j - 1)
        return cls(rows)

    def get(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"({i}, {j}) outside order {self.n}")
        return (self.rows[i - 1] >> (j - 1)) & 1

    def entries(self) -> Iterator[tuple[int, int]]:
        """Yield 1-indexed positions of the 1 entries, row-major."""
        for i, r in enumerate(self.rows, start=1):
            while r:
                low = r & -r
                yield i, low.bit_length()
                r ^= low

    def count(self) -> int:
        return sum(map(int.bit_count, self.rows))

    def __matmul__(self, other: "BoolMatrix") -> "BoolMatrix":
        if self.n != other.n:
            raise ValueError("order mismatch")
        brows = other.rows
        out = []
        for r in self.rows:
            acc = 0
            while r:
                low = r & -r
                acc |= brows[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return BoolMatrix(out)

    def transpose(self) -> "BoolMatrix":
        """One step per 1; a persymmetric matrix has ``_mirror`` instead."""
        cols = [0] * self.n
        for i, r in enumerate(self.rows):
            bit = 1 << i
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= bit
                r ^= low
        return BoolMatrix(cols)

    def power(self, m: int) -> "BoolMatrix":
        """m-th Boolean power by repeated squaring; power(0) is identity."""
        if m < 0:
            raise ValueError("negative power")
        result = BoolMatrix.identity(self.n)
        sq = self
        while m:
            if m & 1:
                result = result @ sq
            m >>= 1
            if m:
                sq = sq @ sq
        return result

    def and_not(self, other: "BoolMatrix") -> "BoolMatrix":
        """Entries present in self but absent in other."""
        if self.n != other.n:
            raise ValueError("order mismatch")
        return BoolMatrix(a & ~b for a, b in zip(self.rows, other.rows))

    def dominated_by(self, other: "BoolMatrix") -> bool:
        """Entrywise <=: every 1 of self is a 1 of other."""
        if self.n != other.n:
            raise ValueError("order mismatch")
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoolMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n,) + self.rows)
        return self._hash

    def __str__(self) -> str:
        return "\n".join(
            "".join("1" if (r >> j) & 1 else "0" for j in range(self.n))
            for r in self.rows
        )

    def __repr__(self) -> str:
        return f"BoolMatrix(n={self.n}, ones={self.count()})"


_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _mirror(x: BoolMatrix) -> BoolMatrix:
    """J x J, J the reversal permutation: the rows in reverse order, each read
    backwards, one table lookup per byte.  It is x^T when x is persymmetric,
    as every power of a Toeplitz A is: A^T = T_n<T;S> = J A J, so
    (A^m)^T = (J A J)^m = J A^m J."""
    nbytes = (x.n + 7) // 8
    pad = 8 * nbytes - x.n
    return BoolMatrix([
        int.from_bytes(r.to_bytes(nbytes, "little").translate(_REVERSED), "big") >> pad
        for r in reversed(x.rows)
    ])


def from_toeplitz(spec: "ToeplitzSpec") -> BoolMatrix:
    """Adjacency matrix with entry (i, j) = 1 iff j-i in S or i-j in T.

    Row i is (S << i) | (T >> (n-i)), masked to n bits, where S has bit
    s-1 per offset s and T bit n-1-t per offset t.
    """
    return BoolMatrix(_toeplitz_rows(spec.n, spec.S, spec.T))


def _toeplitz_rows(n: int, S: Iterable[int], T: Iterable[int]) -> list[int]:
    full = (1 << n) - 1
    smask = sum(1 << (s - 1) for s in S)
    tmask = sum(1 << (n - 1 - t) for t in T)
    return [((smask << i) & full) | (tmask >> (n - i)) for i in range(1, n + 1)]


Offsets = tuple[tuple[int, ...], tuple[int, ...]]


def _toeplitz_offsets(a: BoolMatrix) -> Offsets | None:
    """(S, T) with a = T_n<S;T>, read from row 1 and column 1 and checked
    against every row; None when a is not Toeplitz, has no offsets or has a
    diagonal entry."""
    rows = a.rows
    S = tuple(s for s in range(1, a.n) if rows[0] >> s & 1)
    T = tuple(t for t in range(1, a.n) if rows[t] & 1)
    if not (S or T) or _toeplitz_rows(a.n, S, T) != list(rows):
        return None
    return S, T


def _shift_or(packed: int, left: Iterable[int], right: Iterable[int]) -> int:
    out = 0
    for s in left:
        out |= packed << s
    for t in right:
        out |= packed >> t
    return out


class _ShiftKernel:
    """Matrices of order n held as one integer, for stepping by A = T_n<S;T>.

    The rows are packed as fields of whole bytes, at least n + max(S u T)
    bits wide, so that a row shifted by an offset spills only into guard
    bits, which the mask clears after every step.  Row i of x A is
    OR_s (x_i << s) | OR_t (x_i >> t), so x -> x A is |S| + |T| shifts of
    all rows at once.  A^T = T_n<T;S>, so X -> X A^T swaps those shifts,
    and row i of A X is OR_s X_(i+s) | OR_t X_(i-t), shifts by whole
    fields: X -> A X A^T is twice as many.  Packed integers are equal
    exactly when the matrices are, so they compare and hash as they are.

    ``cheaper`` is the one rule for steps against a product, and the one
    place that knows what a shift costs.
    """

    __slots__ = ("n", "offsets", "_cost", "_nbytes", "_mask", "_up", "_down")

    def __init__(self, n: int, offsets: Offsets):
        S, T = self.offsets = offsets
        self.n, self._cost = n, len(S) + len(T)
        self._nbytes = nbytes = (n + max(S + T) + 7) // 8
        self._mask = int.from_bytes(((1 << n) - 1).to_bytes(nbytes, "little") * n, "little")
        self._up, self._down = [8 * nbytes * t for t in T], [8 * nbytes * s for s in S]

    def pack(self, x: BoolMatrix) -> int:
        nbytes = self._nbytes
        return int.from_bytes(b"".join([r.to_bytes(nbytes, "little") for r in x.rows]), "little")

    def unpack(self, packed: int) -> BoolMatrix:
        nbytes = self._nbytes
        data = packed.to_bytes(self.n * nbytes, "little")
        cut = range(0, len(data), nbytes)
        return BoolMatrix(int.from_bytes(data[i : i + nbytes], "little") for i in cut)

    def first_row(self, packed: int) -> int:
        """Row 1 of the matrix packed."""
        return packed & ((1 << 8 * self._nbytes) - 1)

    def cheaper(self, e: int, ones: int | None = None, conjugate: bool = False) -> bool:
        """Whether e steps of x -> x A, or of X -> A X A^T when conjugate, cost
        less than the product they stand for, whose sparser factor has ones
        ones (None: a dense one).  A step is c = |S| + |T| shifts, 2c for
        A X A^T; a shift costs about n / 8 row selections, and a product about
        n + ones of them, at most n^2 / 8, the tables' cost: counting a lookup
        and OR as half a row selection, the 4-row tables ``_product`` takes
        below order 144 cost n^2 / 8 + 2n, and the 8-row ones n^2 / 16 + 16n,
        both within 1.5 times n^2 / 8 where they are used.  So the steps are
        taken when e c n <= min(8 (n + ones), n^2): e c <= n against a dense
        factor, fewer steps against a sparse one."""
        n = self.n
        product = n * n if ones is None else min(8 * (n + ones), n * n)
        return (e * self._cost << conjugate) * n <= product

    def times(self, packed: int, e: int) -> int:
        """x A^e for x packed."""
        S, T = self.offsets
        for _ in range(e):
            packed = _shift_or(packed, S, T) & self._mask
        return packed

    def conjugate(self, packed: int, e: int) -> int:
        """A^e X (A^T)^e for X packed."""
        S, T = self.offsets
        for _ in range(e):
            packed = _shift_or(_shift_or(packed, T, S), self._up, self._down) & self._mask
        return packed


def _shift_kernel(n: int, offsets: Offsets | None) -> _ShiftKernel | None:
    """The shift kernel of T_n<S;T> for offsets = (S, T), from order 32 on;
    None below it, where row selection on a few rows costs less than
    packing, and when offsets is None or holds no offset."""
    return _ShiftKernel(n, offsets) if n >= 32 and offsets and any(offsets) else None


_NIBBLES = tuple(bytes(b >> s & 15 for b in range(256)) for s in (0, 4))


def _right_multiplier(m: BoolMatrix, width: int = 8) -> Callable[[BoolMatrix], BoolMatrix]:
    """Function computing X @ m for the fixed right factor m, through OR tables
    of 2^width entries per width rows of m, width 4 or 8: a product is
    n * ceil(n/width) lookups, one pass over field c of all X's rows per
    table, regardless of density, after 2^width * ceil(n/width) ORs to build
    the tables.  ``_dense`` says when they beat row selection.
    """
    nbytes = (m.n + 7) // 8
    tables: list[list[int]] = []
    for c in range(0, m.n, width):
        tab = [0]
        for row in m.rows[c : c + width]:
            tab += [v | row for v in tab]
        tables.append(tab)

    def apply(x: BoolMatrix) -> BoolMatrix:
        data = b"".join([r.to_bytes(nbytes, "little") for r in x.rows])
        pieces = [data] if width == 8 else [data.translate(f) for f in _NIBBLES]
        fields = [piece[c::nbytes] for c in range(nbytes) for piece in pieces]
        out = list(map(tables[0].__getitem__, fields[0]))
        for tab, field in zip(tables[1:], fields[1:]):
            out = list(map(or_, out, map(tab.__getitem__, field)))
        return BoolMatrix(out)

    return apply


def _dense(x: BoolMatrix, ones: int | None = None) -> bool:
    """Whether the tables of a right factor beat row selection by x, which
    costs a step per 1 of x: from order 32 on, at a density of about
    16/n + 1/16, derived for 8-row tables (32n ORs to build, n^2 / 8
    lookups, a lookup and OR costing half a step).  The 4-row tables below
    order 144 win from a lower density (about 0.2 at n = 64), so there the
    products between the two keep row selection.  ones = x.count() when the
    caller has it."""
    n = x.n
    return n >= 32 and (x.count() if ones is None else ones) > n * (16 + n // 16)


def _product(x: BoolMatrix, y: BoolMatrix, ones: int | None = None) -> BoolMatrix:
    """x @ y, through y's tables when x is ``_dense``: 4-row tables below
    order 144, where building 8-row ones costs more than the lookups they
    save (measured on dense random factors), 8-row tables from it on.
    ones = x.count() when the caller has it."""
    if not _dense(x, ones):
        return x @ y
    return _right_multiplier(y, 4 if x.n < 144 else 8)(x)


def _power_product(x: BoolMatrix, y: BoolMatrix) -> BoolMatrix:
    """x y for two powers of one matrix.  They commute, so from order 32
    on the sparser goes left, where row selection costs a step per 1;
    below it ``_product`` reads no count, so none is made."""
    if x.n < 32:
        return _product(x, y)
    x_ones, y_ones = x.count(), y.count()
    return _product(y, x, y_ones) if x_ones > y_ones else _product(x, y, x_ones)


class PowerSequence:
    """Memoized Boolean powers base, base^2, base^3, ... of one matrix.

    ``power(m)`` is base^m, power(0) the identity.  Powers grow one
    multiplication by base at a time, each value's first occurrence
    recorded; the first repeat, power b == power a with a < b, closes
    the cycle and gives the least index a and period b - a
    (``cycle()``).  A finite matrix has finitely many powers, so the
    scan always ends.  Later exponents fold into the cycle.

    Powers of one matrix commute, so base^(m+1) = base base^m exactly:
    base goes left, where row selection costs one OR per 1 of it rather
    than per 1 of the denser power, unless base is ``_dense``, when the
    right factor's fixed tables are cheaper; they are 8-row tables, built
    once for every step.  The side is chosen once.
    """

    def __init__(self, base: BoolMatrix):
        self._base = base
        self._step = _right_multiplier(base, 8) if _dense(base) else base.__matmul__
        self._pows: list[BoolMatrix] = [BoolMatrix.identity(base.n), base]
        self._first: dict[BoolMatrix, int] = {base: 1}
        self._cycle: tuple[int, int] | None = None

    @property
    def base(self) -> BoolMatrix:
        return self._base

    def _advance(self) -> None:
        nxt = self._step(self._pows[-1])
        m = len(self._pows)
        seen = self._first.get(nxt)
        if seen is not None:
            self._cycle = (seen, m - seen)
        else:
            self._first[nxt] = m
        self._pows.append(nxt)

    def cycle(self, max_steps: int | None = None) -> tuple[int, int]:
        """(index, period), scanning from power 1; max_steps is accepted and
        not read, because perfbench/tracing.py still passes it."""
        while self._cycle is None:
            self._advance()
        return self._cycle

    def power(self, m: int) -> BoolMatrix:
        if m < 0:
            raise ValueError("negative power")
        while self._cycle is None and m >= len(self._pows):
            self._advance()
        if self._cycle is not None:
            a, p = self._cycle
            if m >= a:
                m = a + (m - a) % p
        return self._pows[m]


def _check_powers(a: BoolMatrix, powers: PowerSequence | None) -> None:
    """Raise ValueError when powers is given and is not the power sequence of a."""
    if powers is not None and powers.base != a:
        raise ValueError("power sequence belongs to a different matrix")
