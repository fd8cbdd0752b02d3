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
from typing import Iterable, Iterator, TYPE_CHECKING

if TYPE_CHECKING:
    from .toeplitz import ToeplitzSpec


class BoolMatrix:
    """Immutable square 0/1 matrix with OR/AND arithmetic.

    Entries are addressed 1-indexed: ``get(i, j)`` is row i, column j
    with 1 <= i, j <= n.  ``rows`` is exposed read-only for callers
    that want to work on the packed integers directly.
    """

    __slots__ = ("n", "rows", "_hash", "_weights")

    def __init__(self, rows: Iterable[int]):
        rows = tuple(rows)
        n = len(rows)
        if rows and (min(rows) < 0 or max(rows) >> n):
            raise ValueError("row value has bits outside column range")
        self.n = n
        self.rows = rows
        self._hash = self._weights = None

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

    def weights(self) -> tuple[int, int, int]:
        """The ones of the lightest row, of the two lightest rows and of all
        rows, counted once, when first read."""
        if self._weights is None:
            w = sorted(map(int.bit_count, self.rows))
            self._weights = sum(w[:1]), sum(w[:2]), sum(w)
        return self._weights

    def count(self) -> int:
        return self.weights()[2]

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
    its column j row n+1-j read backwards, as every power of a Toeplitz A is:
    A^T = T_n<T;S> = J A J, so (A^m)^T = (J A J)^m = J A^m J."""
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


_HELD_MASKS = 8  # keep masks a kernel holds (see _ShiftKernel._masks)


class _ShiftKernel:
    """Matrices of order n held as one integer, for stepping by A = T_n<S;T>.

    Row i is field i of ceil(n / 8) bytes, with no guard band: bits n and up
    of a field stay clear, so packed integers are equal exactly when the
    matrices are, and compare and hash as they do.  Row i of x A is
    OR_s (x_i << s) | OR_t (x_i >> t), masked to n bits, so x -> x A is
    |S| + |T| shifts of all rows at once, each cleared of the bits it carries
    out of their field (``_masks``).  A^T = T_n<T;S>, so X -> X A^T swaps
    those shifts, and row i of A X is OR_s X_(i+s) | OR_t X_(i-t), shifts by
    whole fields and one mask for the rows past n: X -> A X A^T is twice as
    many shifts.  ``cheaper`` is the one rule for steps against a product.
    """

    __slots__ = ("n", "_offsets", "_held", "_cost", "_nbytes", "_keeps", "_unit", "_fields", "_rows")

    def __init__(self, n: int, offsets: Offsets):
        S, T = offsets
        self.n, self._offsets = n, offsets
        self._held = set(sorted({*S, *T})[:_HELD_MASKS])
        self._cost = sum(3 if k in self._held else 5 for k in (*S, *T))  # thirds of a shift
        self._nbytes = (n + 7) // 8
        self._keeps: tuple[list[tuple[int, int]], list[tuple[int, int]]] | None = None

    def _masks(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """S and T as lists of (keep, k) for ``_columns``, made by the first
        step with the row shifts and the one row mask, so a kernel that never
        steps holds none.  keep holds bits 0 .. n - k - 1 of every field, the
        bits a shift left by k keeps before it and a shift right by k after
        it, so one mask serves both directions.  The first ``_HELD_MASKS``
        offsets of S u T hold theirs, enough for the worst family's three and
        for three a side; the others have keep 0 and make theirs at each shift
        from bit 0 of every field, held in their place, so the masks held never
        outgrow a few packed matrices."""
        if self._keeps is None:
            n, width, (S, T) = self.n, 8 * self._nbytes, self._offsets
            unit = int.from_bytes((b"\1" + bytes(self._nbytes - 1)) * n, "little")
            held = {k: (unit << n - k) - unit for k in self._held}
            self._unit = unit if len(held) < len({*S, *T}) else 0
            self._keeps = tuple([(held.get(k, 0), k) for k in ks] for ks in self._offsets)
            self._fields = [width * t for t in T], [width * s for s in S]
            self._rows = (1 << width * n) - 1
        return self._keeps

    def _columns(self, packed: int, left: list[tuple[int, int]], right: list[tuple[int, int]]) -> int:
        """``_shift_or`` of packed by the k of left's and right's (keep, k),
        each shift cleared of the bits it carries out of their field."""
        out, unit, n = 0, self._unit, self.n
        for keep, k in left:
            out |= (packed & (keep or (unit << n - k) - unit)) << k
        for keep, k in right:
            out |= (packed >> k) & (keep or (unit << n - k) - unit)
        return out

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
        ones (None: a dense one).  A step is c shifts, one per offset, 2c when
        conjugate, and a shift moves the n ceil(n / 8) packed bytes three times
        (AND, shift, OR), five when it makes its keep mask, counted in c as 5/3
        of a shift; a product makes about n + ones row selections, at most the
        tables' n^2 / 8 (``_product``).  So the steps are taken when

            e c n ceil(n / 8) <= K min(n + ones, n^2 / 8),

        K = 200 bytes per row selection, e c <= about K against a dense factor
        at every order: README's table of one shift against one dense product
        reads K = 350 to 550 at n = 64 and 160 to 170 at 2,048, and 200 suits
        the large orders, where a step costs most."""
        n = self.n
        product = n * n if ones is None else min(8 * (n + ones), n * n)
        moved = (e * self._cost << conjugate) * n * self._nbytes  # in thirds
        return 8 * moved <= 3 * 200 * product

    def times(self, packed: int, e: int) -> int:
        """x A^e for x packed."""
        S, T = self._masks()
        for _ in range(e):
            packed = self._columns(packed, S, T)
        return packed

    def conjugate(self, packed: int, e: int) -> int:
        """A^e X (A^T)^e for X packed."""
        S, T = self._masks()
        up, down = self._fields
        for _ in range(e):
            packed = _shift_or(self._columns(packed, T, S), up, down) & self._rows
        return packed


# The crossover order: below it a matrix is a few small ints, and row
# selection costs less than packing, tables or counting ones; from it on the
# shift kernel, the OR tables, the sparser-left order, pigeonhole and drops act
_CROSSOVER_ORDER = 32


def _shift_kernel(n: int, offsets: Offsets | None) -> _ShiftKernel | None:
    """The shift kernel of T_n<S;T> for offsets = (S, T); None below the
    crossover order, without offsets, and where one step costs more than a
    dense product, as the cost rule then takes no step."""
    if n < _CROSSOVER_ORDER or not offsets or not any(offsets):
        return None
    kernel = _ShiftKernel(n, offsets)
    return kernel if kernel.cheaper(1) else None


_NIBBLES = tuple(bytes(b >> s & 15 for b in range(256)) for s in (0, 4))


def _product(x: BoolMatrix, y: BoolMatrix) -> BoolMatrix:
    """x @ y, the one product through OR tables: 2^w entries per w rows of y,
    w = 4 below order 144 and 8 from it on, read in one pass over field c of
    all x's rows per table, one table at a time (all n/8 8-row ones would take
    about 4n^2 bytes).  Counting a lookup and OR as half a row selection, the
    4-row tables cost n^2 / 8 + 2n (n^2 / 4 lookups, 4n ORs to build) and the
    8-row ones n^2 / 16 + 16n (n^2 / 8 and 32n) at any density, within 1.5
    times n^2 / 8 where used; below order 144, building 8-row ones costs more
    than the lookups save (dense random factors).  Row selection costs a step
    per 1 of x, so from the crossover order on the tables take an x with more
    than n (16 + n/16) ones, the 8-row cost, a density of about 16/n + 1/16;
    the 4-row tables win from about 0.2 at n = 64, so the products between keep
    row selection."""
    n = x.n
    if n < _CROSSOVER_ORDER or x.count() <= n * (16 + n // 16):
        return x @ y
    width, nbytes = 4 if n < 144 else 8, (n + 7) // 8
    data = b"".join([r.to_bytes(nbytes, "little") for r in x.rows])
    pieces = [data] if width == 8 else [data.translate(f) for f in _NIBBLES]
    fields = (piece[c::nbytes] for c in range(nbytes) for piece in pieces)
    out = [0] * n
    for c, field in zip(range(0, n, width), fields):  # one table held at a time
        tab = [0]
        for row in y.rows[c : c + width]:
            tab += [v | row for v in tab]
        out = list(map(or_, out, map(tab.__getitem__, field)))
    return BoolMatrix(out)


def _power_product(x: BoolMatrix, y: BoolMatrix) -> BoolMatrix:
    """x y for two powers of one matrix.  They commute, so from the crossover
    order on the sparser goes left, where row selection costs a step per 1;
    below it ``_product`` reads no count, so none is made."""
    if x.n >= _CROSSOVER_ORDER and x.count() > y.count():
        x, y = y, x
    return _product(x, y)


class PowerSequence:
    """Memoized Boolean powers base, base^2, base^3, ... of one matrix.

    ``power(m)`` is base^m, power(0) the identity.  Powers grow one
    multiplication by base at a time, each value's first occurrence
    recorded; the first repeat, power b == power a with a < b, closes the
    cycle and gives the least index a and period b - a (``cycle()``), into
    which later exponents fold; a finite matrix has finitely many powers, so
    the scan ends.  Each step is base^(m+1) = base base^m (powers of one
    matrix commute) by row selection alone, one OR per 1 of base, so the
    scan, the ground truth that the lift is held to, reads no OR table.
    """

    def __init__(self, base: BoolMatrix):
        self._base = base
        self._pows: list[BoolMatrix] = [BoolMatrix.identity(base.n), base]
        self._first: dict[BoolMatrix, int] = {base: 1}
        self._cycle: tuple[int, int] | None = None

    @property
    def base(self) -> BoolMatrix:
        return self._base

    def _advance(self) -> None:
        nxt = self._base @ self._pows[-1]
        m = len(self._pows)
        seen = self._first.get(nxt)
        if seen is not None:
            self._cycle = (seen, m - seen)
        else:
            self._first[nxt] = m
        self._pows.append(nxt)

    def cycle(self, max_steps: int | None = None) -> tuple[int, int]:
        """(index, period), scanning from power 1; max_steps is not read
        (tests/test_hygiene.py, UNREAD_HARNESS_SLOTS)."""
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
