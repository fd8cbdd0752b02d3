"""Bit-packed matrix arithmetic against naive tuple-based references."""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from toeplitz_periods import (
    BoolMatrix,
    PowerSequence,
    ToeplitzSpec,
    from_toeplitz,
)
from toeplitz_periods.boolmat import (
    _HELD_MASKS,
    _mirror,
    _product,
    _shift_kernel,
    _ShiftKernel,
    _toeplitz_offsets,
)
from toeplitz_periods.oracle import enumerate_specs

from conftest import (
    PROPERTY,
    j_conjugate,
    naive_from_boolmat,
    naive_multiply,
    naive_toeplitz,
    naive_transpose,
    random_boolmat,
    record_calls,
)


# --------------------------------------------------------------------------
# construction and access
# --------------------------------------------------------------------------


def test_zeros_identity_ones():
    z, e, u = BoolMatrix.zeros(3), BoolMatrix.identity(3), BoolMatrix.ones(3)
    assert z.count() == 0 and e.count() == 3 and u.count() == 9
    assert [e.get(i, i) for i in (1, 2, 3)] == [1, 1, 1]
    assert e.get(1, 2) == 0
    assert list(z.entries()) == []
    assert sorted(e.entries()) == [(1, 1), (2, 2), (3, 3)]


def test_row_validation_rejects_stray_bits():
    with pytest.raises(ValueError):
        BoolMatrix([1, 4])  # bit 2 needs order >= 3
    with pytest.raises(ValueError):
        BoolMatrix([-1, 0])


def test_row_validation_checks_every_row():
    with pytest.raises(ValueError, match="bits outside column range"):
        BoolMatrix([1, 2, 1 << 3])  # only the last row has bit n set
    with pytest.raises(ValueError, match="bits outside column range"):
        BoolMatrix([1, -2, 4])  # a middle row is negative
    assert BoolMatrix([7, 1 << 2, 0]).rows == (7, 4, 0)
    assert BoolMatrix([]).n == 0


def test_from_entries_and_get_bounds():
    a = BoolMatrix.from_entries(3, [(1, 2), (3, 3), (1, 2)])
    assert a.get(1, 2) == 1 and a.get(2, 1) == 0 and a.get(3, 3) == 1
    assert a.count() == 2
    with pytest.raises(ValueError):
        BoolMatrix.from_entries(3, [(0, 1)])
    with pytest.raises(ValueError):
        BoolMatrix.from_entries(3, [(1, 4)])
    with pytest.raises(IndexError):
        a.get(4, 1)
    with pytest.raises(IndexError):
        a.get(1, 0)


def test_entries_round_trip(rng):
    for _ in range(50):
        n = rng.randint(1, 12)
        a = random_boolmat(rng, n)
        assert BoolMatrix.from_entries(n, a.entries()) == a


def test_str_renders_rows():
    a = BoolMatrix.from_entries(2, [(1, 2), (2, 1)])
    assert str(a) == "01\n10"


# --------------------------------------------------------------------------
# arithmetic versus the naive reference
# --------------------------------------------------------------------------


def test_multiply_matches_naive_on_1000_random_matrices(rng):
    for _ in range(1000):
        n = rng.randint(1, 16)
        a, b = random_boolmat(rng, n), random_boolmat(rng, n)
        got = a @ b
        want = naive_multiply(naive_from_boolmat(a), naive_from_boolmat(b))
        assert naive_from_boolmat(got) == want


def test_multiply_order_mismatch():
    two, three = BoolMatrix.zeros(2), BoolMatrix.zeros(3)
    for call in (
        lambda: two @ three,
        lambda: two.and_not(three),
        lambda: two.dominated_by(three),
    ):
        with pytest.raises(ValueError, match="order mismatch"):
            call()


def test_transpose_matches_naive_and_is_involutive(rng):
    for _ in range(100):
        a = random_boolmat(rng, rng.randint(1, 12))
        assert naive_from_boolmat(a.transpose()) == naive_transpose(
            naive_from_boolmat(a)
        )
        assert a.transpose().transpose() == a


def _matrix(data, n: int) -> BoolMatrix:
    return BoolMatrix(data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))


@PROPERTY
@given(st.data())
def test_transpose_matches_naive_at_every_width(data):
    a = _matrix(data, data.draw(st.integers(1, 70)))
    assert naive_from_boolmat(a.transpose()) == naive_transpose(naive_from_boolmat(a))


def test_mirror_is_the_j_conjugate_at_every_order(rng):
    # orders 1..70, most of them not a multiple of 8, so the byte-wise
    # reversal leaves padding bits to drop
    for n in range(1, 71):
        for density in (0.1, 0.5):
            x = random_boolmat(rng, n, density)
            assert _mirror(x) == j_conjugate(x), n
            assert _mirror(_mirror(x)) == x, n


def test_mirror_transposes_the_powers_of_toeplitz_matrices(rng):
    # T_n<S;T>^T = T_n<T;S> = J A J, so every power is persymmetric
    for _ in range(60):
        n = rng.randint(2, 70)
        side = lambda: rng.sample(range(1, n), rng.randint(0, min(3, n - 1)))
        a = from_toeplitz(ToeplitzSpec(n, side(), side()))
        for m in (1, 2, 3, rng.randint(4, 3 * n)):
            x = a.power(m)
            assert _mirror(x) == x.transpose(), (n, m)


def test_mirror_is_not_the_transpose_of_a_matrix_that_is_not_persymmetric():
    # J x J moves entry (i, j) to (n + 1 - i, n + 1 - j), the transpose to (j, i)
    x = BoolMatrix.from_entries(3, [(1, 2)])
    assert _mirror(x) == BoolMatrix.from_entries(3, [(3, 2)])
    assert x.transpose() == BoolMatrix.from_entries(3, [(2, 1)])


@PROPERTY
@given(st.data())
def test_product_kernels_match_naive(data):
    # row selection and _product's density-based choice of y's 4-row tables
    # (from order 32 on), on orders around that threshold; x | z, of density
    # about 0.75, clears the density rule from order 32 on, x, of density
    # about 0.5, from about order 36
    n = data.draw(st.integers(24, 40))
    x, y, z = _matrix(data, n), _matrix(data, n), _matrix(data, n)
    for left in (x, BoolMatrix(map(int.__or__, x.rows, z.rows))):
        want = naive_multiply(naive_from_boolmat(left), naive_from_boolmat(y))
        for got in (left @ y, _product(left, y)):
            assert naive_from_boolmat(got) == want


def test_transpose_product_law(rng):
    for _ in range(50):
        n = rng.randint(1, 10)
        a, b = random_boolmat(rng, n), random_boolmat(rng, n)
        assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_associativity_sample(rng):
    for _ in range(50):
        n = rng.randint(1, 10)
        a, b, c = (random_boolmat(rng, n) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)


def test_or_and_not_dominated(rng):
    for _ in range(50):
        n = rng.randint(1, 10)
        a, b = random_boolmat(rng, n), random_boolmat(rng, n)
        u = BoolMatrix(map(int.__or__, a.rows, b.rows))
        assert a.dominated_by(u) and b.dominated_by(u)
        assert u.and_not(b).dominated_by(a)
        assert u.and_not(a).dominated_by(b)
        assert u.and_not(a).and_not(b).count() == 0
    assert BoolMatrix.identity(3).dominated_by(BoolMatrix.ones(3))
    assert not BoolMatrix.ones(3).dominated_by(BoolMatrix.identity(3))


def test_power_by_squaring_matches_iterated_multiply(rng):
    for _ in range(20):
        n = rng.randint(1, 10)
        a = random_boolmat(rng, n)
        cur = BoolMatrix.identity(n)
        for m in range(8):
            assert a.power(m) == cur
            cur = cur @ a
    with pytest.raises(ValueError):
        BoolMatrix.identity(2).power(-1)


def test_equality_and_hash_semantics():
    a = BoolMatrix.from_entries(3, [(1, 2)])
    b = BoolMatrix.from_entries(3, [(1, 2)])
    c = BoolMatrix.from_entries(3, [(2, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != "not a matrix"
    # matrices of different orders are never equal, even both all-zero
    assert BoolMatrix.zeros(3) != BoolMatrix.zeros(4)
    d = {a: 1}
    assert d[b] == 1 and c not in d


# --------------------------------------------------------------------------
# Toeplitz construction
# --------------------------------------------------------------------------


def test_from_toeplitz_matches_naive_exhaustively():
    for n in range(2, 6):
        for spec in enumerate_specs(n):
            assert naive_from_boolmat(from_toeplitz(spec)) == naive_toeplitz(
                n, set(spec.S), set(spec.T)
            )


def test_from_toeplitz_matches_naive_with_empty_sides_exhaustively():
    # every offset set, empty ones included, up to order 6
    for n in range(2, 7):
        sides = [
            [v for v in range(1, n) if mask >> (v - 1) & 1] for mask in range(1 << (n - 1))
        ]
        for S in sides:
            for T in sides:
                got = from_toeplitz(ToeplitzSpec(n, S, T))
                assert naive_from_boolmat(got) == naive_toeplitz(n, set(S), set(T))


def test_from_toeplitz_empty_sides():
    spec = ToeplitzSpec(3, (), ())
    assert from_toeplitz(spec) == BoolMatrix.zeros(3)
    one_sided = from_toeplitz(ToeplitzSpec(3, (1,), ()))
    assert sorted(one_sided.entries()) == [(1, 2), (2, 3)]


# --------------------------------------------------------------------------
# OR tables of a fixed right factor, through _product, and row selection
# --------------------------------------------------------------------------


def _tables_only(monkeypatch, x: BoolMatrix, y: BoolMatrix) -> BoolMatrix:
    """_product(x, y) with row selection disabled, so only y's tables can make it."""
    with monkeypatch.context() as patch:
        patch.setattr(BoolMatrix, "__matmul__", lambda *_: pytest.fail("row selection"))
        return _product(x, y)


@pytest.mark.parametrize("n", [5, 31, 32, 40, 100])
def test_product_tables_agree_with_matmul(n, rng, monkeypatch):
    # left factors of density 0.75: row selection below order 32, the right
    # factor's 4-row tables from it on
    m = random_boolmat(rng, n)
    for _ in range(5):
        x = random_boolmat(rng, n, 0.75)
        want = x @ m
        assert (_tables_only(monkeypatch, x, m) if n >= 32 else _product(x, m)) == want


@pytest.mark.parametrize(
    "orders", [range(32, 71), range(127, 130), range(159, 162), range(255, 258)], ids=str
)
def test_product_tables_at_both_widths_equal_matmul(orders, rng, monkeypatch):
    # _product reads each byte as two nibbles into 16-entry tables per 4 rows
    # below order 144 and whole into 256-entry tables per 8 rows from it on;
    # orders on both sides of a multiple of 4 and 8 leave a short last table.
    # The left factors, all ones and random at density 0.8, clear the
    # density rule, so the tables make every product
    for n in orders:
        special = [BoolMatrix.zeros(n), BoolMatrix.identity(n), BoolMatrix.ones(n)]
        lefts = [BoolMatrix.ones(n), random_boolmat(rng, n, 0.8)]
        for right in (*special, random_boolmat(rng, n, 0.5)):
            for left in lefts:
                assert _tables_only(monkeypatch, left, right) == left @ right, n


# --------------------------------------------------------------------------
# shift kernel for a Toeplitz factor, against the row-selection product
# --------------------------------------------------------------------------


@st.composite
def shift_cases(draw):
    """(T_n<S;T>, x, e, stray) with 2 <= n <= 70, up to three offsets a side and
    at most one side empty, n - 1 (the widest spill) drawn often, a random x,
    0 <= e <= 3 steps, and a 0-indexed entry off the one-entry corner diagonals."""
    n = draw(st.integers(2, 70))
    offset = st.one_of(st.just(n - 1), st.integers(1, n - 1))
    S = draw(st.sets(offset, max_size=3))
    T = draw(st.sets(offset, min_size=0 if S else 1, max_size=3))
    x = BoolMatrix(draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
    stray = draw(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda ij: abs(ij[0] - ij[1]) < n - 1
        )
    )
    return ToeplitzSpec(n, S, T), x, draw(st.integers(0, 3)), stray


def _case(n, S, T, e, stray=(0, 0)):
    return ToeplitzSpec(n, S, T), BoolMatrix.ones(n), e, stray


@PROPERTY
@given(shift_cases())
@example(_case(2, (1,), (), 3))  # order 2, one side empty, offset n - 1
@example(_case(2, (), (1,), 2, (1, 1)))
@example(_case(70, (69,), (3,), 3, (5, 6)))  # order not a multiple of 8, offset n - 1
@example(_case(40, (24,), (1, 2), 3, (0, 1)))  # n fills whole bytes
@example(_case(33, (), (4, 32), 1, (32, 28)))
def test_shift_steps_match_the_products(case):
    spec, x, e, (i, j) = case
    a = from_toeplitz(spec)
    offsets = _toeplitz_offsets(a)
    assert offsets == (spec.S, spec.T)
    kernel = _ShiftKernel(spec.n, offsets)
    packed = kernel.pack(x)
    assert kernel.unpack(packed) == x
    times = x @ a.power(e)
    assert kernel.unpack(kernel.times(packed, e)) == times
    assert kernel.unpack(kernel.conjugate(packed, e)) == a.power(e) @ x @ a.transpose().power(e)
    # packed integers are equal exactly when the matrices are
    for y in (times, a, BoolMatrix(r ^ 1 if row == i else r for row, r in enumerate(x.rows))):
        assert (kernel.pack(y) == packed) == (y == x)
    assert kernel.times(packed, e) == kernel.pack(times)
    # one flipped entry breaks a diagonal of two or more entries
    stray = BoolMatrix(r ^ (1 << j) if row == i else r for row, r in enumerate(a.rows))
    assert _toeplitz_offsets(stray) is None
    assert _shift_kernel(spec.n, _toeplitz_offsets(stray)) is None
    assert (_shift_kernel(spec.n, offsets) is None) == (spec.n < 32)


@pytest.mark.parametrize("n", [32, 33, 39, 40, 63, 64, 65, 127, 128, 129])
def test_shift_steps_equal_the_products_on_both_sides_of_a_byte_boundary(n):
    # fields of ceil(n / 8) bytes and no guard band: offsets 1 and n - 1 on
    # both sides carry bits 1 and n of every third row of x out of their
    # field, so each step must clear what it spills, and A X A^T must drop
    # the rows its shifts push past n.  The second offsets are more than the
    # kernel holds keep masks for, so the others make theirs at each shift.
    # @ is the naive twin
    rng = random.Random(n)
    edges = 1 | 1 << (n - 1)
    x = BoolMatrix(
        rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) | edges * (i % 3 == 0)
        for i in range(n)
    )
    many = (*range(1, n, 4), n - 1), (*range(2, n, 7), n - 1)
    assert len({*many[0], *many[1]}) > _HELD_MASKS
    for S, T in (((1, n - 1), (1, n - 1)), many):
        a = from_toeplitz(ToeplitzSpec(n, S, T))
        at = a.transpose()
        kernel = _ShiftKernel(n, (S, T))
        packed, times, conjugate = kernel.pack(x), x, x
        for e in (1, 2):
            times, conjugate = times @ a, a @ conjugate @ at
            assert kernel.times(packed, e) == kernel.pack(times), (n, S, e)
            assert kernel.conjugate(packed, e) == kernel.pack(conjugate), (n, S, e)


def test_cost_rule_prices_steps_by_the_bytes_they_move():
    # c = 2 at n = 32, fields of 4 bytes: e c n ceil(n / 8) <= K min(n + ones,
    # n^2 / 8) with K = 200, so e c <= 200 against a dense factor
    kernel = _ShiftKernel(32, ((1,), (2,)))
    assert kernel.cheaper(100) and not kernel.cheaper(101)
    assert kernel.cheaper(50, conjugate=True) and not kernel.cheaper(51, conjugate=True)
    assert kernel.cheaper(50, 32) and not kernel.cheaper(50, 31)
    assert kernel.cheaper(100, 96) and not kernel.cheaper(101, 10**6)
    # a field is whole bytes: at n = 33 one more per row, e c <= 165
    kernel = _ShiftKernel(33, ((1,), (2,)))
    assert kernel.cheaper(82) and not kernel.cheaper(83)
    # a shift whose keep mask is not held makes it, and counts 5/3: S = T =
    # {1, ..., m} holds 8 masks, so c = 16 + (10/3)(m - 8)
    assert _HELD_MASKS == 8
    side = lambda m: tuple(range(1, m + 1))
    kernel = _ShiftKernel(32, (side(12), side(12)))
    assert kernel.cheaper(6) and not kernel.cheaper(7)  # c = 29.3, e c <= 200
    # where one step costs more than a dense product there is no kernel: at
    # n = 512, c n ceil(n / 8) <= K n^2 / 8 holds for c <= 200
    assert _shift_kernel(512, (side(63), side(63))) is not None  # c = 199.3
    assert _shift_kernel(512, (side(63), side(64))) is None  # c = 201
    assert _shift_kernel(512, (side(200), side(200))) is None


def test_offsets_need_a_toeplitz_matrix_with_offsets_and_no_diagonal():
    for n in (1, 2, 5, 40):
        assert _toeplitz_offsets(BoolMatrix.zeros(n)) is None
        assert _toeplitz_offsets(BoolMatrix.identity(n)) is None
    assert _toeplitz_offsets(BoolMatrix.ones(3)) is None
    assert _shift_kernel(40, ((), ())) is None
    assert _toeplitz_offsets(BoolMatrix([2, 4, 0])) == ((1,), ())
    # the corner (1, n) is a diagonal of one entry: setting it adds offset n - 1
    assert _toeplitz_offsets(BoolMatrix([2 | 4, 4, 0])) == ((1, 2), ())


# --------------------------------------------------------------------------
# power sequence: memoized powers, cycle detection
# --------------------------------------------------------------------------


def test_power_sequence_matches_squaring(rng):
    for _ in range(30):
        n = rng.randint(2, 10)
        a = random_boolmat(rng, n, density=0.3)
        ps = PowerSequence(a)
        assert ps.base is a
        for m in range(0, 12):
            assert ps.power(m) == a.power(m)


def test_power_sequence_folds_large_exponents():
    a = from_toeplitz(ToeplitzSpec(4, (1,), (1,)))
    ps = PowerSequence(a)
    index, period = ps.cycle()
    assert (index, period) == (2, 2)
    steps_after_cycle = len(ps._pows)
    # exponents far past the cycle reuse stored powers, no new multiplies
    assert ps.power(10**9) == a.power(index + (10**9 - index) % period)
    assert len(ps._pows) == steps_after_cycle
    with pytest.raises(ValueError):
        ps.power(-1)
    assert PowerSequence(from_toeplitz(ToeplitzSpec(6, (1,), (1,)))).cycle() == (4, 2)


def scan_matches_squaring(ps: PowerSequence, every: int = 1) -> tuple[int, int]:
    """Hold the scan ps to BoolMatrix.power at every exponent-th exponent up
    to index + period, and at index and index + period; return (index, period)."""
    index, period = ps.cycle()
    for m in sorted({*range(0, index + period + 1, every), index, index + period}):
        assert ps.power(m) == ps.base.power(m), m
    return index, period


def test_scan_matches_squaring_on_every_small_descriptor():
    # the scan steps A^(m+1) = A A^m, row selection by the sparse A
    for n in range(2, 7):
        for spec in enumerate_specs(n):
            scan_matches_squaring(PowerSequence(from_toeplitz(spec)))


def test_scan_matches_squaring_on_the_worst_index_at_order_64():
    # every exponent: each scanned power, A A^(m-1), is A^(m-1) A, the product
    # on the other side, so by induction from A^1 it is A^m; BoolMatrix.power
    # at all 3,970 would take seconds, so it is held to every 64th exponent.
    # Both twins read the one scan.  The dense A^(m-1) clear _product's
    # density rule, so A^(m-1) A goes through A's OR tables, which the scan
    # never reads, at about a third of the time of row selection
    a = from_toeplitz(ToeplitzSpec(64, (1,), (62, 63)))
    ps = PowerSequence(a)
    assert scan_matches_squaring(ps, every=64) == (63**2, 1)
    assert ps.power(1) == a
    for m in range(2, 63**2 + 2):
        assert ps.power(m) == _product(ps.power(m - 1), a), m


@pytest.mark.parametrize(
    "n, density, upper", [(40, 0.6, False), (64, 0.45, False), (40, 0.97, True), (64, 0.97, True)]
)
def test_scan_matches_squaring_on_a_dense_base(n, density, upper, rng):
    # a base that is not Toeplitz and dense enough for _product's tables is
    # scanned by row selection all the same.  A random one is all ones from
    # its square on; one above the diagonal alone is nilpotent, so its scan
    # runs through about n powers to the zero matrix
    a = random_boolmat(rng, n, density)
    if upper:
        a = BoolMatrix(row & -(2 << i) for i, row in enumerate(a.rows))
    assert a.count() > n * (16 + n // 16) and _toeplitz_offsets(a) is None
    index, period = scan_matches_squaring(PowerSequence(a))
    assert (index > n // 2) == upper


@pytest.mark.parametrize("n", [40, 64])
def test_scan_of_a_dense_base_makes_one_row_selection_per_step(n, rng, monkeypatch):
    # the ground truth reads no OR table: each step is one BoolMatrix.__matmul__
    # with the base on the left, however dense the base
    a = random_boolmat(rng, n, 0.97)
    a = BoolMatrix(row & -(2 << i) for i, row in enumerate(a.rows))
    assert a.count() > n * (16 + n // 16) and _toeplitz_offsets(a) is None
    calls = record_calls(monkeypatch, (BoolMatrix, "__matmul__"))
    ps = PowerSequence(a)
    index, period = ps.cycle()
    lefts = [x for x, _ in calls.args["__matmul__"]]
    assert index > n // 2 and lefts == [a] * (index + period - 1)
