"""Exact linear algebra over Q and F_p."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taumut import linalg
from taumut.errors import DimensionMismatchError, FieldMismatchError
from taumut.linalg import (
    QQ,
    Mat,
    PrimeField,
    _rref_rows,
    block_diag,
    extend_span,
    hstack,
    is_prime,
    kernel_basis,
    reduce_row,
    row_space,
    vstack,
)

from conftest import det, solve

F5 = PrimeField(5)

entries = st.integers(min_value=-6, max_value=6)


def _mats(max_dim: int = 4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(FieldMismatchError):
        PrimeField(4)
    with pytest.raises(FieldMismatchError):
        PrimeField(1)


def test_is_prime_matches_sympy_up_to_ten_to_the_five():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(-5, 10**5 + 1) if is_prime(n)] == [
        n for n in range(-5, 10**5 + 1) if sympy.isprime(n)
    ]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**12))
def test_is_prime_matches_sympy_below_ten_to_the_twelve(n):
    sympy = pytest.importorskip("sympy")
    assert is_prime(n) == sympy.isprime(n)


# the least strong pseudoprimes to the first k prime bases, k = 1..13 (some k
# share one); the last is the bound of the exact range
STRONG_PSEUDOPRIMES = [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
]
CARMICHAEL = [561, 1105, 1729]
MERSENNE = [2**61 - 1, 2**89 - 1]


def test_is_prime_on_pseudoprimes_and_the_fallback_bound(monkeypatch):
    sympy = pytest.importorskip("sympy")
    reference = sympy.isprime
    asked = []

    def recording_isprime(n):
        asked.append(n)
        return reference(n)

    monkeypatch.setattr(sympy, "isprime", recording_isprime)
    numbers = STRONG_PSEUDOPRIMES + CARMICHAEL + MERSENNE
    verdicts = [is_prime(n) for n in numbers]
    # only the numbers at or above the bound reach sympy
    assert asked == [3317044064679887385961981, 2**89 - 1]
    assert verdicts == [reference(n) for n in numbers]
    assert verdicts == [False] * 13 + [True, True]
    for n in STRONG_PSEUDOPRIMES + CARMICHAEL:
        with pytest.raises(FieldMismatchError, match="is not a prime"):
            PrimeField(n)
    assert PrimeField(2**61 - 1).p == 2**61 - 1


def test_prime_field_inverse():
    f = PrimeField(7)
    for a in range(1, 7):
        assert f.mul(a, f.inv(a)) == 1


def test_rational_entries_stay_fractions():
    m = Mat(QQ, [[Fraction(1, 3), 2], [0, Fraction(-5, 7)]])
    assert all(isinstance(x, Fraction) for row in m.rows for x in row)
    assert m[0, 0] + m[1, 1] == Fraction(7, 21) - Fraction(5, 7) + 0


def test_mixed_field_operations_rejected():
    a = Mat(QQ, [[1]])
    b = Mat(F5, [[1]])
    with pytest.raises(FieldMismatchError):
        a.add(b)


def test_matmul_shape_guard():
    a = Mat(QQ, [[1, 2]])
    with pytest.raises(DimensionMismatchError):
        a.mul(a)


def test_public_constructor_refuses_ragged_rows_and_a_wrong_width():
    with pytest.raises(DimensionMismatchError, match="ragged rows"):
        Mat(QQ, [[1, 2], [3]])
    with pytest.raises(DimensionMismatchError, match="ncols disagrees"):
        Mat(QQ, [[1, 2], [3, 4]], ncols=3)
    assert Mat(F5, [[7, "1/2"]], ncols=2).rows == ((2, 3),)


def _reduced(m):
    """_rref_rows on a matrix: (rank, the reduced rows as a matrix, pivots)."""
    rank_, rows, pivots = _rref_rows(m.field, [list(r) for r in m.rows])
    return rank_, Mat._of(m.field, rows, m.ncols), pivots


def test_rref_known_matrix():
    m = Mat(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    rank_, reduced, pivots = _reduced(m)
    assert rank_ == 2
    assert pivots == (0, 1)
    # re-reducing is a no-op
    assert _reduced(reduced)[1] == reduced
    assert row_space(m) == (Mat(QQ, reduced.rows[:2]), (0, 1))


def test_empty_matrix_width_is_kept():
    m = Mat.zeros(QQ, 0, 3)
    assert (m.nrows, m.ncols) == (0, 3)
    assert m.transpose().nrows == 3
    assert (m.transpose().ncols, m.transpose().transpose()) == (0, m)


def test_stacking():
    a = Mat(QQ, [[1, 2]])
    b = Mat(QQ, [[3, 4]])
    assert vstack(QQ, [a, b]).rows == ((1, 2), (3, 4))
    assert hstack(QQ, [a, b]).rows == ((1, 2, 3, 4),)
    d = block_diag(QQ, [a, b])
    assert (d.nrows, d.ncols) == (2, 4)
    assert d[0, 2] == 0 and d[1, 0] == 0


def _filled(field, nrows, ncols, start=1):
    """The nrows x ncols matrix with entries start, start + 1, ... by rows."""
    return Mat(field, [[start + i * ncols + j for j in range(ncols)] for i in range(nrows)], ncols=ncols)


def _same(got, ref):
    assert (got, got.nrows, got.ncols, hash(got)) == (ref, ref.nrows, ref.ncols, hash(ref))


SHAPES = list(itertools.product(range(4), repeat=2))


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_each_shape_has_one_shared_zero_matrix(field):
    for r, c in SHAPES:
        z = Mat.zeros(field, r, c)
        assert z is Mat.zeros(field, r, c)
        _same(z, Mat(field, [[0] * c] * r, ncols=c))
        if 0 in (r, c):
            assert Mat._of(field, [[field.zero()] * c] * r, c) is z


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_empty_operands_give_the_general_result(field):
    # Products, transposes, stacks and block sums of every shape up to 3x3,
    # against the entries written out and passed to the public constructor.
    for r, k, c in itertools.product(range(4), repeat=3):
        a, b = _filled(field, r, k), _filled(field, k, c, start=20)
        if 0 in (r, k, c):
            _same(a.mul(b), Mat(field, [[0] * c] * r, ncols=c))
        x, y = _filled(field, r, c), _filled(field, r, k, start=20)
        wide = hstack(field, [x, Mat.zeros(field, r, 0), y])
        _same(wide, Mat(field, [p + q for p, q in zip(x.rows, y.rows)], ncols=c + k))
        x, y = _filled(field, r, c), _filled(field, k, c, start=20)
        _same(vstack(field, [x, Mat.zeros(field, 0, c), y]), Mat(field, x.rows + y.rows, ncols=c))
    for r, c in SHAPES:
        m = _filled(field, r, c)
        _same(m.transpose(), Mat(field, [[m[i, j] for i in range(r)] for j in range(c)], ncols=r))
        # a lone operand that is not empty is handed back as it is
        assert hstack(field, [Mat.zeros(field, r, 0), m]) is (m if c else Mat.zeros(field, r, 0))
        assert vstack(field, [m, Mat.zeros(field, 0, c)]) is (m if r else Mat.zeros(field, 0, c))
    for (r1, c1), (r2, c2) in itertools.product(SHAPES, repeat=2):
        x, y = _filled(field, r1, c1), _filled(field, r2, c2, start=20)
        ref = [list(row) + [0] * c2 for row in x.rows] + [[0] * c1 + list(row) for row in y.rows]
        _same(block_diag(field, [x, y]), Mat(field, ref, ncols=c1 + c2))
        if (r2, c2) == (0, 0) and r1 and c1:
            assert block_diag(field, [x, y]) is x


def test_solve_inconsistent_returns_none():
    m = Mat(QQ, [[1, 1], [1, 1]])
    rhs = Mat(QQ, [[1], [2]])
    assert solve(m, rhs) is None


def test_det_examples():
    assert det(Mat(QQ, [[2, 0], [1, 3]])) == 6
    assert det(Mat(QQ, [[1, 2], [2, 4]])) == 0
    assert det(Mat(F5, [[2, 0], [0, 3]])) == 1


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=_mats())
def test_solve_result_actually_solves(field, rows):
    m = Mat(field, rows)
    rhs = m.mul(Mat(field, [[1]] * m.ncols))
    x = solve(m, rhs)
    assert x is not None
    assert m.mul(x) == rhs


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=_mats())
def test_kernel_vectors_multiply_to_zero(field, rows):
    m = Mat(field, rows)
    rank_ = len(row_space(m)[1])
    ker, free_cols = kernel_basis(m)
    assert ker.nrows == len(free_cols) == m.ncols - rank_
    assert m.mul(ker.transpose()).is_zero()
    left = kernel_basis(m.transpose())[0]
    assert left.nrows == m.nrows - rank_
    assert left.mul(m).is_zero()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=_mats())
def test_rank_is_transpose_invariant(rows):
    m = Mat(QQ, rows)
    assert len(row_space(m)[1]) == len(row_space(m.transpose())[1])


# -- the field kernels against a textbook reference --------------------------

FIELDS = [QQ, PrimeField(2), PrimeField(3), F5, PrimeField(32003)]
FIELD_IDS = ["Q", "F2", "F3", "F5", "F32003"]


def _entries(field):
    """Entries with real denominators over Q; small values and arbitrary
    residues over F_p, so that both singular and generic matrices occur."""
    if field == QQ:
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.integers(-3, 3) | st.integers(0, field.p - 1)


def _shaped(field, nrows, ncols):
    return st.lists(
        st.lists(_entries(field), min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    ).map(lambda rows: Mat(field, rows, ncols=ncols))


def _field_mats(field, max_dim: int = 4):
    """Matrices of every shape up to max_dim, 0xn and nx0 included."""
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim)).flatmap(
        lambda shape: _shaped(field, *shape)
    )


def _naive_rref(field, rows, ncols):
    """Textbook Gauss-Jordan on plain Fraction or mod-p arithmetic."""
    p = field.characteristic()
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        if p:
            rows[r] = [x * pow(lead, p - 2, p) % p for x in rows[r]]
        else:
            rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                if p:
                    rows[i] = [x % p for x in rows[i]]
        pivots.append(c)
    return len(pivots), rows, tuple(pivots)


def _naive_solution(field, m, rhs):
    """The free-variables-zero solution of m x = rhs read off the naive rref."""
    aug = [list(a) + list(b) for a, b in zip(m.rows, rhs.rows)]
    _, rows, pivots = _naive_rref(field, aug, m.ncols + rhs.ncols)
    if any(c >= m.ncols for c in pivots):
        return None
    out = [[field.zero()] * rhs.ncols for _ in range(m.ncols)]
    for r, c in enumerate(pivots):
        out[c] = rows[r][m.ncols :]
    return out


def _assert_canonical_entries(m):
    for row in m.rows:
        for x in row:
            if m.field == QQ:
                assert type(x) is Fraction and x.denominator > 0
            else:
                assert type(x) is int and 0 <= x < m.field.p


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_matches_naive_gauss_jordan(field, data):
    m = data.draw(_field_mats(field))
    got_rank, reduced, got_pivots = _reduced(m)
    rank_, rows, pivots = _naive_rref(field, m.rows, m.ncols)
    assert (got_rank, got_pivots) == (rank_, pivots)
    assert reduced.rows == tuple(map(tuple, rows))
    assert (reduced.nrows, reduced.ncols) == (m.nrows, m.ncols)
    assert all(any(row) for row in reduced.rows[:rank_])
    assert not any(any(row) for row in reduced.rows[rank_:])
    _assert_canonical_entries(reduced)
    # row_space keeps the first rank rows and their pivots
    basis, basis_pivots = row_space(m)
    assert basis_pivots == pivots
    assert basis.rows == tuple(map(tuple, rows[:rank_]))
    assert (basis.nrows, basis.ncols) == (rank_, m.ncols)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_solve_matches_naive(field, data):
    m = data.draw(_field_mats(field))
    rhs = data.draw(_shaped(field, m.nrows, data.draw(st.integers(0, 2))))
    x = solve(m, rhs)
    expected = _naive_solution(field, m, rhs)
    if expected is None:
        assert x is None
        return
    assert x.rows == tuple(map(tuple, expected))
    assert (x.nrows, x.ncols) == (m.ncols, rhs.ncols)
    assert m.mul(x) == rhs
    _assert_canonical_entries(x)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_basis_matches_naive(field, data):
    m = data.draw(_field_mats(field))
    _, rows, pivots = _naive_rref(field, m.rows, m.ncols)
    free = tuple(c for c in range(m.ncols) if c not in pivots)
    expected = []
    for fc in free:
        vec = [field.zero()] * m.ncols
        vec[fc] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(rows[r][fc])
        expected.append(tuple(vec))
    ker, free_cols = kernel_basis(m)
    assert free_cols == free
    assert ker.rows == tuple(expected)
    assert (ker.nrows, ker.ncols) == (len(free), m.ncols)
    _assert_canonical_entries(ker)
    assert m.mul(ker.transpose()).is_zero()
    # restricted to its free columns the basis is the identity, so the
    # coordinates of a kernel vector are its entries there
    one, zero = field.one(), field.zero()
    assert [[row[c] for c in free] for row in ker.rows] == [
        [one if i == j else zero for j in range(len(free))] for i in range(len(free))
    ]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_mul_matches_triple_sum(field, data):
    a = data.draw(_field_mats(field))
    b = data.draw(_shaped(field, a.ncols, data.draw(st.integers(0, 4))))
    p = field.characteristic()
    expected = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            total = sum(a[i, k] * b[k, j] for k in range(a.ncols))
            row.append(total % p if p else Fraction(total))
        expected.append(tuple(row))
    prod = a.mul(b)
    assert prod.rows == tuple(expected)
    assert (prod.nrows, prod.ncols) == (a.nrows, b.ncols)
    _assert_canonical_entries(prod)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_entrywise_ops_and_reduce_row(field, data):
    a = data.draw(_field_mats(field))
    b = data.draw(_shaped(field, a.nrows, a.ncols))
    c = data.draw(_entries(field))
    p = field.characteristic()

    def canon(rows):
        return tuple(tuple(x % p if p else x for x in row) for row in rows)

    pairs = [list(zip(ra, rb)) for ra, rb in zip(a.rows, b.rows)]
    assert a.add(b).rows == canon([[x + y for x, y in row] for row in pairs])
    assert a.sub(b).rows == canon([[x - y for x, y in row] for row in pairs])
    assert a.neg().rows == canon([[-x for x in row] for row in a.rows])
    cc = field.coerce(c)
    assert a.scale(c).rows == canon([[cc * x for x in row] for row in a.rows])
    for out in (a.add(b), a.sub(b), a.neg(), a.scale(c)):
        _assert_canonical_entries(out)
    assert a.is_zero() == all(x == 0 for row in a.rows for x in row)
    # reduce_row leaves a row's residue modulo the rref row space: zero in
    # every pivot column, and the row minus the residue lies in the span.
    span, pivots = row_space(b)
    basis = span.rows
    for row in a.rows:
        resid = reduce_row(field, row, basis, pivots)
        assert all(resid[c] == 0 for c in pivots)
        diff = Mat(field, [row], ncols=a.ncols).sub(Mat(field, [resid], ncols=a.ncols))
        assert len(row_space(vstack(field, [span, diff]))[1]) == len(pivots)
        _assert_canonical_entries(Mat._of(field, [resid], a.ncols))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_extend_span_grows_exactly_when_rank_grows(field, data):
    m = data.draw(_field_mats(field, max_dim=5))
    rows, pivots = [], []
    for k, row in enumerate(m.rows):
        before = len(row_space(Mat(field, m.rows[:k], ncols=m.ncols))[1])
        after = len(row_space(Mat(field, m.rows[: k + 1], ncols=m.ncols))[1])
        assert extend_span(field, rows, pivots, row) == (after > before)
        assert len(rows) == len(pivots) == after
    # Each kept row has a 1 at its pivot and 0 at the earlier pivots, so
    # reducing in insertion order clears every pivot: each row of m
    # reduces to zero.
    for i, (row, c) in enumerate(zip(rows, pivots)):
        assert row[c] == field.one()
        assert all(row[b] == 0 for b in pivots[:i])
    for row in m.rows:
        assert not any(reduce_row(field, row, rows, pivots))
    _assert_canonical_entries(Mat._of(field, rows, m.ncols))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_row_less_eliminations_are_not_run(field, monkeypatch):
    def refuse(field, rows):
        raise AssertionError("eliminated a matrix with no rows")

    monkeypatch.setattr(linalg, "_rref_rows", refuse)
    for ncols in (0, 3):
        m = Mat.zeros(field, 0, ncols)
        assert row_space(m) == (Mat.zeros(field, 0, ncols), ())
        assert kernel_basis(m) == (Mat.identity(field, ncols), tuple(range(ncols)))


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_zero_matrices_are_not_eliminated(field, monkeypatch):
    # The answers read off the elimination of an all-zero matrix, then the
    # same answers with no elimination.
    shapes = [(1, 1), (2, 3), (4, 2), (3, 5)]
    eliminated = []
    for nrows, ncols in shapes:
        rank_, reduced, pivots = _reduced(Mat.zeros(field, nrows, ncols))
        assert (rank_, pivots) == (0, ())
        basis = Mat._of(field, reduced.rows[:rank_], ncols)
        free = tuple(c for c in range(ncols) if c not in pivots)
        ker = Mat(field, [[int(c == fc) for c in range(ncols)] for fc in free], ncols=ncols)
        eliminated.append(((basis, pivots), (ker, free)))

    def refuse(field, rows):
        raise AssertionError("eliminated an all-zero matrix")

    monkeypatch.setattr(linalg, "_rref_rows", refuse)
    for (nrows, ncols), (span, ker) in zip(shapes, eliminated):
        m = Mat.zeros(field, nrows, ncols)
        assert row_space(m) == span
        assert kernel_basis(m) == ker


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_kernel_edge_cases(field):
    one = field.one()
    for nrows, ncols in [(0, 3), (3, 0), (0, 0)]:
        m = Mat.zeros(field, nrows, ncols)
        rank_, reduced, pivots = _reduced(m)
        assert (rank_, pivots) == (0, ())
        assert (reduced.nrows, reduced.ncols) == (nrows, ncols)
        assert row_space(m) == (Mat.zeros(field, 0, ncols), ())
        ker, free_cols = kernel_basis(m)
        assert (ker.nrows, free_cols) == (ncols, tuple(range(ncols)))
        assert m.mul(Mat.zeros(field, ncols, 2)) == Mat.zeros(field, nrows, 2)
        assert Mat.zeros(field, 2, nrows).mul(m) == Mat.zeros(field, 2, ncols)
    zero = Mat.zeros(field, 3, 4)
    rank_, reduced, pivots = _reduced(zero)
    assert (rank_, pivots, reduced) == (0, (), zero)
    _assert_canonical_entries(reduced)
    assert kernel_basis(zero)[0] == Mat.identity(field, 4)
    assert solve(zero, Mat.zeros(field, 3, 1)) == Mat.zeros(field, 4, 1)
    assert solve(zero, Mat(field, [[1], [0], [0]])) is None
    for value, expected_rank in [(0, 0), (1, 1), (2, 1), (-1, 1)]:
        m = Mat(field, [[value]])
        rank_, reduced, _ = _reduced(m)
        if field.is_zero(m[0, 0]):
            expected_rank = 0
        assert rank_ == expected_rank
        assert reduced.rows == (((one,),) if expected_rank else ((field.zero(),),))
        _assert_canonical_entries(reduced)
