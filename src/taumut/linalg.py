"""Exact dense linear algebra over the rationals and prime fields.

Every scalar is tagged by the field it lives in: rationals are
`fractions.Fraction` values (always in lowest terms with positive
denominator), prime-field elements are ints in ``[0, p)``.  Matrices carry
their field and refuse to mix tags.  No floating point appears anywhere in
this module or its callers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .errors import DimensionMismatchError, FieldMismatchError

ScalarInput = Union[int, str, Fraction]


class Field:
    """Arithmetic context for matrix entries.

    Concrete subclasses implement coercion and scalar arithmetic on the
    canonical representatives, plus the private kernels (`_rref`,
    `_matmul`, `_reduce_row`) that the matrix routines call once per
    matrix instead of once per entry.  Representatives are canonical, so
    an entry is zero exactly when it is falsy.
    """

    name: str

    def __init__(self):
        # (nrows, ncols) -> the one zero matrix of that shape: Mat.zeros
        self._zeros = {}

    def coerce(self, value: ScalarInput):
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return not a

    def characteristic(self) -> int:
        raise NotImplementedError

    def to_string(self, a) -> str:
        return str(a)

    def _rref(self, rows: list):
        """Gauss-Jordan on a list of equal-length row lists.

        Returns (rank, rows, pivots): the reduced rows, as many and as wide
        as the input with the zero rows at the bottom, and the pivot
        columns.  The input list may be reused for the output.
        """
        raise NotImplementedError

    def _matmul(self, arows, brows, ncols: int) -> list:
        """Rows of the product of two row-major matrices; brows has ncols
        columns."""
        raise NotImplementedError

    def _reduce_row(self, row, rref_rows, pivots) -> list:
        """`row` minus the multiples of the rref rows that clear its pivot
        coordinates."""
        raise NotImplementedError


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_row(row) -> list:
    """A primitive integer row proportional to a row of rationals."""
    den = lcm(*[x.denominator for x in row])
    if den == 1:
        ints = [x.numerator for x in row]
    else:
        ints = [x.numerator * (den // x.denominator) for x in row]
    return _primitive(ints)


def _primitive(ints: list) -> list:
    """Divide an integer row by the gcd of its entries."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


class RationalField(Field):
    name = "Q"

    def coerce(self, value: ScalarInput) -> Fraction:
        if isinstance(value, bool):
            raise FieldMismatchError("booleans are not rational scalars")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise FieldMismatchError(f"cannot coerce {value!r} into Q")

    def zero(self) -> Fraction:
        return _ZERO

    def one(self) -> Fraction:
        return _ONE

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / a

    def characteristic(self) -> int:
        return 0

    def _rref(self, rows: list):
        # Fraction-free Gauss-Jordan: every row is a primitive integer row
        # proportional to the current rational one.  Clearing column c
        # replaces a row by pivot*row - entry*top, which keeps every other
        # pivot column zero; dividing out the row's gcd keeps the numbers
        # small.  The rational rref is read off once at the end: each pivot
        # row divided by its pivot entry.
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        ints = [_integer_row(row) for row in rows]
        pivots = []
        r = 0
        for c in range(ncols):
            for i in range(r, nrows):
                if ints[i][c]:
                    break
            else:
                continue
            ints[r], ints[i] = ints[i], ints[r]
            top = ints[r]
            p = top[c]
            for i in range(nrows):
                row = ints[i]
                a = row[c]
                if a and i != r:
                    ints[i] = _primitive([p * x - a * y for x, y in zip(row, top)])
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        out = []
        for row, c in zip(ints, pivots):
            p = row[c]
            out.append([Fraction(x, p) if x else _ZERO for x in row])
        out.extend([_ZERO] * ncols for _ in range(r, nrows))
        return r, out, tuple(pivots)

    def _matmul(self, arows, brows, ncols: int) -> list:
        # Over the common denominators of each row of a and of all of b the
        # product is an integer product, divided once per output entry.
        bden = lcm(*[x.denominator for row in brows for x in row])
        bints = [[x.numerator * (bden // x.denominator) for x in row] for row in brows]
        out = []
        for ra in arows:
            aden = lcm(*[x.denominator for x in ra])
            acc = [0] * ncols
            for a, rb in zip(ra, bints):
                if a:
                    a = a.numerator * (aden // a.denominator)
                    acc = [x + a * y for x, y in zip(acc, rb)]
            den = aden * bden
            if den == 1:
                out.append([Fraction(x) if x else _ZERO for x in acc])
            else:
                out.append([Fraction(x, den) if x else _ZERO for x in acc])
        return out

    def _reduce_row(self, row, rref_rows, pivots) -> list:
        out = list(row)
        for ref, c in zip(rref_rows, pivots):
            coef = out[c]
            if coef:
                out = [x - coef * y if y else x for x, y in zip(out, ref)]
        return out

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("taumut.QQ")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on the 13 prime bases up to 41 is exact below this bound
# (Sorenson-Webster 2015); it is the least strong pseudoprime to them all.
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality test; needs sympy only for n >= 3.3 * 10**24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        import sympy

        return sympy.isprime(n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    """The field with p elements, p prime; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise FieldMismatchError(f"modulus {p!r} is not a prime")
        super().__init__()
        self.p = p
        self.name = f"F{p}"

    def coerce(self, value: ScalarInput) -> int:
        if isinstance(value, bool):
            raise FieldMismatchError("booleans are not field scalars")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(
                    f"denominator {value.denominator} vanishes mod {self.p}"
                )
            return (value.numerator % self.p) * pow(den, -1, self.p) % self.p
        if isinstance(value, str):
            return self.coerce(Fraction(value))
        raise FieldMismatchError(f"cannot coerce {value!r} into F_{self.p}")

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, -1, self.p)

    def characteristic(self) -> int:
        return self.p

    def _rref(self, rows: list):
        p = self.p
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        pivots = []
        r = 0
        for c in range(ncols):
            for i in range(r, nrows):
                if rows[i][c]:
                    break
            else:
                continue
            rows[r], rows[i] = rows[i], rows[r]
            inv = pow(rows[r][c], -1, p)
            top = rows[r] = [x * inv % p for x in rows[r]]
            for i in range(nrows):
                row = rows[i]
                a = row[c]
                if a and i != r:
                    rows[i] = [(x - a * y) % p for x, y in zip(row, top)]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return r, rows, tuple(pivots)

    def _matmul(self, arows, brows, ncols: int) -> list:
        p = self.p
        out = []
        for ra in arows:
            acc = [0] * ncols
            for a, rb in zip(ra, brows):
                if a:
                    acc = [x + a * y for x, y in zip(acc, rb)]
            out.append([x % p for x in acc])
        return out

    def _reduce_row(self, row, rref_rows, pivots) -> list:
        p = self.p
        out = list(row)
        for ref, c in zip(rref_rows, pivots):
            coef = out[c]
            if coef:
                out = [(x - coef * y) % p for x, y in zip(out, ref)]
        return out

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("taumut.Fp", self.p))


QQ = RationalField()


class Mat:
    """Immutable dense matrix over an exact field.  `Mat(field, rows)`
    coerces every entry and checks the row lengths; a kernel that built
    its rows well-formed uses the trusted `Mat._of`."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Sequence[Sequence], *, ncols: Optional[int] = None):
        self.field = field
        self.rows = tuple(tuple(field.coerce(x) for x in r) for r in rows)
        self.nrows = len(self.rows)
        if self.rows:
            self.ncols = len(self.rows[0])
            if ncols is not None and ncols != self.ncols:
                raise DimensionMismatchError("ncols disagrees with row length")
        else:
            # A matrix with no rows still remembers its width.
            self.ncols = 0 if ncols is None else ncols
        for r in self.rows:
            if len(r) != self.ncols:
                raise DimensionMismatchError("ragged rows in matrix")

    @classmethod
    def _of(cls, field: Field, rows, ncols: int) -> "Mat":
        """The trusted constructor for rows a kernel built: ncols-wide rows
        of canonical entries.  It checks nothing; `Mat(...)` coerces and
        checks.  An empty shape is the shared zero matrix."""
        if not ncols or not rows:
            return Mat.zeros(field, len(rows), ncols)
        m = object.__new__(cls)
        m.field = field
        m.rows = rows = tuple(map(tuple, rows))
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Mat":
        """The zero matrix of a shape.  A Mat is immutable, so each field
        keeps one per shape and hands it out again."""
        m = field._zeros.get((nrows, ncols))
        if m is None:
            m = field._zeros[nrows, ncols] = object.__new__(Mat)
            m.field, m.nrows, m.ncols = field, nrows, ncols
            m.rows = ((field.zero(),) * ncols,) * nrows
        return m

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        z, o = field.zero(), field.one()
        return Mat._of(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.nrows, self.ncols, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(self.field.to_string(x) for x in row) for row in self.rows
        )
        return f"Mat({self.field.name}, {self.nrows}x{self.ncols}: [{body}])"

    def _check_same_field(self, other: "Mat") -> None:
        if self.field != other.field:
            raise FieldMismatchError(
                f"mixed fields {self.field.name} and {other.field.name}"
            )

    def _entrywise(self, rows) -> "Mat":
        # Sums and multiples of canonical entries; only F_p needs reducing.
        p = self.field.characteristic()
        if p:
            rows = [[x % p for x in row] for row in rows]
        return Mat._of(self.field, rows, self.ncols)

    def _check_same_shape(self, other: "Mat") -> None:
        self._check_same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatchError("addition shape mismatch")

    def add(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return self._entrywise(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def sub(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return self._entrywise(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def neg(self) -> "Mat":
        return self._entrywise([[-a for a in row] for row in self.rows])

    def scale(self, c) -> "Mat":
        c = self.field.coerce(c)
        return self._entrywise([[c * a for a in row] for row in self.rows])

    def mul(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        if self.ncols != other.nrows:
            raise DimensionMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        cols = other.ncols
        if not (self.nrows and self.ncols and cols):
            return Mat.zeros(self.field, self.nrows, cols)
        out = self.field._matmul(self.rows, other.rows, cols)
        return Mat._of(self.field, out, cols)

    def transpose(self) -> "Mat":
        if not (self.nrows and self.ncols):
            return Mat.zeros(self.field, self.ncols, self.nrows)
        return Mat._of(self.field, tuple(zip(*self.rows)), self.nrows)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def flatten(self) -> tuple:
        return tuple(x for row in self.rows for x in row)


def hstack(field: Field, mats: Sequence[Mat], nrows: Optional[int] = None) -> Mat:
    """Concatenate matrices left to right; all must share a row count."""
    mats = [m for m in mats]
    if not mats:
        if nrows is None:
            raise DimensionMismatchError("hstack of nothing needs an explicit nrows")
        return Mat.zeros(field, nrows, 0)
    n = mats[0].nrows
    for m in mats:
        if m.field != field:
            raise FieldMismatchError("hstack across fields")
        if m.nrows != n:
            raise DimensionMismatchError("hstack row-count mismatch")
    mats = [m for m in mats if m.ncols]
    if len(mats) <= 1:
        return mats[0] if mats else Mat.zeros(field, n, 0)
    rows = [sum((list(m.rows[i]) for m in mats), []) for i in range(n)]
    return Mat._of(field, rows, sum(m.ncols for m in mats))


def vstack(field: Field, mats: Sequence[Mat], ncols: Optional[int] = None) -> Mat:
    """Concatenate matrices top to bottom; all must share a column count."""
    mats = [m for m in mats]
    if not mats:
        if ncols is None:
            raise DimensionMismatchError("vstack of nothing needs an explicit ncols")
        return Mat.zeros(field, 0, ncols)
    c = mats[0].ncols
    for m in mats:
        if m.field != field:
            raise FieldMismatchError("vstack across fields")
        if m.ncols != c:
            raise DimensionMismatchError("vstack column-count mismatch")
    mats = [m for m in mats if m.nrows]
    if len(mats) <= 1:
        return mats[0] if mats else Mat.zeros(field, 0, c)
    return Mat._of(field, [row for m in mats for row in m.rows], c)


def block_diag(field: Field, mats: Sequence[Mat]) -> Mat:
    """The block-diagonal matrix of the blocks in order; a lone block that
    is not 0x0 is returned as it is."""
    if any(m.field != field for m in mats):
        raise FieldMismatchError("block_diag across fields")
    total_r = sum(m.nrows for m in mats)
    total_c = sum(m.ncols for m in mats)
    if not (total_r and total_c):
        return Mat.zeros(field, total_r, total_c)
    mats = [m for m in mats if m.nrows or m.ncols]
    if len(mats) == 1:
        return mats[0]
    out = [[field.zero()] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for m in mats:
        for i, row in enumerate(m.rows):
            out[r0 + i][c0 : c0 + m.ncols] = row
        r0 += m.nrows
        c0 += m.ncols
    return Mat._of(field, out, total_c)


def _rref_rows(field: Field, rows):
    """Row reduce a list of row lists; return (rank, rows, pivots).

    Every full elimination goes through here.  `row_space` hands the
    result on as a basis with its pivots and `kernel_basis` as a basis with
    its free columns, so callers read coordinates off them instead of
    solving; `extend_span` grows a span one row at a time without an
    elimination.  The input list may be reused for the output, so callers
    use the returned rows only.
    """
    return field._rref(rows)


def row_space(m: Mat):
    """The canonical basis of the row space (the nonzero rref rows) and its
    pivot columns.

    Basis row k has a 1 at pivot k and 0 at the other pivots, so the
    coordinates of any vector of the span are its entries at the pivots,
    and len(pivots) is the rank.  A zero matrix has the empty basis, with
    no elimination.
    """
    if m.is_zero():
        return Mat.zeros(m.field, 0, m.ncols), ()
    rank, rows, pivots = _rref_rows(m.field, [list(r) for r in m.rows])
    return Mat._of(m.field, rows[:rank], m.ncols), pivots


def kernel_basis(m: Mat):
    """Basis of {x : m @ x = 0} as the rows of one matrix, and its free
    columns.

    The basis is the canonical one read off the rref: row k has a 1 at
    free column k and 0 at the other free columns, so the coordinates of
    any kernel vector are its entries at the free columns.  A zero matrix
    has every column free, with no elimination.
    """
    basis, free_cols = kernel_rows(m.field, [list(r) for r in m.rows], m.ncols)
    return Mat._of(m.field, basis, m.ncols), free_cols


def kernel_rows(field: Field, rows: list, ncols: int):
    """`kernel_basis` of the ncols-wide row lists `rows`, which may be
    reused: the basis as a list of row lists, and the free columns."""
    if any(map(any, rows)):
        _, rows, pivots = _rref_rows(field, rows)
    else:
        pivots = ()
    pivot_set = set(pivots)
    free_cols = tuple(c for c in range(ncols) if c not in pivot_set)
    zero, one = field.zero(), field.one()
    basis = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(rows[r][fc])
        basis.append(vec)
    return basis, free_cols


def reduce_row(field: Field, row, rref_rows, pivots):
    """Subtract rref rows to clear the pivot coordinates of a row vector."""
    return field._reduce_row(row, rref_rows, pivots)


def extend_span(field: Field, rows: list, pivots: list, row) -> bool:
    """Grow a semi-echelon basis by one row; True if the span grew.

    Each kept row has a 1 at its pivot and 0 at the pivots of the rows kept
    before it, so `reduce_row` in insertion order clears every pivot.  The
    reduced row, if nonzero, is scaled and appended to `rows` and its first
    nonzero column to `pivots`.
    """
    out = field._reduce_row(row, rows, pivots)
    for c, x in enumerate(out):
        if x:
            inv = field.inv(x)
            rows.append([field.mul(inv, y) for y in out])
            pivots.append(c)
            return True
    return False
