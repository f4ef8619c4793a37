"""Vectors, matrices, Hermitian forms, and exact spectral decomposition.

The standard sesquilinear form conjugates the first argument:
<x, y> = sum over k of involute(x_k) * y_k.  Everything downstream
(adjoints, unitarity, Born weights) is phrased against this convention.

StateVector and Matrix store payloads, not Elements.  Their private base
class _Payloads holds the owner field, the shape and a flat row-major
tuple of the field's payloads, and the one copy of the entrywise
operations, equality and hashing.  Every operation (the entrywise ones,
products, herm_form, transpose, the row reduction behind rank, null_space
and solve, identity, diagonal and from_columns) loops over payloads with
the field's payload_* methods.  An Element is made only when an entry is
read (entries, iteration, v[k], entry, row, column) or a scalar returned;
the public constructors coerce outside input once.  On finite fields with
log tables every step is a table lookup (see starfield).

Polynomial arithmetic and char_poly compute on payload lists in
_ffroots._Ring, the one polynomial ring for every field, Q(i) included;
Polynomial wraps its results in Elements.  char_poly runs a fraction-free
Bareiss elimination over that ring, which stays exact in every
characteristic.  Eigenvalues come from Polynomial.roots: over finite
fields, gcd(f, x^Q - x) split by equal degree (_ffroots), and over Q(i),
Newton lifting of the squarefree part's roots from an inert prime
p = 3 (mod 4) (so the owner-field spectrum is always complete, even when
the closure spectrum is not).  Over Q(i) that lifting reads the
coefficients' integer triples (a, b, d) directly (see starfield); the
candidates share one denominator, so they are sorted as Gaussian integers
before any element is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from ._ffroots import _Ring, field_roots
from ._gaussint import gaussian_root_candidates
from .errors import DimensionMismatch, FieldMismatch, Inconsistent, NonSquare
from .starfield import Element, FieldDescriptor, GaussianRationals


def _require(value, kinds, what: str) -> None:
    """TypeError, worded like Element._check's, unless value is one of kinds."""
    if not isinstance(value, kinds):
        raise TypeError(f"expected {what}, got {type(value).__name__}")


def _coerce(owner: FieldDescriptor, value):
    """owner's payload for value, coerced as FieldDescriptor.element does."""
    if type(value) is Element and value.owner is owner:
        return value.payload
    return owner.element(value).payload


def _check_index(what: str, k: int, n: int) -> None:
    if not 0 <= k < n:
        raise DimensionMismatch(f"{what} index {k} outside 0..{n - 1}")


class _Payloads:
    """Entries of one field as a flat row-major tuple of payloads.  _shape (a
    vector's length, a matrix's (rows, cols)) must agree entrywise; each
    subclass words its refusals in _mixed_fields and _shape_differs."""

    __slots__ = ("owner", "_shape", "_data")

    @classmethod
    def _of(cls, owner: FieldDescriptor, shape, data: tuple):
        new = cls.__new__(cls)
        new.owner, new._shape, new._data = owner, shape, data
        return new

    def _same_field(self, other) -> None:
        if self.owner is not other.owner and self.owner != other.owner:
            raise FieldMismatch(self._mixed_fields)

    def _check(self, other) -> None:
        """Refuse other unless it has self's class, field and shape."""
        _require(other, type(self), f"a {type(self).__name__}")
        self._same_field(other)
        if self._shape != other._shape:
            raise DimensionMismatch(self._shape_differs.format(self._shape, other._shape))

    def _map(self, op, *others):
        """op over the payloads of self and of others, entry by entry."""
        for other in others:
            self._check(other)
        data = tuple(map(op, self._data, *[other._data for other in others]))
        return self._of(self.owner, self._shape, data)

    def __add__(self, other):
        return self._map(self.owner.payload_add, other)

    def __sub__(self, other):
        return self._map(self.owner.payload_sub, other)

    def __neg__(self):
        return self._map(self.owner.payload_neg)

    def scale(self, c: Element):
        # refused as Element arithmetic refuses a non-Element or another field
        _require(c, Element, "an Element")
        if c.owner is not self.owner and c.owner != self.owner:
            raise FieldMismatch(f"{c.owner.shorthand()} vs {self.owner.shorthand()}")
        return self._map(partial(self.owner.payload_mul, c.payload))

    def _involute(self):
        return self._map(self.owner.payload_involute)

    def __eq__(self, other) -> bool:
        # entries of one container share its field, so payloads decide
        return (isinstance(other, type(self)) and self.owner == other.owner
                and self._shape == other._shape and self._data == other._data)

    def __hash__(self) -> int:
        return hash(self._data)


class StateVector(_Payloads):
    """A column of field elements; states are nonzero but the type allows 0."""

    __slots__ = ()
    _mixed_fields = "vectors live in different fields"
    _shape_differs = "{} vs {}"

    def __init__(self, owner: FieldDescriptor, entries: Sequence):
        if len(entries) < 1:
            raise DimensionMismatch("vectors need at least one entry")
        self.owner = owner
        self._data = tuple([_coerce(owner, v) for v in entries])
        self._shape = len(self._data)

    @property
    def dim(self) -> int:
        return self._shape

    @property
    def entries(self) -> tuple[Element, ...]:
        return tuple(self)

    @classmethod
    def basis_vector(cls, owner: FieldDescriptor, dim: int, k: int) -> StateVector:
        _check_index("basis", k, dim)
        return cls(owner, [1 if j == k else 0 for j in range(dim)])

    conj = _Payloads._involute

    def is_zero(self) -> bool:
        return self._data.count(self.owner.zero_payload) == self._shape

    def sort_key(self):
        return tuple(map(self.owner.payload_sort_key, self._data))

    def __iter__(self):
        return map(partial(Element, self.owner), self._data)

    def __len__(self) -> int:
        return self._shape

    def __getitem__(self, k):
        return self.entries[k] if isinstance(k, slice) else Element(self.owner, self._data[k])

    def __repr__(self) -> str:
        return "[" + ", ".join(map(self.owner.payload_format, self._data)) + "]"


class Matrix(_Payloads):
    __slots__ = ("rows", "cols")
    _mixed_fields = "operands live in different fields"
    _shape_differs = "matrix shapes differ"

    def __init__(self, owner: FieldDescriptor, rows: Sequence[Sequence]):
        if len(rows) < 1 or len(rows[0]) < 1:
            raise DimensionMismatch("matrices need at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatch("ragged rows")
        self.owner = owner
        self._shape = self.rows, self.cols = len(rows), width
        self._data = tuple([_coerce(owner, v) for r in rows for v in r])

    @classmethod
    def _of(cls, owner: FieldDescriptor, shape: tuple[int, int], data: tuple) -> Matrix:
        m = super()._of(owner, shape, data)
        m.rows, m.cols = shape
        return m

    @classmethod
    def _diagonal(cls, owner: FieldDescriptor, diag: list) -> Matrix:
        n = len(diag)
        if n < 1:
            raise DimensionMismatch("matrices need at least one row and column")
        data = [owner.zero_payload] * (n * n)
        data[:: n + 1] = diag
        return cls._of(owner, (n, n), tuple(data))

    @classmethod
    def identity(cls, owner: FieldDescriptor, n: int) -> Matrix:
        return cls._diagonal(owner, [owner.payload_from_int(1) for _ in range(n)])

    @classmethod
    def diagonal(cls, owner: FieldDescriptor, diag: Sequence) -> Matrix:
        return cls._diagonal(owner, [_coerce(owner, d) for d in diag])

    @classmethod
    def scalar(cls, owner: FieldDescriptor, n: int, c) -> Matrix:
        return cls.diagonal(owner, [c] * n)

    @classmethod
    def from_columns(cls, owner: FieldDescriptor, columns: Sequence[StateVector]) -> Matrix:
        if not columns:
            raise DimensionMismatch("matrices need at least one column")
        dim = columns[0].dim
        if any(col.dim != dim for col in columns):
            raise DimensionMismatch("columns of different dimensions")
        for col in columns:
            if col.owner is not owner and col.owner != owner:
                raise FieldMismatch(f"element of {col.owner.shorthand()} given to {owner.shorthand()}")
        return cls._of(owner, (dim, len(columns)),
                       tuple([col._data[i] for i in range(dim) for col in columns]))

    @property
    def entries(self) -> tuple[tuple[Element, ...], ...]:
        return tuple(tuple(self.row(i)) for i in range(self.rows))

    def entry(self, i: int, j: int) -> Element:
        _check_index("row", i, self.rows)
        _check_index("column", j, self.cols)
        return Element(self.owner, self._data[i * self.cols + j])

    def row(self, i: int) -> StateVector:
        _check_index("row", i, self.rows)
        return StateVector._of(self.owner, self.cols, self._data[i * self.cols:(i + 1) * self.cols])

    def column(self, j: int) -> StateVector:
        _check_index("column", j, self.cols)
        return StateVector._of(self.owner, self.rows, self._data[j::self.cols])

    def _payload_rows(self) -> list[list]:
        """The entries' payloads, as fresh row lists."""
        data, c = self._data, self.cols
        return [list(data[i:i + c]) for i in range(0, len(data), c)]

    def __matmul__(self, other):
        _require(other, (Matrix, StateVector), "a Matrix or StateVector")
        self._same_field(other)
        f = self.owner
        add, mul, zero = f.payload_add, f.payload_mul, f.zero_payload
        if isinstance(other, StateVector):
            if self.cols != other.dim:
                raise DimensionMismatch(f"{self.cols} columns vs dim {other.dim}")
            acc, data, c = [zero] * self.rows, self._data, self.cols
            for j, x in enumerate(other._data):  # acc += x * column j, one map each
                acc = list(map(add, acc, map(partial(mul, x), data[j::c])))
            return StateVector._of(f, self.rows, tuple(acc))
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.cols} columns vs {other.rows} rows")
        cols = [other._data[j::other.cols] for j in range(other.cols)]
        return Matrix._of(f, (self.rows, other.cols), tuple(
            [_dot(row, col, add, mul, zero) for row in self._payload_rows() for col in cols]))

    def transpose(self) -> Matrix:
        data, c = self._data, self.cols
        return Matrix._of(self.owner, (c, self.rows),
                          tuple([a for j in range(c) for a in data[j::c]]))

    conj_entrywise = _Payloads._involute

    def map_entries(self, fn: Callable[[Element], Element], owner: FieldDescriptor | None = None) -> Matrix:
        return Matrix(owner or self.owner, [[fn(a) for a in r] for r in self.entries])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self) -> str:
        fmt = self.owner.payload_format
        return "[" + "; ".join(", ".join(map(fmt, r)) for r in self._payload_rows()) + "]"


def _dot(xs, ys, add, mul, acc):
    """acc plus the sum of x*y over paired payloads xs, ys."""
    for a, b in zip(xs, ys):
        acc = add(acc, mul(a, b))
    return acc


def herm_form(x: StateVector, y: StateVector) -> Element:
    """<x, y> with the involution applied to the first argument."""
    _require(x, StateVector, "a StateVector")
    x._check(y)
    f = x.owner
    return Element(f, _dot(map(f.payload_involute, x._data), y._data,
                           f.payload_add, f.payload_mul, f.zero_payload))


def conj_transpose(m: Matrix) -> Matrix:
    """The adjoint with respect to herm_form: entrywise involution, then transpose."""
    return m.conj_entrywise().transpose()


def is_hermitian(m: Matrix) -> bool:
    if not m.is_square():
        raise NonSquare("hermitian test needs a square matrix")
    return conj_transpose(m) == m


def is_unitary(m: Matrix) -> bool:
    if not m.is_square():
        raise NonSquare("unitarity test needs a square matrix")
    return conj_transpose(m) @ m == Matrix.identity(m.owner, m.rows)


class Polynomial:
    """Univariate polynomial with field coefficients, low degree first."""

    __slots__ = ("owner", "coeffs")

    def __init__(self, owner: FieldDescriptor, coeffs: Sequence):
        elems = [owner.element(c) for c in coeffs]
        while elems and elems[-1].is_zero():
            elems.pop()
        self.owner = owner
        self.coeffs = tuple(elems)

    @classmethod
    def constant(cls, owner: FieldDescriptor, c) -> Polynomial:
        return cls(owner, [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.owner.one()

    def coefficient(self, k: int) -> Element:
        """The coefficient of x^k: zero above the degree, refused below 0."""
        if k < 0:
            raise ValueError(f"coefficient index {k} is negative")
        return self.coeffs[k] if k <= self.degree else self.owner.zero()

    def evaluate(self, x: Element) -> Element:
        acc = self.owner.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def roots(self) -> list[Element]:
        """Every root in the owner field, in element order.

        Over a finite field F_Q the roots are those of gcd(f, x^Q - x),
        which equal-degree splitting pulls apart into linear factors
        (_ffroots), so the cost grows with log Q and not with Q.  Over Q(i)
        the roots of the squarefree part are lifted p-adically from an inert
        prime p = 3 (mod 4), where no two of them collide, so the list is
        complete there too.  The zero polynomial is not accepted.
        """
        if self.is_zero():
            raise ValueError("every element is a root of the zero polynomial")
        f = self.owner
        if f.is_finite:
            return [Element(f, r) for r in field_roots(f, [c.payload for c in self.coeffs])]
        return _gaussian_rational_roots(self if self.is_monic() else self._monic())

    @classmethod
    def _of_payloads(cls, owner: FieldDescriptor, payloads: list) -> Polynomial:
        """The polynomial of trimmed payloads, wrapped without coercion."""
        poly = cls.__new__(cls)
        poly.owner = owner
        poly.coeffs = tuple(Element(owner, c) for c in payloads)
        return poly

    def _operands(self, other: Polynomial) -> tuple[_Ring, list, list]:
        """The ring of the field self and other share, and their payloads."""
        if self.owner is not other.owner and self.owner != other.owner:
            raise FieldMismatch(f"{self.owner.shorthand()} vs {other.owner.shorthand()}")
        return _Ring(self.owner), [c.payload for c in self.coeffs], [c.payload for c in other.coeffs]

    def _derivative(self) -> Polynomial:
        ring, a, _ = self._operands(self)
        return Polynomial._of_payloads(self.owner, ring.trim([
            ring.mul(self.owner.payload_from_int(k), c) for k, c in enumerate(a) if k]))

    def __add__(self, other: Polynomial) -> Polynomial:
        ring, a, b = self._operands(other)
        return Polynomial._of_payloads(self.owner, ring.combine(ring.add, a, b))

    def __neg__(self) -> Polynomial:
        ring, a, _ = self._operands(self)
        return Polynomial._of_payloads(self.owner, [ring.neg(c) for c in a])

    def __sub__(self, other: Polynomial) -> Polynomial:
        ring, a, b = self._operands(other)
        return Polynomial._of_payloads(self.owner, ring.combine(ring.sub, a, b))

    def __mul__(self, other: Polynomial) -> Polynomial:
        ring, a, b = self._operands(other)
        return Polynomial._of_payloads(self.owner, ring.product(a, b))

    def exact_div(self, other: Polynomial) -> Polynomial:
        """Division known to be remainder-free; ArithmeticError if it is not."""
        ring, a, b = self._operands(other)
        return Polynomial._of_payloads(self.owner, ring.exact_div(a, b))

    def __mod__(self, other: Polynomial) -> Polynomial:
        ring, a, b = self._operands(other)
        return Polynomial._of_payloads(self.owner, ring.divmod(a, b)[1])

    def gcd(self, other: Polynomial) -> Polynomial:
        """Monic greatest common divisor; zero when both are zero."""
        ring, a, b = self._operands(other)
        return Polynomial._of_payloads(self.owner, ring.gcd(a, b))

    def _monic(self) -> Polynomial:
        ring, a, _ = self._operands(self)
        return Polynomial._of_payloads(self.owner, ring.monic(a))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.owner == other.owner
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                terms.append(str(c))
            else:
                var = "x" if k == 1 else f"x^{k}"
                terms.append(var if c == self.owner.one() else f"({c})*{var}")
        return " + ".join(terms)


def char_poly(m: Matrix) -> Polynomial:
    """det(x*I - m) by fraction-free Bareiss elimination; monic of degree n.

    Bareiss's two-term update divides by the previous pivot, and that
    division is exact in any integral domain, so no characteristic-specific
    integer divisions appear (Leverrier-style traces would divide by k!).
    The pivot at step k is the leading principal minor of order k + 1 of
    x*I - m, which is monic, so no pivot is zero and no rows are swapped.
    The sweep runs on payload lists in _Ring; one Polynomial is built at
    the end.
    """
    if not m.is_square():
        raise NonSquare("characteristic polynomial needs a square matrix")
    ring = _Ring(m.owner)
    product, sub, one = ring.product, ring.sub, ring.one
    n = m.rows
    work = [[ring.trim([ring.neg(a)] + ([one] if i == j else [])) for j, a in enumerate(row)]
            for i, row in enumerate(m._payload_rows())]
    prev = [one]
    for k in range(n - 1):
        top, pivot = work[k], work[k][k]
        for row in work[k + 1:]:
            for j in range(k + 1, n):
                num = ring.combine(sub, product(pivot, row[j]), product(row[k], top[j]))
                row[j] = ring.exact_div(num, prev)
        prev = pivot
    det = work[n - 1][n - 1]
    if len(det) != n + 1 or det[-1] != one:
        raise ArithmeticError("characteristic polynomial lost monicity")
    return Polynomial._of_payloads(m.owner, det)


def _rref(rows: list[list], field: FieldDescriptor) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of payload rows, in place, with first-nonzero
    pivoting (deterministic).

    Left of a pivot, the pivot row is zero (earlier pivot columns are
    cleared, and skipped columns are zero from the pivot row down), so each
    row operation starts at the pivot column.
    """
    add, mul, neg, inv = field.payload_add, field.payload_mul, field.payload_neg, field.payload_inv
    zero = field.zero_payload
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != zero), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        scale = inv(rows[r][c])
        top = rows[r][c:] = [mul(scale, v) for v in rows[r][c:]]
        for i, row in enumerate(rows):
            if i != r and row[c] != zero:
                factor = neg(row[c])
                row[c:] = [add(a, mul(factor, b)) for a, b in zip(row[c:], top)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m: Matrix) -> int:
    return len(_rref(m._payload_rows(), m.owner)[1])


def null_space(m: Matrix) -> list[StateVector]:
    """Deterministic kernel basis: one vector per free column, in column order."""
    f = m.owner
    rref, pivots = _rref(m._payload_rows(), f)
    neg, zero, one = f.payload_neg, f.zero_payload, f.payload_from_int(1)
    basis = []
    for fc in range(m.cols):
        if fc in pivots:
            continue
        v = [zero] * m.cols
        v[fc] = one
        for row, pc in zip(rref, pivots):
            v[pc] = neg(row[fc])
        basis.append(StateVector._of(f, m.cols, tuple(v)))
    return basis


def solve(m: Matrix, b: StateVector) -> StateVector:
    """One exact solution of m x = b (free variables set to zero)."""
    _require(b, StateVector, "a StateVector")
    m._same_field(b)
    if m.rows != b.dim:
        raise DimensionMismatch(f"{m.rows} rows vs dim {b.dim}")
    rows = m._payload_rows()
    for row, x in zip(rows, b._data):
        row.append(x)
    rref, pivots = _rref(rows, m.owner)
    if m.cols in pivots:
        raise Inconsistent("linear system has no solution")
    x = [m.owner.zero_payload] * m.cols
    for row, pc in zip(rref, pivots):
        x[pc] = row[m.cols]
    return StateVector._of(m.owner, m.cols, tuple(x))


@dataclass(frozen=True)
class EigenPair:
    value: Element
    basis: tuple[StateVector, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class EigenDecomposition:
    pairs: tuple[EigenPair, ...]
    complete: bool

    @property
    def eigenvalues(self) -> tuple[Element, ...]:
        return tuple(p.value for p in self.pairs)

    @property
    def total_dimension(self) -> int:
        return sum(p.dimension for p in self.pairs)


def eigen_decompose(m: Matrix) -> EigenDecomposition:
    """All eigenvalues in the owner field, with deterministic eigenbases.

    The eigenvalues are the characteristic polynomial's roots in the owner
    field (Polynomial.roots); roots outside the owner field are reported
    only through complete=False.
    """
    f = m.owner
    pairs = []
    total = 0
    for lam in char_poly(m).roots():
        basis = null_space(m - Matrix.scalar(f, m.rows, lam))
        if not basis:
            raise ArithmeticError("char poly root with trivial eigenspace")
        pairs.append(EigenPair(lam, tuple(basis)))
        total += len(basis)
    return EigenDecomposition(tuple(pairs), total == m.rows)


def _gaussian_rational_roots(cp: Polynomial) -> list[Element]:
    """Every root of cp lying in Q(i), in element order; cp is monic with
    Q(i) coefficients.

    The squarefree part g = cp / gcd(cp, cp') has the same roots.  With D
    the lcm of g's coefficient denominators, mu = D*x turns g into a monic
    Z[i] polynomial, whose Q(i) roots are Gaussian integers (Z[i] is
    integrally closed); _gaussint lifts them from an inert prime, and each
    candidate is kept only if it is a root.  Every candidate mu stands for
    mu/D over the same D > 0, so sorting the mu sorts the roots.
    """
    f = cp.owner
    assert isinstance(f, GaussianRationals) and cp.is_monic()
    g = cp.exact_div(cp.gcd(cp._derivative()))
    n = g.degree
    d_scale = math.lcm(*(c.payload[2] for c in g.coeffs))
    scaled = []
    for k, c in enumerate(g.coeffs):
        a, b, d = c.payload
        s = d_scale ** (n - k) // d
        scaled.append((a * s, b * s))
    roots = []
    for re_s, im_s in sorted(gaussian_root_candidates(scaled)):
        lam = f.element((re_s, im_s, d_scale))
        if cp.evaluate(lam).is_zero():
            roots.append(lam)
    return roots
