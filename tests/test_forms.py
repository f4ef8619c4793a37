"""Hermitian forms, exact linear algebra, and the eigen kernel."""

import copy
import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from exactqt import (
    GaussianRationals,
    Matrix,
    Polynomial,
    PrimeField,
    QuadExt,
    StateVector,
    char_poly,
    conj_transpose,
    eigen_decompose,
    eval_closure,
    eval_finite,
    herm_form,
    involute,
    is_fixed,
    is_hermitian,
    is_unitary,
    null_space,
    rank,
    solve,
)
from exactqt import _ffroots, _gaussint, starfield
from exactqt.compose import tensor_op, tensor_state
from exactqt._tower import tower_field
from exactqt.errors import DimensionMismatch, FieldMismatch, Inconsistent, NonSquare
from exactqt.sampling import (
    random_hermitian,
    random_matrix,
    random_state,
    random_unitary,
)

F4 = QuadExt(2, 1)
F9 = QuadExt(3, 1)
F25 = QuadExt(5, 1)
QI = GaussianRationals()


def test_form_conjugates_first_argument():
    x = StateVector(F9, ["t", "0"])
    y = StateVector(F9, ["1", "0"])
    # <x,y> = involute(t)*1 = t^3 = 2t, not t
    assert str(herm_form(x, y)) == "2t"
    assert str(herm_form(y, x)) == "t"


def test_sesquilinearity_exhaustive_f4_dim2():
    vectors = [StateVector(F4, list(c)) for c in
               itertools.product(F4.elements(), repeat=2)]
    scalars = list(F4.elements())
    for x in vectors:
        for y in vectors:
            assert involute(herm_form(x, y)) == herm_form(y, x)
            for r in scalars:
                for s in scalars:
                    assert herm_form(x.scale(r), y.scale(s)) == \
                        involute(r) * herm_form(x, y) * s


@pytest.mark.parametrize("field", [F9, F25, QI])
def test_sesquilinearity_random(field):
    rng = random.Random(11)
    for _ in range(80):
        dim = rng.randint(2, 4)
        x, y = random_state(rng, field, dim), random_state(rng, field, dim)
        r, s = (random_state(rng, field, 1)[0] for _ in range(2))
        assert herm_form(x.scale(r), y.scale(s)) == involute(r) * herm_form(x, y) * s
        assert involute(herm_form(x, y)) == herm_form(y, x)


def test_isotropic_vectors_exist_over_f9():
    w = StateVector(F9, ["1", "1+t"])
    assert herm_form(w, w).is_zero() and not w.is_zero()
    count = sum(
        1
        for c in itertools.product(F9.elements(), repeat=2)
        if not (v := StateVector(F9, list(c))).is_zero()
        and herm_form(v, v).is_zero()
    )
    assert count == 32


def test_form_additivity():
    rng = random.Random(5)
    for field in (F4, F9, QI):
        x = random_state(rng, field, 3)
        y = random_state(rng, field, 3)
        z = random_state(rng, field, 3)
        assert herm_form(x + y, z) == herm_form(x, z) + herm_form(y, z)
        assert herm_form(z, x + y) == herm_form(z, x) + herm_form(z, y)


def test_matrix_algebra_basics():
    a = Matrix(F9, [["1", "t"], ["0", "2"]])
    b = Matrix(F9, [["2", "0"], ["1", "1+t"]])
    i2 = Matrix.identity(F9, 2)
    assert a @ i2 == a and i2 @ a == a
    assert (a @ b) @ a == a @ (b @ a)
    with pytest.raises(DimensionMismatch):
        a @ Matrix.identity(F9, 3)
    with pytest.raises(FieldMismatch):
        a @ Matrix.identity(F25, 2)


def test_conj_transpose_laws():
    rng = random.Random(7)
    for field in (F9, F25, QI):
        m = random_matrix(rng, field, 3, 3)
        n = random_matrix(rng, field, 3, 3)
        assert conj_transpose(conj_transpose(m)) == m
        assert conj_transpose(m @ n) == conj_transpose(n) @ conj_transpose(m)


def test_unitary_preserves_form():
    rng = random.Random(13)
    for field in (F9, F25, QI):
        for dim in (2, 3):
            u = random_unitary(rng, field, dim)
            assert is_unitary(u)
            x, y = random_state(rng, field, dim), random_state(rng, field, dim)
            assert herm_form(u @ x, u @ y) == herm_form(x, y)


def test_is_unitary_rejects_shear():
    assert not is_unitary(Matrix(F9, [["1", "1"], ["0", "1"]]))
    with pytest.raises(NonSquare):
        is_unitary(Matrix(F9, [["1", "0", "0"], ["0", "1", "0"]]))


def test_hermitian_char_poly_has_fixed_coefficients():
    rng = random.Random(17)
    for field in (F9, F25, QI):
        for dim in (2, 3, 4):
            h = random_hermitian(rng, field, dim)
            assert is_hermitian(h)
            assert all(is_fixed(c) for c in char_poly(h).coeffs)


def test_char_poly_is_monic_of_full_degree():
    rng = random.Random(19)
    m = random_matrix(rng, F25, 4, 4)
    p = char_poly(m)
    assert len(p.coeffs) == 5
    assert str(p.coeffs[-1]) == "1"


def test_char_poly_constant_term_tracks_determinant():
    # det(M) = (-1)^n * p(0) for the monic characteristic polynomial
    m = Matrix(PrimeField(7), [["2", "1"], ["3", "4"]])
    p = char_poly(m)
    det = m.entry(0, 0) * m.entry(1, 1) - m.entry(0, 1) * m.entry(1, 0)
    assert p.coeffs[0] == det


def test_frozen_incomplete_spectrum_example():
    # char poly 1 + x + 2x^2 + x^3 is irreducible over F_3, so no
    # eigenvalue of this Hermitian matrix lives in F_9 = F_3[t]
    h = Matrix(F9, [["0", "t", "0"], ["2t", "0", "t"], ["0", "2t", "1"]])
    assert is_hermitian(h)
    assert [str(c) for c in char_poly(h).coeffs] == ["1", "1", "2", "1"]
    dec = eigen_decompose(h)
    assert dec.pairs == ()
    assert not dec.complete
    assert dec.total_dimension == 0


def brute_eigen(m: Matrix):
    """Independent oracle: scan every field element as candidate eigenvalue."""
    found = []
    for lam in m.owner.elements():
        space = null_space(m - Matrix.scalar(m.owner, m.rows, lam))
        if space:
            found.append((lam, len(space)))
    return found


@pytest.mark.parametrize("field", [F4, F9, F25])
def test_eigen_decompose_matches_brute_force(field):
    rng = random.Random(23)
    for _ in range(25):
        dim = rng.randint(2, 4)
        m = random_matrix(rng, field, dim, dim)
        dec = eigen_decompose(m)
        oracle = brute_eigen(m)
        assert [(p.value, p.dimension) for p in dec.pairs] == oracle
        assert dec.total_dimension == sum(d for _, d in oracle)
        assert dec.complete == (dec.total_dimension == dim)
        for p in dec.pairs:
            for v in p.basis:
                assert m @ v == v.scale(p.value)


def test_eigen_decompose_gaussian_exact():
    m = Matrix(QI, [["1", "2"], ["0", "3/2"]])
    dec = eigen_decompose(m)
    assert dec.complete
    assert sorted(str(p.value) for p in dec.pairs) == ["1", "3/2"]


def test_polynomial_roots_match_brute_scan():
    rng = random.Random(31)
    for field in (F9, tower_field(2, 3)):
        elems = list(field.elements())
        for _ in range(20):
            coeffs = [rng.choice(elems) for _ in range(rng.randint(1, 4))] + [field.one()]
            poly = Polynomial(field, coeffs)
            assert poly.roots() == [x for x in elems if poly.evaluate(x).is_zero()]
    x = Polynomial(QI, [0, 1])
    planted = (x - Polynomial(QI, ["1+2i"])) * (x + Polynomial(QI, ["3/2"])) * x
    assert [str(r) for r in planted.roots()] == ["-3/2", "0", "1+2i"]
    half = Polynomial(QI, ["1/2"]) * planted
    assert half.roots() == planted.roots()


ROOT_FIELDS = [PrimeField(2), PrimeField(3), PrimeField(101), QuadExt(2, 1), QuadExt(2, 4),
               QuadExt(3, 2), QuadExt(5, 2), QuadExt(13, 1), tower_field(2, 5)]


def _rootless_quadratic(field, shift) -> Polynomial:
    """q(x + shift), where q is x^2 - c with c a non-square or, in
    characteristic 2, x^2 + x + c with c of trace 1: no root in field."""
    one, zero = field.one(), field.zero()
    if field.characteristic == 2:
        c = next(c for c in field.elements()
                 if sum((c ** 2 ** i for i in range(field.degree)), zero) == one)
        c1 = one
    else:
        c = -next(c for c in field.elements() if c ** ((field.order - 1) // 2) == -one)
        c1 = zero
    return Polynomial(field, [shift * shift + c1 * shift + c, shift + shift + c1, one])


@st.composite
def _root_problems(draw, field):
    """(poly, planted roots, whether every root of poly is planted) over field."""
    elements = st.lists(st.integers(0, field.p - 1), min_size=field.degree,
                        max_size=field.degree).map(lambda c: field.element(tuple(c)))
    shape = draw(st.sampled_from(("split", "quadratics", "mixed")))
    degree = draw(st.integers(1, 8))
    if shape == "quadratics":  # rootless quadratic factors, and one linear one at odd degree
        n_linear = degree % 2 if degree > 1 else 0
        degree = max(degree, 2)
    else:
        n_linear = degree if shape == "split" else draw(st.integers(0, degree))
    pool = draw(st.lists(elements, min_size=1, max_size=3)) + [field.zero()]
    planted = draw(st.lists(st.sampled_from(pool), min_size=n_linear, max_size=n_linear))
    lead = draw(elements.filter(lambda c: not c.is_zero()))
    poly = Polynomial(field, [lead])
    x = Polynomial(field, [0, 1])
    for r in planted:
        poly = poly * (x - Polynomial(field, [r]))
    rest = degree - n_linear
    if shape == "quadratics":
        for _ in range(rest // 2):
            poly = poly * _rootless_quadratic(field, draw(elements))
    elif rest:
        poly = poly * Polynomial(field, draw(st.lists(elements, min_size=rest, max_size=rest))
                                 + [field.one()])
    return poly, planted, shape != "mixed"


def _check_roots(poly, planted, closed, scan):
    found = poly.roots()
    assert found == scan(poly)
    assert set(planted) <= set(found)
    if closed:
        assert found == sorted(set(planted), key=lambda r: r.sort_key())


@pytest.mark.parametrize("field", ROOT_FIELDS, ids=str)
@settings(max_examples=20)
@given(data=st.data())
def test_finite_field_roots_match_exhaustive_scan(field, data):
    _check_roots(*data.draw(_root_problems(field)),
                 lambda poly: [x for x in field.elements() if poly.evaluate(x).is_zero()])


def _scan_f65537(poly) -> list:
    """Every root by Horner's rule on plain integers mod 65537."""
    p = poly.owner.p
    coeffs = [c.payload[0] for c in reversed(poly.coeffs)]
    roots = []
    for x in range(p):
        acc = 0
        for c in coeffs:
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(poly.owner.element(x))
    return roots


@functools.cache
def _bit_log_tables(field) -> tuple[list, list]:
    """Antilog list (twice over) and log list of a characteristic-2 field on
    bit-packed elements, against t + 1, which the walk shows to be primitive."""
    n = field.degree
    modulus = sum(c << i for i, c in enumerate(field.modulus))
    exp, x = [], 1
    for _ in range(2**n - 1):
        exp.append(x)
        x = x ^ (x << 1) ^ (modulus if x >> (n - 1) else 0)
    assert x == 1 and len(set(exp)) == 2**n - 1
    log = [0] * 2**n
    for k, a in enumerate(exp):
        log[a] = k
    return exp + exp, log


def _scan_f2_18(poly) -> list:
    """Every root in F_{2^18} by Horner's rule on bit-packed elements, at
    all nonzero x = exp[j] at once."""
    field = poly.owner
    n = field.degree
    exp, log = _bit_log_tables(field)
    coeffs = [sum(c << i for i, c in enumerate(a.payload)) for a in reversed(poly.coeffs)]
    values = [coeffs[0]] * (2**n - 1)
    for c in coeffs[1:]:
        values = [exp[log[v] + j] ^ c if v else c for j, v in enumerate(values)]
    roots = [field.zero()] if coeffs[-1] == 0 else []
    roots += [field.element(tuple(exp[j] >> i & 1 for i in range(n)))
              for j, v in enumerate(values) if v == 0]
    return sorted(roots, key=lambda r: r.sort_key())


@pytest.mark.parametrize("field, scan", [(PrimeField(65537), _scan_f65537),
                                         (QuadExt(2, 9), _scan_f2_18)], ids=["65537", "2:9"])
@settings(max_examples=4, phases=[Phase.explicit, Phase.generate])  # a scan per shrink step
@given(data=st.data())
def test_roots_above_the_table_cap_match_exhaustive_scan(field, scan, data):
    assert field.order > starfield._TABLE_CAP
    _check_roots(*data.draw(_root_problems(field)), scan)


def test_zero_polynomial_has_no_root_list():
    for field in (F9, PrimeField(65537), QI):
        with pytest.raises(ValueError):
            Polynomial(field, [0, 0]).roots()


def test_polynomial_coefficient_refuses_a_negative_index():
    poly = Polynomial(F9, [1, 2, 3])  # 3 = 0 in F_9, so the degree is 1
    assert [str(poly.coefficient(k)) for k in range(4)] == ["1", "2", "0", "0"]
    assert Polynomial(F9, []).coefficient(0).is_zero()
    for p, k in [(poly, -1), (poly, -3), (Polynomial(F9, []), -1)]:
        with pytest.raises(ValueError, match=f"coefficient index {k} is negative"):
            p.coefficient(k)


def test_planted_spectrum_over_f_1009_squared():
    field = QuadExt(1009, 1)
    rng = random.Random(1009)
    lower = Matrix(field, [[1 if i == j else (field.element((rng.randrange(1009), rng.randrange(1009)))
                                              if i > j else 0) for j in range(4)] for i in range(4)])
    inverse = Matrix.from_columns(field, [solve(lower, StateVector.basis_vector(field, 4, k))
                                          for k in range(4)])
    spectrum = [field.element(v) for v in ("5", "3+7t", "1000t", "3+7t")]
    m = lower @ Matrix.diagonal(field, spectrum) @ inverse
    start = time.monotonic()
    dec = eigen_decompose(m)
    assert time.monotonic() - start <= 2.0
    assert [(str(p.value), p.dimension) for p in dec.pairs] == [("1000t", 1), ("3+7t", 2), ("5", 1)]
    assert dec.complete
    for p in dec.pairs:
        for v in p.basis:
            assert m @ v == v.scale(p.value)


def test_characteristic_two_roots_split_over_an_f2_basis(monkeypatch):
    """The trace splits take the shifts t^(k-1), ..., t^0 only, so roots in
    a proper subfield cost at most k rounds of squarings."""
    squarings = []
    sqrmod = _ffroots._Ring.sqrmod
    monkeypatch.setattr(_ffroots._Ring, "sqrmod",
                        lambda ring, a, m: squarings.append(m) or sqrmod(ring, a, m))
    for small, big, most in [(QuadExt(2, 3), QuadExt(2, 6), 200),
                             (QuadExt(2, 2), QuadExt(2, 6), 200),
                             (QuadExt(2, 1), QuadExt(2, 5), 19)]:
        squarings.clear()
        roots = Polynomial(big, small.modulus).roots()
        assert len(roots) == small.degree
        assert all(Polynomial(big, small.modulus).evaluate(r).is_zero() for r in roots)
        assert len(squarings) <= most


def test_polynomial_operands_must_share_a_field():
    f9, f3 = QuadExt(3, 1), PrimeField(3)
    ops = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
           lambda a, b: a % b, lambda a, b: a.exact_div(b), lambda a, b: a.gcd(b)]
    for left, right in itertools.product([Polynomial(f9, []), Polynomial(f9, ["t", 1])],
                                         [Polynomial(f3, []), Polynomial(f3, [1, 1])]):
        for op in ops:
            with pytest.raises(FieldMismatch):
                op(left, right)
            with pytest.raises(FieldMismatch):
                op(right, left)


# The Element-level polynomial arithmetic and Bareiss char_poly that
# Polynomial and char_poly used before they ran on _ffroots._Ring: the
# oracle for the payload ring.

def _ref_add(a: Polynomial, b: Polynomial) -> Polynomial:
    x, y = a.coeffs, b.coeffs
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for k, c in enumerate(y):
        out[k] = out[k] + c
    return Polynomial(a.owner, out)


def _ref_neg(a: Polynomial) -> Polynomial:
    return Polynomial(a.owner, [-c for c in a.coeffs])


def _ref_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero() or b.is_zero():
        return Polynomial(a.owner, [])
    out = [a.owner.zero()] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x.is_zero():
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Polynomial(a.owner, out)


def _ref_long_division(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    lead_inv = b.coeffs[-1].inverse()
    qlen = max(len(rem) - len(b.coeffs) + 1, 0)
    quot = [a.owner.zero()] * qlen
    for i in range(qlen - 1, -1, -1):
        c = quot[i] = rem[i + len(b.coeffs) - 1] * lead_inv
        if not c.is_zero():
            for j, y in enumerate(b.coeffs):
                rem[i + j] = rem[i + j] - c * y
    return Polynomial(a.owner, quot), Polynomial(a.owner, rem)


def _ref_exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    quot, rem = _ref_long_division(a, b)
    if not rem.is_zero():
        raise ArithmeticError("division was not exact")
    return quot


def _ref_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero():
        a, b = b, _ref_long_division(a, b)[1]
    if a.is_zero():
        return a
    lead_inv = a.coeffs[-1].inverse()
    return Polynomial(a.owner, [c * lead_inv for c in a.coeffs])


def _ref_char_poly(m: Matrix) -> Polynomial:
    f, n = m.owner, m.rows
    work = [[Polynomial(f, [-m.entry(i, j)] + ([f.one()] if i == j else []))
             for j in range(n)] for i in range(n)]
    sign = 1
    prev = Polynomial.constant(f, 1)
    for k in range(n - 1):
        if work[k][k].is_zero():
            pivot_row = next(i for i in range(k + 1, n) if not work[i][k].is_zero())
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _ref_add(_ref_mul(work[k][k], work[i][j]),
                               _ref_neg(_ref_mul(work[i][k], work[k][j])))
                work[i][j] = _ref_exact_div(num, prev)
            work[i][k] = Polynomial(f, [])
        prev = work[k][k]
    det = work[n - 1][n - 1]
    return _ref_neg(det) if sign < 0 else det


RING_FIELDS = [PrimeField(2), PrimeField(7), QuadExt(2, 2), QuadExt(5, 1), tower_field(3, 3), QI]


def _ring_elements(field):
    """Elements of field, zero one time in three."""
    if field.is_finite:
        some = st.lists(st.integers(0, field.p - 1), min_size=field.degree,
                        max_size=field.degree).map(lambda c: field.element(tuple(c)))
    else:
        some = st.builds(lambda a, b, d: field.element((a, b, d)), st.integers(-4, 4),
                         st.integers(-4, 4), st.integers(1, 3))
    return st.one_of(st.just(field.zero()), some, some)


@pytest.mark.parametrize("field", RING_FIELDS, ids=str)
@given(data=st.data())
def test_polynomial_arithmetic_matches_element_oracle(field, data):
    polys = st.lists(_ring_elements(field), max_size=5).map(lambda c: Polynomial(field, c))
    a, b = data.draw(polys), data.draw(polys)
    assert a + b == _ref_add(a, b)
    assert a - b == _ref_add(a, _ref_neg(b))
    assert -a == _ref_neg(a)
    assert a * b == _ref_mul(a, b)
    assert a.gcd(b) == _ref_gcd(a, b)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a % b
        with pytest.raises(ZeroDivisionError):
            a.exact_div(b)
        return
    quot, rem = _ref_long_division(a, b)
    assert a % b == rem
    assert (a * b).exact_div(b) == a
    if rem.is_zero():
        assert a.exact_div(b) == quot
    else:
        with pytest.raises(ArithmeticError):
            a.exact_div(b)


@pytest.mark.parametrize("field", RING_FIELDS, ids=str)
@settings(max_examples=30)
@given(data=st.data())
def test_char_poly_matches_element_bareiss(field, data):
    n = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(_ring_elements(field), min_size=n, max_size=n),
                              min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):  # singular: the last row a multiple of the first
        c = data.draw(_ring_elements(field))
        rows[-1] = [c * x for x in rows[0]]
    m = Matrix(field, rows)
    assert char_poly(m) == _ref_char_poly(m)


def _divisor_roots(poly: Polynomial) -> list:
    """The Q(i) roots of poly by exhaustive search: after scaling mu = D*x to
    a monic Z[i] polynomial x^k * q, every nonzero root divides q(0)."""
    poly = poly * Polynomial(QI, [poly.coeffs[-1].inverse()])
    n = poly.degree
    d = math.lcm(*(c.payload[2] for c in poly.coeffs))
    scaled = [(a * d ** (n - k) // den, b * d ** (n - k) // den)
              for k, (a, b, den) in enumerate(c.payload for c in poly.coeffs)]
    k0 = next(k for k, c in enumerate(scaled) if c != (0, 0))
    found = {QI.zero()} if k0 else set()
    if k0 < n:
        for a, b in _gaussint.gaussian_divisors(scaled[k0]):
            lam = QI.element((a, b, d))
            if poly.evaluate(lam).is_zero():
                found.add(lam)
    return sorted(found, key=lambda r: r.sort_key())


def _planted(roots, cofactor=(), lead="1") -> Polynomial:
    x = Polynomial(QI, [0, 1])
    poly = Polynomial(QI, [lead]) * Polynomial(QI, list(cofactor) + [1])
    for r in roots:
        poly = poly * (x - Polynomial(QI, [r]))
    return poly


_GAUSSIAN_RATIONALS = st.one_of(
    st.just((0, 0)),
    st.builds(lambda a, b, d: (Fraction(a, d), Fraction(b, d)),
              st.integers(-6, 6), st.integers(-6, 6), st.sampled_from((1, 2, 3))))


@given(st.data())
def test_gaussian_roots_match_divisor_oracle(data):
    roots = data.draw(st.lists(_GAUSSIAN_RATIONALS, min_size=1, max_size=3))
    roots += data.draw(st.lists(st.sampled_from(roots), max_size=5 - len(roots)))
    cof_degree = data.draw(st.integers(0, 5 - len(roots)))
    cofactor = data.draw(st.lists(_GAUSSIAN_RATIONALS, min_size=cof_degree,
                                  max_size=cof_degree))
    lead = data.draw(st.sampled_from(("1", "-1/2", "3i")))
    poly = _planted(roots, cofactor, lead)
    found = poly.roots()
    assert found == _divisor_roots(poly)
    assert {QI.element(r) for r in roots} <= set(found)


def test_gaussian_roots_skip_primes_where_roots_collide():
    # 0 and 21 agree mod 3 and mod 7, so the first usable inert prime is 11
    poly = _planted(["0", "21"])
    coeffs = [(int(c.payload[0]), int(c.payload[1])) for c in poly.coeffs]
    deriv = [(k * a, k * b) for k, (a, b) in enumerate(coeffs)][1:]
    assert _gaussint._simple_roots_mod(coeffs, deriv, 3) is None
    assert _gaussint._simple_roots_mod(coeffs, deriv, 7) is None
    assert _gaussint._simple_roots_mod(coeffs, deriv, 11) == [(0, 0), (10, 0)]
    assert [str(r) for r in poly.roots()] == ["0", "21"]
    assert poly.roots() == _divisor_roots(poly)


def test_gaussian_roots_lift_through_several_steps():
    # B = 1 + 2000 + 1998 > 3^4 / 2, so the root is lifted 3 -> 9 -> 81 -> 6561
    poly = _planted(["1000+999i", "-7/2", "-7/2"])
    assert [str(r) for r in poly.roots()] == ["-7/2", "1000+999i"]
    assert poly.roots() == _divisor_roots(poly)
    assert _gaussint.gaussian_root_candidates([(-1000, -999), (1, 0)]) == [(1000, 999)]


def test_generic_gaussian_spectra_within_ceiling():
    start = time.monotonic()
    for seed in (0, 1, 2):
        h = random_hermitian(random.Random(seed), QI, 5)
        dec = eigen_decompose(h)
        assert list(dec.eigenvalues) == char_poly(h).roots()
        for p in dec.pairs:
            for v in p.basis:
                assert h @ v == v.scale(p.value)
    assert time.monotonic() - start <= 5.0


def test_eigen_orthogonality_for_nonconjugate_eigenvalues():
    rng = random.Random(29)
    for _ in range(20):
        h = random_hermitian(rng, F9, 3)
        dec = eigen_decompose(h)
        for p in dec.pairs:
            for q in dec.pairs:
                if involute(p.value) != q.value:
                    for v in p.basis:
                        for w in q.basis:
                            assert herm_form(v, w).is_zero()


def test_rank_nullity():
    rng = random.Random(31)
    for field in (F9, QI):
        for _ in range(20):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = random_matrix(rng, field, rows, cols)
            r = rank(m)
            kernel = null_space(m)
            assert r + len(kernel) == cols
            for v in kernel:
                assert (m @ v).is_zero()


def test_solve_round_trip():
    rng = random.Random(37)
    for field in (F9, F25, QI):
        m = random_matrix(rng, field, 3, 3)
        x = random_state(rng, field, 3)
        b = m @ x
        y = solve(m, b)
        assert m @ y == b


def test_solve_inconsistent():
    m = Matrix(F9, [["1", "0"], ["1", "0"]])
    b = StateVector(F9, ["0", "1"])
    with pytest.raises(Inconsistent):
        solve(m, b)


def test_null_space_basis_is_deterministic():
    m = Matrix(F9, [["1", "2", "t"], ["2", "1", "2t"]])
    first = null_space(m)
    second = null_space(m)
    assert [[str(e) for e in v] for v in first] == [[str(e) for e in v] for v in second]


def test_state_vector_ops():
    v = StateVector(QI, ["3", "4i"])
    w = StateVector(QI, ["1", "1"])
    assert str(herm_form(v, v)) == "25"
    assert (v + w)[0] == QI.element(4)
    assert v.scale(QI.element(2))[1] == QI.element("8i")
    assert StateVector.basis_vector(QI, 3, 1)[1] == QI.one()
    assert not v.is_zero()
    assert v.conj()[1] == QI.element("-4i")
    assert v.dim == 2


def test_gaussian_form_uses_fractions():
    v = StateVector(QI, ["3/2+i", "1/3"])
    total = herm_form(v, v)
    a, _, d = v.owner.element(str(total)).payload
    assert Fraction(a, d) == Fraction(9, 4) + 1 + Fraction(1, 9)


def test_basis_vector_index_must_lie_in_range():
    assert list(StateVector.basis_vector(F9, 2, 1)) == [F9.zero(), F9.one()]
    for k in (2, 5, -1):
        with pytest.raises(DimensionMismatch):
            StateVector.basis_vector(F9, 2, k)


def test_from_columns_needs_columns_of_one_dimension():
    with pytest.raises(DimensionMismatch):
        Matrix.from_columns(F9, [])
    with pytest.raises(DimensionMismatch):
        Matrix.from_columns(F9, [StateVector(F9, ["1", "t"]), StateVector(F9, ["1"])])


def test_operands_of_the_wrong_type_raise_type_error():
    m, v = Matrix.identity(F9, 2), StateVector(F9, ["1", "t"])
    with pytest.raises(TypeError, match="expected a Matrix or StateVector, got int"):
        m @ 3
    with pytest.raises(TypeError, match="expected a Matrix, got int"):
        m + 1
    with pytest.raises(TypeError, match="expected a Matrix, got int"):
        m - 1
    with pytest.raises(TypeError, match="expected a StateVector, got int"):
        herm_form(v, 3)
    with pytest.raises(TypeError, match="expected a StateVector, got int"):
        herm_form(3, v)
    with pytest.raises(TypeError, match="expected an Element, got int"):
        v.scale(3)
    with pytest.raises(TypeError, match="expected an Element, got int"):
        F9.one() / 2


# The Element-level products, Hermitian form and row reduction that forms
# used before its loops ran on payloads: the oracle for those loops.

def _ref_dot(xs, ys, owner):
    acc = owner.zero()
    for a, b in zip(xs, ys):
        acc = acc + a * b
    return acc


def _ref_herm_form(x: StateVector, y: StateVector):
    acc = x.owner.zero()
    for a, b in zip(x.entries, y.entries):
        acc = acc + a.conj() * b
    return acc


def _ref_matmul(m: Matrix, other):
    if isinstance(other, StateVector):
        return StateVector(m.owner, [_ref_dot(row, other.entries, m.owner) for row in m.entries])
    cols = [tuple(other.entries[k][j] for k in range(other.rows)) for j in range(other.cols)]
    return Matrix(m.owner, [[_ref_dot(row, col, m.owner) for col in cols] for row in m.entries])


def _ref_rref(rows, field):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * v for v in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _ref_null_space(m: Matrix):
    rref, pivots = _ref_rref([list(r) for r in m.entries], m.owner)
    f = m.owner
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [f.zero()] * m.cols
        v[fc] = f.one()
        for r_idx, pc in enumerate(pivots):
            v[pc] = -rref[r_idx][fc]
        basis.append(StateVector(f, v))
    return basis


def _ref_solve(m: Matrix, b: StateVector):
    rows = [list(r) + [b[i]] for i, r in enumerate(m.entries)]
    rref, pivots = _ref_rref(rows, m.owner)
    if m.cols in pivots:
        raise Inconsistent("linear system has no solution")
    f = m.owner
    x = [f.zero()] * m.cols
    for r_idx, pc in enumerate(pivots):
        x[pc] = rref[r_idx][m.cols]
    return StateVector(f, x)


def _one_route(field, tabled: bool):
    """An equal descriptor whose finite-field arithmetic takes one route only:
    through freshly built log tables, or through _fppoly with no build."""
    twin = copy.copy(field)
    twin._tables = starfield._LogTables(field.p, field.modulus)
    if tabled:
        twin._tables._build()
    else:
        twin._tables.budget = -1
    return twin


ORACLE_FIELDS = [PrimeField(2), PrimeField(7), QuadExt(2, 2), QuadExt(3, 1), QuadExt(5, 2),
                 tower_field(3, 3)]
ORACLE_CASES = [pytest.param(_one_route(f, tabled), id=f"{f}-{'table' if tabled else 'poly'}")
                for f in ORACLE_FIELDS for tabled in (True, False)] + [pytest.param(QI, id="gaussian")]


@st.composite
def _oracle_rows(draw, field, rows=None):
    """The Element rows of random, zero, singular (last row a multiple of the
    first) or pivot-swapping (a zero top-left entry) matrices of up to 4 x 4."""
    n_rows = rows or draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 4))
    entries = draw(st.lists(st.lists(_ring_elements(field), min_size=n_cols, max_size=n_cols),
                            min_size=n_rows, max_size=n_rows))
    kind = draw(st.sampled_from(["random", "zero", "singular", "swap"]))
    if kind == "zero":
        entries = [[field.zero()] * n_cols for _ in range(n_rows)]
    elif kind == "singular" and n_rows > 1:
        c = draw(_ring_elements(field))
        entries[-1] = [c * x for x in entries[0]]
    elif kind == "swap":
        entries[0][0] = field.zero()
    return entries


def _oracle_matrices(field, rows=None):
    return _oracle_rows(field, rows).map(lambda r: Matrix(field, r))


def _oracle_vectors(field, dim):
    return st.lists(_ring_elements(field), min_size=dim, max_size=dim).map(
        lambda c: StateVector(field, c))


@pytest.mark.parametrize("field", ORACLE_CASES)
@given(data=st.data())
def test_payload_linear_algebra_matches_element_oracle(field, data):
    m = data.draw(_oracle_matrices(field))
    n = data.draw(_oracle_matrices(field, rows=m.cols))
    v, w = data.draw(_oracle_vectors(field, m.cols)), data.draw(_oracle_vectors(field, m.cols))
    c = data.draw(_ring_elements(field))
    assert (m @ n).entries == _ref_matmul(m, n).entries
    assert (m @ v).entries == _ref_matmul(m, v).entries
    assert herm_form(v, w) == _ref_herm_form(v, w)
    assert (v + w).entries == tuple(a + b for a, b in zip(v, w))
    assert (v - w).entries == tuple(a - b for a, b in zip(v, w))
    assert v.scale(c).entries == tuple(c * a for a in v)
    assert m.transpose().entries == tuple(zip(*m.entries))
    assert conj_transpose(m).entries == tuple(zip(*[[a.conj() for a in r] for r in m.entries]))
    assert (m - m.scale(c)).entries == tuple(tuple(a - c * a for a in r) for r in m.entries)
    assert (m + -m.scale(c)).entries == (m - m.scale(c)).entries
    assert rank(m) == len(_ref_rref([list(r) for r in m.entries], field)[1])
    assert [k.entries for k in null_space(m)] == [k.entries for k in _ref_null_space(m)]
    # b in m's column space, or drawn freely (inconsistent when m is zero)
    b = m @ v if data.draw(st.booleans()) else data.draw(_oracle_vectors(field, m.rows))
    try:
        expected = _ref_solve(m, b)
    except Inconsistent:
        with pytest.raises(Inconsistent):
            solve(m, b)
    else:
        assert solve(m, b).entries == expected.entries


@pytest.mark.parametrize("field", ORACLE_CASES)
@given(data=st.data())
def test_payload_containers_match_element_oracle(field, data):
    """Constructors, accessors and reads of the payload store against the
    Element rows they stand for, built by the public constructors."""
    rows = data.draw(_oracle_rows(field))
    entries = data.draw(st.lists(_ring_elements(field), min_size=1, max_size=4))
    c = data.draw(_ring_elements(field))
    m, v = Matrix(field, rows), StateVector(field, entries)
    n, zero, one = len(entries), field.zero(), field.one()
    columns = [list(col) for col in zip(*rows)]
    assert m.entries == tuple(map(tuple, rows))
    assert [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)] == rows
    assert [list(m.row(i)) for i in range(m.rows)] == rows
    assert [list(m.column(j)) for j in range(m.cols)] == columns
    assert list(v) == entries and v.entries == tuple(entries)
    assert [v[k] for k in range(-n, n)] == [entries[k] for k in range(-n, n)]
    for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1),
                slice(-3, None, 2)):
        assert v[cut] == tuple(entries)[cut]
    # each: built on payloads, and the Element rows it stands for
    cases = [
        (Matrix.identity(field, n), [[one if i == j else zero for j in range(n)] for i in range(n)]),
        (Matrix.diagonal(field, entries),
         [[entries[i] if i == j else zero for j in range(n)] for i in range(n)]),
        (Matrix.scalar(field, n, c), [[c if i == j else zero for j in range(n)] for i in range(n)]),
        (Matrix.from_columns(field, [m.column(j) for j in range(m.cols)]), rows),
        (Matrix.from_columns(field, [v]), [[a] for a in entries]),
        (m.transpose(), columns),
        (m.map_entries(lambda a: a * c), [[a * c for a in r] for r in rows]),
        (m - m.scale(c), [[a - c * a for a in r] for r in rows]),
        (conj_transpose(conj_transpose(m)), rows),
    ]
    for built, expected_rows in cases:
        expected = Matrix(field, expected_rows)
        assert (built.rows, built.cols) == (expected.rows, expected.cols)
        assert built.entries == tuple(map(tuple, expected_rows))
        assert built == expected and hash(built) == hash(expected)
    for built, expected in [(m.row(0), StateVector(field, rows[0])), (v + v.scale(zero), v),
                            (v.conj().conj(), v), (-(-v), v)]:
        assert built == expected and hash(built) == hash(expected)
    column = Matrix(field, [[a] for a in entries])
    assert column != v and v != column
    if n > 1:
        assert Matrix(field, [entries]) != column


def _field_calls(monkeypatch, call) -> tuple[int, int, object]:
    """The Elements built and the FieldDescriptor.element calls made by call()."""
    built, coerced = [], []
    init, element = starfield.Element.__init__, starfield.FieldDescriptor.element

    def counting_init(self, owner, payload):
        built.append(payload)
        init(self, owner, payload)

    def counting_element(self, value):
        coerced.append(value)
        return element(self, value)

    monkeypatch.setattr(starfield.Element, "__init__", counting_init)
    monkeypatch.setattr(starfield.FieldDescriptor, "element", counting_element)
    try:
        result = call()
    finally:
        monkeypatch.undo()
    return len(built), len(coerced), result


@pytest.mark.parametrize("field", [PrimeField(7), QuadExt(3, 1), QuadExt(5, 2), QI], ids=str)
def test_linear_algebra_builds_no_element_beyond_its_result(monkeypatch, field):
    """Guards the payload store: an operation on vectors and matrices that
    returns vectors or matrices builds no Element and coerces nothing (the
    Kronecker products of compose included), and herm_form builds its one
    result."""
    rng = random.Random(41)
    m = random_matrix(rng, field, 4, 4)
    singular = Matrix(field, list(m.entries[:3]) + [m.entries[0]])
    v, w = random_state(rng, field, 4), random_state(rng, field, 4)
    c = field.element(3)
    calls = {
        "null_space": lambda: null_space(singular),
        "solve": lambda: solve(m, v),
        "matrix @ matrix": lambda: m @ singular,
        "matrix @ vector": lambda: m @ v,
        "identity": lambda: Matrix.identity(field, 4),
        "scalar": lambda: Matrix.scalar(field, 4, c),
        "from_columns": lambda: Matrix.from_columns(field, [v, w]),
        "transpose": lambda: m.transpose(),
        "conj_transpose": lambda: conj_transpose(m),
        "matrix +": lambda: m + singular,
        "matrix -": lambda: m - singular,
        "matrix scale": lambda: m.scale(c),
        "vector +": lambda: v + w,
        "vector -": lambda: v - w,
        "vector scale": lambda: v.scale(c),
        "tensor_op": lambda: tensor_op(m, singular),
        "tensor_state": lambda: tensor_state(v, w),
    }
    for name, call in calls.items():
        assert _field_calls(monkeypatch, call)[:2] == (0, 0), name
    built, coerced, value = _field_calls(monkeypatch, lambda: herm_form(v, w))
    assert (built, coerced) == (1, 0) and value == _ref_herm_form(v, w)


def test_the_closure_search_builds_no_element(monkeypatch):
    """Guards the compiled closure search: it computes on payloads only.
    The Element search it replaced built 12,320 Elements for this eval_closure."""
    sentence = "A x . E y . y*y = x + 7"
    first = eval_closure(sentence, 5)  # caches the generator images the lifts use
    built, coerced, again = _field_calls(monkeypatch, lambda: eval_closure(sentence, 5))
    assert (built, coerced) == (0, 0) and again == first and first.value is True
    assert _field_calls(monkeypatch, lambda: eval_finite(sentence, QuadExt(5, 1)))[:2] == (0, 0)


def test_matrix_entry_refuses_an_index_outside_the_matrix():
    m = Matrix(F9, [["1", "t", "2"], ["0", "1", "t"]])
    assert m.entry(1, 2) == F9.element("t")
    # with flat storage (0, 5) would otherwise read the second row
    for i, j, text in [(0, 5, "column index 5 outside 0..2"), (2, 0, "row index 2 outside 0..1"),
                       (-1, 0, "row index -1 outside 0..1"), (0, -1, "column index -1 outside 0..2")]:
        with pytest.raises(DimensionMismatch, match=text):
            m.entry(i, j)


def test_matrix_row_refuses_an_index_outside_the_rows():
    m = Matrix(F9, [["1", "t", "2"], ["0", "1", "t"]])
    assert m.row(1) == StateVector(F9, ["0", "1", "t"])
    for i in (2, 5, -1):
        with pytest.raises(DimensionMismatch, match=f"row index {i} outside 0..1"):
            m.row(i)


def test_matrix_column_refuses_an_index_outside_the_columns():
    m = Matrix(F9, [["1", "t", "2"], ["0", "1", "t"]])
    assert m.column(2) == StateVector(F9, ["2", "t"])
    for j in (3, 5, -1):
        with pytest.raises(DimensionMismatch, match=f"column index {j} outside 0..2"):
            m.column(j)
