"""Field-with-involution layer: arithmetic, conjugation, parsing, order."""

import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from exactqt import (
    Element,
    FieldMismatch,
    GaussianRationals,
    PrimeField,
    QuadExt,
    fixed_field_coordinates,
    involute,
    is_fixed,
    is_hermitian,
    is_unitary,
    make_field,
    no_cloning_witness,
    norm_one_elements,
    parse_field,
)
from exactqt import _fppoly, sampling, starfield
from exactqt._tower import TowerField, tower_field
from exactqt.errors import (
    DivisionByZero,
    FieldNotFinite,
    NonPrimeCharacteristic,
    ParseError,
    ReducibleModulus,
)

F4 = QuadExt(2, 1)
F9 = QuadExt(3, 1)
F16 = QuadExt(2, 2)
F25 = QuadExt(5, 1)
QI = GaussianRationals()


def gaussian(re, im=0):
    return QI.element((Fraction(re), Fraction(im)))


# canonical moduli are the lexicographically smallest monic irreducibles,
# compared coefficient-low-degree-first
def test_canonical_moduli():
    assert F4.modulus == (1, 1, 1)
    assert F9.modulus == (1, 0, 1)
    assert F16.modulus == (1, 0, 0, 1, 1)
    assert F25.modulus == (1, 1, 1)
    assert QuadExt(7, 1).modulus == (1, 0, 1)


def _first_irreducible_unscreened(p: int, n: int) -> tuple[int, ...]:
    """The modulus search without the c0 = 0 screen: a Rabin test on every tail."""
    return next(tail + (1,) for tail in itertools.product(range(p), repeat=n)
                if _fppoly.is_irreducible(tail + (1,), p))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_screened_modulus_search_finds_the_same_modulus(p):
    for n in range(1, 7):
        assert _fppoly.canonical_irreducible(p, n) == _first_irreducible_unscreened(p, n)


def test_bad_constructions():
    with pytest.raises(NonPrimeCharacteristic):
        PrimeField(6)
    with pytest.raises(NonPrimeCharacteristic):
        QuadExt(4, 1)
    with pytest.raises(ReducibleModulus):
        QuadExt(3, 1, modulus=(0, 0, 1))  # x^2 = x * x
    with pytest.raises(ReducibleModulus):
        QuadExt(3, 1, modulus=(2, 0, 1))  # x^2 - 2 = (x-1)(x+1) mod 3


def test_element_order_is_payload_order():
    # F_4 sorts 0 < t < 1 < 1+t: payloads are coefficient tuples low-first
    assert [str(x) for x in F4.elements()] == ["0", "t", "1", "1+t"]
    assert [str(x) for x in PrimeField(3).elements()] == ["0", "1", "2"]


def test_is_zero_agrees_with_equality_to_zero():
    values = [*PrimeField(2).elements(), *F9.elements(), *tower_field(2, 3).elements(),
              *map(QI.element, ("0", "0i", "1/2", "i"))]
    assert [x.is_zero() for x in values] == [x == x.owner.zero() for x in values]


@pytest.mark.parametrize("field", [F4, F9, F16, F25])
def test_involution_is_ring_automorphism_exhaustive(field):
    els = list(field.elements())
    for x in els:
        assert involute(involute(x)) == x
        for y in els:
            assert involute(x * y) == involute(x) * involute(y)
            assert involute(x + y) == involute(x) + involute(y)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(rationals, rationals, rationals, rationals)
def test_involution_is_ring_automorphism_gaussian(a, b, c, d):
    x, y = gaussian(a, b), gaussian(c, d)
    assert involute(involute(x)) == x
    assert involute(x * y) == involute(x) * involute(y)
    assert involute(x + y) == involute(x) + involute(y)


def _reference(x):
    """The (re, im) Fraction pair of a Q(i) element, checking that its
    payload is the canonical triple: ints, d > 0, gcd(a, b, d) = 1."""
    a, b, d = x.payload
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1
    return (Fraction(a, d), Fraction(b, d))


_TRIPLES = st.one_of(
    st.tuples(st.just(0), st.just(0), st.integers(-5, 5).filter(bool)),
    st.tuples(st.integers(-60, 60), st.integers(-60, 60), st.integers(-12, 12).filter(bool)),
    st.tuples(st.integers(-10**30, 10**30), st.integers(-9, 9), st.integers(1, 10**20)))


@settings(max_examples=400, derandomize=True)
@given(_TRIPLES, _TRIPLES, st.sampled_from((True, False, 1.0, Fraction(1, 2), "1", None)),
       st.integers(0, 2))
@example((0, 0, 7), (3, -4, -6), True, 2)
def test_gaussian_triples_match_fraction_pairs(u, v, bad, slot):
    x, y = QI.element(u), QI.element(v)
    (r1, i1), (r2, i2) = _reference(x), _reference(y)
    assert (r1, i1) == (Fraction(u[0], u[2]), Fraction(u[1], u[2]))
    assert _reference(x + y) == (r1 + r2, i1 + i2)
    assert _reference(x - y) == (r1 - r2, i1 - i2)
    assert _reference(x * y) == (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
    assert _reference(-x) == (-r1, -i1)
    assert _reference(x.conj()) == (r1, -i1)
    assert x.is_zero() == (r1 == i1 == 0)
    if x.is_zero():
        assert x.payload == (0, 0, 1)
        with pytest.raises(DivisionByZero):
            x.inverse()
    else:
        n = r1 * r1 + i1 * i1
        assert _reference(x.inverse()) == (r1 / n, -i1 / n)
    assert QI.element(str(x)).payload == x.payload
    assert str(QI.element(str(x))) == str(x)
    assert (x.sort_key() < y.sort_key()) == ((r1, i1) < (r2, i2))
    assert (x.sort_key() == y.sort_key()) == ((r1, i1) == (r2, i2)) == (x == y)
    same = QI.element((r1, i1))
    assert same.payload == x.payload and hash(same) == hash(x)
    assert (x + y - y).payload == x.payload and hash(x + y - y) == hash(x)
    assert QI.element(x.payload) == x
    broken = list(u)
    broken[slot] = bad
    with pytest.raises(TypeError):
        QI.element(tuple(broken))


@pytest.mark.parametrize("pair", [
    (0.1, 0), (0, 0.5), (True, 0), (0, False), ("1/2", 0), (1, None),
])
def test_gaussian_pair_refuses_float_bool_and_str(pair):
    # a float would enter the exact library as its binary fraction
    with pytest.raises(TypeError):
        QI.element(pair)


def test_gaussian_pair_takes_int_and_fraction():
    assert QI.element((Fraction(1, 2), 3)).payload == (1, 6, 2)
    assert QI.element([-2, Fraction(4, 6)]).payload == (-6, 2, 3)


@pytest.mark.parametrize("field", [PrimeField(5), F9, tower_field(3, 3)])
@pytest.mark.parametrize("raw", [(True, 2), (1, False), (1.0, 2), (1, 2.5), ("1", 2)])
def test_finite_field_payload_refuses_bool_float_and_str(field, raw):
    with pytest.raises(TypeError):
        field.element(raw)


@pytest.mark.parametrize("q,field", [
    (2, F4), (3, F9), (4, F16), (5, F25), (7, QuadExt(7, 1)), (16, QuadExt(2, 4)),
    (9, QuadExt(3, 2)), (27, QuadExt(3, 3)), (25, QuadExt(5, 2)), (13, QuadExt(13, 1)),
    (3, QuadExt(3, 1, modulus=(2, 2, 1))),
])
def test_fixed_set_is_index_two_subfield(q, field):
    fixed = [x for x in field.elements() if is_fixed(x)]
    assert len(fixed) == q
    assert field.fixed_elements() == tuple(fixed)
    # closed under addition and multiplication
    for x in fixed:
        for y in fixed:
            assert is_fixed(x + y)
            assert is_fixed(x * y)


@pytest.mark.parametrize("field", [PrimeField(5), tower_field(2, 3)], ids=str)
def test_identity_involution_fixes_every_element(field):
    assert field.fixed_elements() == tuple(field.elements())


def test_equal_descriptors_share_one_fixed_field():
    a, b = QuadExt(3, 2), QuadExt(3, 2, modulus=QuadExt(3, 2).modulus)
    assert a is not b
    assert a.fixed_elements() is b.fixed_elements()
    # F_3[t]/(t) twice, as a tower field and as the prime field: two fields
    assert tower_field(3, 1).fixed_elements()[0].owner == tower_field(3, 1)
    assert PrimeField(3).fixed_elements()[0].owner == PrimeField(3)


def test_fixed_elements_of_a_large_field_within_ceiling(monkeypatch):
    from exactqt.sampling import random_hermitian

    # the scan went through all 1,018,081 elements of F_{1009^2}
    monkeypatch.setattr(starfield, "_FIXED_FIELDS", {})
    field = QuadExt(1009, 1)
    start = time.monotonic()
    fixed = field.fixed_elements()
    assert time.monotonic() - start <= 0.5
    assert fixed == tuple(field.element(a) for a in range(1009))
    h = random_hermitian(random.Random(1), field, 4)
    assert all(h.entry(i, i).is_fixed() for i in range(4))


@pytest.mark.parametrize("field", [F4, F9, F16, F25])
def test_norm_lands_in_fixed_field(field):
    for x in field.elements():
        assert is_fixed(involute(x) * x)


def _norm_table(field):
    """The whole-field oracle: norm payload -> every x of that norm, in element order."""
    table = {}
    for x in field.elements():
        table.setdefault((x.conj() * x).payload, []).append(x)
    return table


# F_9, F_16, F_5, then F_4, F_25, F_49, F_64, F_81, F_{31^2}, F_2, F_7, F_13
NORM_FIELDS = [F9, F16, PrimeField(5), F4, F25, QuadExt(7, 1), QuadExt(2, 3), QuadExt(3, 2),
               QuadExt(31, 1), PrimeField(2), PrimeField(7), PrimeField(13)]


@pytest.mark.parametrize("field", NORM_FIELDS)
def test_norm_one_elements_are_the_unit_norm_scan(field):
    scan = [x for x in field.elements() if x.conj() * x == field.one()]
    assert norm_one_elements(field) == scan
    # each pool is one root-found preimage times the norm-one group; the
    # table lists every preimage of every s
    table = _norm_table(field)
    for s in field.fixed_elements():
        assert sampling._norm_pool(field, s) == table.get(s.payload, [])


def _seeded_draws(field):
    rng = random.Random(29)
    draws = [sampling.norm_split(rng, field) for _ in range(40)]
    for dim in (2, 3) if field not in (F4, PrimeField(2)) else (2,):
        draws.append(sampling.random_unitary(rng, field, dim))
        draws.append(sampling.random_observable_matrix(rng, field, dim))
    return draws


def test_seeded_draws_are_those_of_the_norm_table_route(monkeypatch):
    fields = NORM_FIELDS + [QI]
    drawn = [_seeded_draws(field) for field in fields]
    table = functools.lru_cache(maxsize=None)(_norm_table)
    monkeypatch.setattr(sampling, "_norm_pool", lambda field, s: table(field).get(s.payload, []))
    assert [_seeded_draws(field) for field in fields] == drawn
    assert table.cache_info().currsize == len(NORM_FIELDS)


@pytest.mark.parametrize("field", [QuadExt(31, 1), QuadExt(2, 5)], ids=lambda f: f.shorthand())
def test_unitaries_and_observables_enumerate_no_field(field, monkeypatch):
    def refuse(self):
        raise AssertionError(f"{self.shorthand()} was enumerated")

    monkeypatch.setattr(starfield.FpQuotientField, "payloads", refuse)
    sampling._norm_pool.cache_clear()
    rng = random.Random(31)
    for dim in (2, 3, 4):
        assert is_unitary(sampling.random_unitary(rng, field, dim))
        assert is_hermitian(sampling.random_observable_matrix(rng, field, dim))


def test_a_unitary_over_f_1009_squared_within_ceiling():
    # the whole-field norm table took 71 s here
    field = QuadExt(1009, 1)
    sampling._norm_pool.cache_clear()
    start = time.monotonic()
    u = sampling.random_unitary(random.Random(3), field, 4)
    assert time.monotonic() - start <= 2.0
    assert is_unitary(u)
    phases = norm_one_elements(field)
    assert len(phases) == 1010
    assert all(x.conj() * x == field.one() for x in phases)


def test_gaussian_norm_is_anisotropic():
    # over Q(i) the scalar norm vanishes only at zero
    assert (involute(QI.zero()) * QI.zero()).is_zero()
    for re in range(-3, 4):
        for im in range(-3, 4):
            x = gaussian(re, im)
            if not x.is_zero():
                assert not (involute(x) * x).is_zero()


@pytest.mark.parametrize("listing", ["payloads", "elements", "fixed_elements"])
def test_gaussian_rationals_refuse_to_list_their_elements(listing):
    with pytest.raises(FieldNotFinite):
        getattr(QI, listing)()


def test_finite_norm_has_nontrivial_kernel_only_at_zero():
    # scalar isotropy never happens in F_{q^2} either; the vector-level
    # isotropy lives in the forms suite
    for x in F9.elements():
        assert (involute(x) * x).is_zero() == x.is_zero()


def test_prime_field_is_improper():
    F7 = PrimeField(7)
    assert F7.involution_order == 1
    for x in F7.elements():
        assert involute(x) == x


@pytest.mark.parametrize("field", [F4, F9, F25, PrimeField(7)])
def test_arithmetic_laws_exhaustive(field):
    els = list(field.elements())
    one = field.one()
    for x in els:
        assert x + (-x) == field.zero()
        if not x.is_zero():
            assert x * x.inverse() == one
            assert x / x == one
            assert x ** (field.order - 1) == one
    with pytest.raises(DivisionByZero):
        field.zero().inverse()


def test_pow_agrees_with_repeated_product():
    x = F9.element("1+t")
    acc = F9.one()
    for k in range(10):
        assert x ** k == acc
        acc = acc * x
    assert x ** (-1) == x.inverse()


def test_cross_field_operations_rejected():
    with pytest.raises(FieldMismatch):
        F9.element(1) + F25.element(1)
    with pytest.raises(FieldMismatch):
        F9.element(1) * QI.one()


ORACLE_PRIMES = (2, 3, 5, 7, 101)


@given(st.data())
def test_quadext_and_tower_field_share_arithmetic(data):
    # QuadExt(p, e) and TowerField(p, 2e) are the same F_p[t]/(f) with the same
    # canonical f, and so are PrimeField(p) and TowerField(p, 1) with f = t:
    # every payload agrees, and the fields stay distinct types.
    quad, tower = data.draw(st.sampled_from(
        [(QuadExt(p, e), TowerField(p, 2 * e)) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1))]
        + [(PrimeField(p), TowerField(p, 1)) for p in ORACLE_PRIMES]))
    p = quad.p
    payloads = st.tuples(*[st.integers(0, p - 1)] * tower.degree)
    a, b = data.draw(payloads), data.draw(payloads)
    qa, qb, ta, tb = quad.element(a), quad.element(b), tower.element(a), tower.element(b)
    assert (qa + qb).payload == (ta + tb).payload
    assert (qa * qb).payload == (ta * tb).payload
    if not qa.is_zero():
        assert qa.inverse().payload == ta.inverse().payload
    assert str(qa) == str(ta)
    assert quad.element(str(ta)).payload == tower.element(str(qa)).payload == a
    assert quad != tower
    with pytest.raises(FieldMismatch):
        qa + ta


@given(st.sampled_from(ORACLE_PRIMES), st.data())
def test_prime_field_matches_int_arithmetic_mod_p(p, data):
    field = PrimeField(p)
    a, b = (data.draw(st.integers(-3 * p, 3 * p)) for _ in range(2))
    x, y = field.element(a), field.element(b)
    assert x.payload == (a % p,)
    assert str(x + y) == str((a + b) % p)
    assert str(x - y) == str((a - b) % p)
    assert str(x * y) == str(a * b % p)
    assert str(-x) == str(-a % p)
    if a % p:
        assert str(x.inverse()) == str(pow(a, -1, p))
    else:
        with pytest.raises(DivisionByZero):
            x.inverse()
    assert field.element(f" {a} ") == x
    assert hash(field.element(str(x))) == hash(x)
    assert (x.sort_key() < y.sort_key()) == (a % p < b % p)
    assert [str(z) for z in field.elements()] == [str(n) for n in range(p)]


def test_element_text_round_trip():
    for field in (F4, F9, F16, F25):
        for x in field.elements():
            assert field.element(str(x)) == x
    for x in [gaussian(0), gaussian(3, 4), gaussian(Fraction(3, 2), Fraction(-7, 5)),
              gaussian(-1), gaussian(0, 1), gaussian(0, -1)]:
        assert QI.element(str(x)) == x


def test_element_parse_rejects_garbage():
    with pytest.raises(ParseError):
        F9.element("1+2s")
    with pytest.raises(ParseError):
        QI.element("3//2")
    for text in ("t", "1+2", "2t"):
        with pytest.raises(ParseError):
            PrimeField(5).element(text)


@settings(max_examples=200)
@given(st.sampled_from([F9, QuadExt(2, 2), tower_field(2, 3)]),
       st.integers(0, 10**18), st.integers(0, 6))
@example(F9, 10**6, 1)
@example(tower_field(2, 3), 2, 1)
def test_powers_of_t_in_element_text_reduce_by_squaring(field, k, c):
    t = field.element("t")
    assert field.element(f"t^{k}") == t ** k
    assert field.element(f"1+{c}t^{k}-t") == field.one() + field.element(c) * t ** k - t


def test_gaussian_exponents_above_the_digit_cap_are_refused():
    assert QI.element("1e5") == gaussian(100000)
    assert QI.element("2-3e2i") == gaussian(2, -300)
    for text in ("1e10000000", "1+1e4301i", "1e10_000_000", "1.5e" + "9" * 5000):
        with pytest.raises(ParseError, match="exponent"):
            QI.element(text)


def test_fixed_field_coordinates():
    x = F9.element("1+2t")
    a, b = fixed_field_coordinates(x)
    assert (str(a), str(b)) == ("1", "2")
    re, im = fixed_field_coordinates(gaussian(Fraction(3, 2), 4))
    assert (str(re), str(im)) == ("3/2", "4")


def test_parse_field_round_trips():
    for field in (F4, F9, F16, F25, PrimeField(11), QI):
        assert parse_field(field.shorthand()) == field
        assert parse_field(field.to_json()) == field
        assert parse_field(field) is field
    assert make_field("quadext", p=3, e=1) == F9


def test_generator_satisfies_modulus():
    for field in (F4, F9, F16, F25):
        t = field.generator()
        coeffs = field.modulus
        acc = field.zero()
        power = field.one()
        for c in coeffs:
            acc = acc + power * field.element(c)
            power = power * t
        assert acc.is_zero()


def test_frobenius_is_q_power():
    for field in (F4, F9, F16, F25):
        for x in field.elements():
            assert involute(x) == x ** field.q


def test_element_hash_consistent_with_eq():
    seen = {}
    for x in F9.elements():
        seen[x] = str(x)
    assert len(seen) == 9
    assert seen[F9.element("1+2t")] == "1+2t"
    assert isinstance(F9.element(0), Element)


# Fields that multiply, invert and conjugate through log/antilog tables once
# built, and fields above the table cap, which always take the polynomial route
# (t^18 + t^7 + 1 is irreducible over F_2).
TABLED = [PrimeField(2), PrimeField(101), QuadExt(2, 1), QuadExt(2, 4), QuadExt(3, 2),
          QuadExt(13, 1), QuadExt(5, 2), tower_field(2, 5)]
ABOVE_CAP = [PrimeField(65537), QuadExt(2, 9, modulus=(1,) + (0,) * 6 + (1,) + (0,) * 10 + (1,))]


@pytest.fixture(scope="module")
def warmed():
    """Square every element of each tabled field: that is as many products
    as the field has elements, which pays for its table."""
    for field in TABLED:
        for x in field.elements():
            x * x
    return TABLED + ABOVE_CAP


def _poly_sums(field, a, b):
    """a + b, a - b and -a of payloads by _fppoly alone."""
    p, pad, a0, b0 = field.p, field._pad, _fppoly.trim(a), _fppoly.trim(b)
    return pad(_fppoly.add(a0, b0, p)), pad(_fppoly.sub(a0, b0, p)), pad(_fppoly.neg(a0, p))


def _poly_route(field, a, b):
    """Product, inverse, involution and _poly_sums of payloads by _fppoly alone."""
    p, m, pad = field.p, field.modulus, field._pad
    a0, b0 = _fppoly.trim(a), _fppoly.trim(b)
    product = pad(_fppoly.mulmod(a0, b0, m, p))
    inverse = pad(_fppoly.invmod(a0, m, p)) if a0 else None
    image = pad(_fppoly.powmod(a0, field.q, m, p)) if isinstance(field, QuadExt) else a
    return product, inverse, image, _poly_sums(field, a, b)


@given(st.data())
def test_table_route_matches_the_polynomial_route(warmed, data):
    field = data.draw(st.sampled_from(warmed))
    assert (field._tables.log is None) == (field.order > starfield._TABLE_CAP)
    payloads = st.tuples(*[st.integers(0, field.p - 1)] * field.degree)
    x, y = field.element(data.draw(payloads)), field.element(data.draw(payloads))
    product, inverse, image, sums = _poly_route(field, x.payload, y.payload)
    assert (x * y).payload == product
    assert ((x + y).payload, (x - y).payload, (-x).payload) == sums
    assert x.conj().payload == image
    n = data.draw(st.integers(1, 3 * field.order))
    assert field.payload_pow(x.payload, n) == field._pad(
        _fppoly.powmod(_fppoly.trim(x.payload), n, field.modulus, field.p))
    if inverse is None:
        with pytest.raises(DivisionByZero):
            x.inverse()
    else:
        assert x.inverse().payload == inverse


@pytest.mark.parametrize("field", TABLED + ABOVE_CAP, ids=str)
def test_zero_operands_on_both_routes(warmed, field):
    zero, x = field.zero(), field.element(3)
    assert zero * x == x * zero == zero * zero == zero
    assert zero.conj() == zero
    with pytest.raises(DivisionByZero):
        zero.inverse()
    with pytest.raises(DivisionByZero):
        x / zero


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty table cache, so a test sees when its own work builds one."""
    monkeypatch.setattr(starfield, "_LOG_TABLES", {})


def test_tables_are_built_after_order_many_polynomial_operations(fresh_tables):
    field = QuadExt(3, 1)
    t = field.generator()
    for _ in range(field.order - 1):
        t * t
    assert field._tables.log is None
    t.conj()
    assert field._tables.log is not None


def test_short_lived_fields_build_no_table(fresh_tables):
    field = QuadExt(89, 1)
    field.generator()
    assert field._tables.log is None
    no_cloning_witness(field, 3)
    assert field._tables.log is None


def test_equal_descriptors_share_one_table(fresh_tables):
    first, second = QuadExt(3, 3), QuadExt(3, 3)
    assert first is not second and first._tables is second._tables
    a = first.element("1+t^4")
    assert first._tables.log is None
    for _ in range(first.order):
        a * a
    assert second._tables.log is not None
    x = second.element("2+t^5")
    assert (x * x.inverse()).payload == second.one().payload


# Sums, differences and negation on the table route go through Zech
# logarithms; _fppoly's coefficientwise arithmetic is their oracle.
ZECH_ALL_PAIRS = [PrimeField(2), QuadExt(2, 1), tower_field(2, 3), QuadExt(3, 1), QuadExt(5, 1)]
ZECH_SEEDED = [QuadExt(5, 2), QuadExt(2, 4)]


def _built(field):
    """field, with the log tables of its p and modulus built now."""
    tables = starfield._log_tables(field.p, field.modulus)
    tables._build()
    assert field._tables is tables and tables.zech is not None
    return field


@pytest.mark.parametrize("field", ZECH_ALL_PAIRS + ZECH_SEEDED, ids=str)
def test_zech_sums_match_the_polynomial_route(field):
    _built(field)
    payloads = [x.payload for x in field.elements()]
    if field in ZECH_SEEDED:
        rng = random.Random(f"zech:{field}")
        pairs = [(rng.choice(payloads), rng.choice(payloads)) for _ in range(4000)]
    else:
        pairs = itertools.product(payloads, repeat=2)
    for a, b in pairs:
        assert (field.payload_add(a, b), field.payload_sub(a, b),
                field.payload_neg(a)) == _poly_sums(field, a, b), (a, b)


@pytest.mark.parametrize("field", ZECH_ALL_PAIRS + ZECH_SEEDED, ids=str)
def test_zech_sums_with_zero_and_opposite_operands(field):
    _built(field)
    zero = field.zero_payload
    for x in field.elements():
        a = x.payload
        minus_a = field.payload_neg(a)
        assert minus_a == _poly_sums(field, a, a)[2]
        assert field.payload_add(a, zero) == field.payload_add(zero, a) == a
        assert field.payload_sub(a, zero) == a and field.payload_sub(zero, a) == minus_a
        assert field.payload_add(a, minus_a) == field.payload_sub(a, a) == zero
        if field.p == 2:
            assert field.payload_add(a, a) == zero and minus_a == a


def test_sums_take_the_polynomial_route_and_build_no_table(fresh_tables):
    field = QuadExt(3, 1)
    xs = list(field.elements())
    for x, y in itertools.product(xs, repeat=2):
        assert (x + y).payload == _poly_sums(field, x.payload, y.payload)[0]
        assert (x - y).payload == _poly_sums(field, x.payload, y.payload)[1]
        assert (-x).payload == _poly_sums(field, x.payload, y.payload)[2]
    assert field._tables.log is None
