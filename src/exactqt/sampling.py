"""Deterministic random generators for states, operators, and maps.

Everything takes an explicit random.Random so callers control seeding;
nothing here touches global RNG state.  Unitaries are built as products of
elementary ones (permutations, norm-one phases, 2x2 rotation blocks), so
they are exactly unitary by construction, and rotation blocks draw (a, b)
with N(a) + N(b) = 1 from norm preimages over finite fields and from a
catalog of scaled Pythagorean triples over the Gaussian rationals.
"""

from __future__ import annotations

import functools
import random

from .forms import Matrix, Polynomial, StateVector, conj_transpose, rank
from .starfield import Element, FieldDescriptor, GaussianRationals, QuadExt

# (a, b, c) with a^2 + b^2 = c^2: the source of Q(i) elements of norm a^2/c^2
_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))
# Q(i)'s phases as canonical payloads (re, im, denominator): the four units,
# then (a + b i)/c for each triple, with its signs and its legs swapped
_GAUSSIAN_PHASES = ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)) + tuple(
    (re, im, c) for a, b, c in _TRIPLES
    for re, im in ((a, b), (a, -b), (-a, b), (-a, -b), (b, a), (b, -a), (-b, a), (-b, -a)))


def random_element(rng: random.Random, field: FieldDescriptor) -> Element:
    if isinstance(field, GaussianRationals):
        # re = a/c and im = b/e, drawn in that order
        a, c = rng.randint(-9, 9), rng.randint(1, 4)
        b, e = rng.randint(-9, 9), rng.randint(1, 4)
        return field.element((a * e, b * c, c * e))
    return field.element(tuple(rng.randrange(field.p) for _ in range(field.degree)))


def random_state(rng: random.Random, field: FieldDescriptor, dim: int) -> StateVector:
    while True:
        v = StateVector(field, [random_element(rng, field) for _ in range(dim)])
        if not v.is_zero():
            return v


def random_matrix(rng: random.Random, field: FieldDescriptor, rows: int, cols: int) -> Matrix:
    return Matrix(field, [[random_element(rng, field) for _ in range(cols)]
                          for _ in range(rows)])


def random_invertible(rng: random.Random, field: FieldDescriptor, dim: int) -> Matrix:
    while True:
        m = random_matrix(rng, field, dim, dim)
        if rank(m) == dim:
            return m


def random_hermitian(rng: random.Random, field: FieldDescriptor, dim: int) -> Matrix:
    """Entrywise construction: fixed diagonal, conjugate-mirrored off-diagonal."""
    entries = [[field.zero()] * dim for _ in range(dim)]
    for i in range(dim):
        entries[i][i] = random_fixed(rng, field)
        for j in range(i + 1, dim):
            x = random_element(rng, field)
            entries[i][j] = x
            entries[j][i] = x.conj()
    return Matrix(field, entries)


def random_fixed(rng: random.Random, field: FieldDescriptor) -> Element:
    if isinstance(field, GaussianRationals):
        return field.element(rng.randint(-9, 9))
    pool = field.fixed_elements()
    return pool[rng.randrange(len(pool))]


def fixed_pool(field: FieldDescriptor, need: int) -> list[Element]:
    """At least `need` distinct fixed elements, in canonical order."""
    if isinstance(field, GaussianRationals):
        return [field.element(k) for k in range(need)]
    pool = list(field.fixed_elements())
    if len(pool) < need:
        raise ValueError(
            f"{field.shorthand()} has only {len(pool)} fixed elements, need {need}")
    return pool


def norm_one_elements(field: FieldDescriptor) -> list[Element]:
    """Elements with x^gamma x = 1, the phases of elementary unitaries."""
    if isinstance(field, GaussianRationals):
        return [Element(field, x) for x in _GAUSSIAN_PHASES]
    return _norm_pool(field, field.one())


@functools.lru_cache(maxsize=None)
def _norm_minus_one(field: QuadExt) -> Element:
    """An element nu of F_{q^2} with nu nu^gamma = -1, for odd p.

    i, the first root of z^2 + 1, serves when it is fixed (N(i) = i^2).
    Otherwise -1 is a non-square of F_q, so p = 3 (mod 4), and i^gamma = -i
    gives N(a + b i) = a^2 + b^2 for a, b in F_p: the first b with -1 - b^2
    a square mod p, and a = its root (-1 - b^2)^((p+1)/4), make nu.
    """
    i = Polynomial(field, [1, 0, 1]).roots()[0]
    if i.is_fixed():
        return i
    p = field.p
    for b in range(p):
        c = (-1 - b * b) % p
        a = pow(c, (p + 1) // 4, p)
        if a * a % p == c:
            return field.element(a) + field.element(b) * i
    raise ArithmeticError("-1 is a sum of two squares mod p")  # unreachable


def _norm_preimage(mu: Element) -> Element:
    """A lambda with lambda lambda^gamma = mu, for mu in the fixed field F_q^*.

    The first root z of z^2 - mu is fixed when mu is a square of F_q (always
    in characteristic 2), and then N(z) = z^2 = mu.  Otherwise z^gamma = -z,
    so N(z) = -mu and nu z, with N(nu) = -1, has norm mu.
    """
    z = Polynomial(mu.owner, [-mu, 0, 1]).roots()[0]
    return z if z.is_fixed() else _norm_minus_one(mu.owner) * z


@functools.lru_cache(maxsize=None)
def _norm_pool(field: FieldDescriptor, s: Element) -> list[Element]:
    """Every x in a finite field with x^gamma x = s, s fixed, in element order.

    Under the identity involution these are the roots of z^2 - s.  Under
    Frobenius the norm is onto F_q, so the preimages of s != 0 are z U for
    any one preimage z, U the norm-one group.  By Hilbert's Theorem 90, U is
    {x^gamma / x}, and since 1, t is an F_q-basis it is {1} together with
    (t + a)^gamma / (t + a) for a in F_q: q + 1 elements, none listed twice.
    """
    if s.is_zero():
        return [s]
    if field.involution_order == 1:
        return Polynomial(field, [-s, 0, 1]).roots()
    if s != field.one():
        z = _norm_preimage(s)
        return sorted((z * u for u in _norm_pool(field, field.one())), key=Element.sort_key)
    shifts = [field.generator() + a for a in field.fixed_elements()]
    return sorted([s] + [x.conj() / x for x in shifts], key=Element.sort_key)


def norm_split(rng: random.Random, field: FieldDescriptor) -> tuple[Element, Element]:
    """A pair (a, b) with N(a) + N(b) = 1, N the conjugation norm."""
    if isinstance(field, GaussianRationals):
        a_leg, b_leg, hyp = _TRIPLES[rng.randrange(len(_TRIPLES))]
        if rng.random() < 0.5:
            a_leg, b_leg = b_leg, a_leg
        units = [Element(field, x) for x in _GAUSSIAN_PHASES[:4]]
        a = field.element((a_leg, 0, hyp)) * units[rng.randrange(4)]
        b = field.element((b_leg, 0, hyp)) * units[rng.randrange(4)]
        return a, b
    while True:
        # proper conjugations have surjective norms, so the first draw lands;
        # improper fields (norm = squaring) may need retries: a non-square's pool is empty
        a = random_element(rng, field)
        pool = _norm_pool(field, field.one() - a.conj() * a)
        if pool:
            return a, pool[rng.randrange(len(pool))]


def rotation_block(field: FieldDescriptor, a: Element, b: Element, d: Element) -> Matrix:
    """[[a, -b^gamma d], [b, a^gamma d]]; unitary when N(a)+N(b)=1 and N(d)=1."""
    return Matrix(field, [[a, -(b.conj() * d)], [b, a.conj() * d]])


def random_unitary(rng: random.Random, field: FieldDescriptor, dim: int) -> Matrix:
    """A product of elementary unitaries: exactly unitary by construction."""
    phases = norm_one_elements(field)
    one, zero = field.one(), field.zero()
    u = Matrix.identity(field, dim)
    for _ in range(dim + 2):
        kind = rng.randrange(3) if dim >= 2 else 1
        factor = [[one if r == c else zero for c in range(dim)] for r in range(dim)]
        if kind == 0:
            i, j = rng.sample(range(dim), 2)
            factor[i], factor[j] = factor[j], factor[i]
        elif kind == 1:
            for k in range(dim):
                factor[k][k] = phases[rng.randrange(len(phases))]
        else:
            i, j = sorted(rng.sample(range(dim), 2))
            a, b = norm_split(rng, field)
            d = phases[rng.randrange(len(phases))]
            block = rotation_block(field, a, b, d).entries
            factor[i][i], factor[i][j] = block[0]
            factor[j][i], factor[j][j] = block[1]
        u = Matrix(field, factor) @ u
    return u


def random_observable_matrix(rng: random.Random, field: FieldDescriptor, dim: int) -> Matrix:
    """U diag(distinct fixed) U*: hermitian, complete, weights all defined."""
    pool = fixed_pool(field, dim)
    lams = rng.sample(pool, dim)
    u = random_unitary(rng, field, dim)
    return u @ Matrix.diagonal(field, lams) @ conj_transpose(u)


def random_semilinear(rng: random.Random, field: FieldDescriptor, dim: int):
    from .autocode import SemilinearMap
    twist = rng.randrange(2) if field.involution_order == 2 else 0
    return SemilinearMap(random_invertible(rng, field, dim), twist)
