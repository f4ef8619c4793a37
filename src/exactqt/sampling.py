"""Deterministic random generators for states, operators, and maps.

Everything takes an explicit random.Random so callers control seeding;
nothing here touches global RNG state.  Unitaries are built as products of
elementary ones (permutations, norm-one phases, 2x2 rotation blocks), so
they are exactly unitary by construction, and rotation blocks draw (a, b)
with N(a) + N(b) = 1 from norm-preimage tables over finite fields and from
a catalog of scaled Pythagorean triples over the Gaussian rationals.
"""

from __future__ import annotations

import random

from .forms import Matrix, StateVector, conj_transpose, rank
from .starfield import Element, FieldDescriptor, GaussianRationals, _preimage_table

# (a, b, c) with a^2 + b^2 = c^2: the source of Q(i) elements of norm a^2/c^2
_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))

_NORM_TABLES: dict = {}
_NORM_ONE: dict = {}


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
    cached = _NORM_ONE.get(field)
    if cached is not None:
        return cached
    if isinstance(field, GaussianRationals):
        out = [field.element(unit) for unit in ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1))]
        for a, b, c in _TRIPLES:
            for re, im in ((a, b), (a, -b), (-a, b), (-a, -b), (b, a), (b, -a), (-b, a), (-b, -a)):
                out.append(field.element((re, im, c)))
    else:
        out = _norm_table(field)[field.one().payload]
    _NORM_ONE[field] = out
    return out


def _norm_table(field: FieldDescriptor) -> dict:
    """fixed payload s -> all x with x^gamma x = s, in canonical order."""
    return _preimage_table(_NORM_TABLES, field, lambda x: x.conj() * x)


def norm_split(rng: random.Random, field: FieldDescriptor) -> tuple[Element, Element]:
    """A pair (a, b) with N(a) + N(b) = 1, N the conjugation norm."""
    if isinstance(field, GaussianRationals):
        a_leg, b_leg, hyp = _TRIPLES[rng.randrange(len(_TRIPLES))]
        if rng.random() < 0.5:
            a_leg, b_leg = b_leg, a_leg
        units = norm_one_elements(field)[:4]
        a = field.element((a_leg, 0, hyp)) * units[rng.randrange(4)]
        b = field.element((b_leg, 0, hyp)) * units[rng.randrange(4)]
        return a, b
    tbl = _norm_table(field)
    while True:
        # proper conjugations have surjective norms, so the first draw lands;
        # improper fields (norm = squaring) may need retries
        a = random_element(rng, field)
        pool = tbl.get((field.one() - a.conj() * a).payload)
        if pool:
            return a, pool[rng.randrange(len(pool))]


def rotation_block(field: FieldDescriptor, a: Element, b: Element, d: Element) -> Matrix:
    """[[a, -b^gamma d], [b, a^gamma d]]; unitary when N(a)+N(b)=1 and N(d)=1."""
    return Matrix(field, [[a, -(b.conj() * d)], [b, a.conj() * d]])


def random_unitary(rng: random.Random, field: FieldDescriptor, dim: int) -> Matrix:
    """A product of elementary unitaries: exactly unitary by construction."""
    phases = norm_one_elements(field)
    u = Matrix.identity(field, dim)
    for _ in range(dim + 2):
        kind = rng.randrange(3) if dim >= 2 else 1
        if kind == 0:
            i, j = rng.sample(range(dim), 2)
            perm = [[field.one() if (r, c) in ((i, j), (j, i)) or (r == c and r not in (i, j))
                     else field.zero() for c in range(dim)] for r in range(dim)]
            u = Matrix(field, perm) @ u
        elif kind == 1:
            diag = Matrix.diagonal(field, [phases[rng.randrange(len(phases))]
                                           for _ in range(dim)])
            u = diag @ u
        else:
            i, j = sorted(rng.sample(range(dim), 2))
            a, b = norm_split(rng, field)
            d = phases[rng.randrange(len(phases))]
            block = rotation_block(field, a, b, d)
            emb = [[field.one() if r == c else field.zero() for c in range(dim)]
                   for r in range(dim)]
            emb[i][i] = block.entry(0, 0)
            emb[i][j] = block.entry(0, 1)
            emb[j][i] = block.entry(1, 0)
            emb[j][j] = block.entry(1, 1)
            u = Matrix(field, emb) @ u
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
