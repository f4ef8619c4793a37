"""Metamorphic relations: inputs changed in a way whose effect on the answer
is known in advance, so the answer needs no oracle of its own.

A Born weight is <P psi, P psi> for the orthogonal projector P onto its
eigenspace, defined exactly when the eigenvalue is fixed, so it does not
depend on which eigenbasis the decomposition picks.  Repeated eigenvalues
are drawn on purpose: an eigenspace of dimension 2 or more has many bases,
and a weight read off one basis order would change with it.

The unitary change of basis.  For U unitary, H' = U H U* and psi' = U psi,
measure(H', psi') keeps H's eigenvalues, modal verdicts, Born weights
(defined or not) and psi's total form value, and its projected states are
U times the old ones.

The change of basis inside an eigenspace.  Replacing each eigenbasis B by
B A, A invertible, spans the same eigenspaces, so every weight and every
projection stays as it was.

The Frobenius relation.  sigma(x) = x^p is a field automorphism of F_{q^2}
that commutes with the involution, so applying it entrywise to H and psi
maps each eigenvalue, projection and weight by sigma.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from exactqt import (
    EigenDecomposition,
    EigenPair,
    GaussianRationals,
    Matrix,
    QuadExt,
    StateVector,
    conj_transpose,
    make_observable,
    measure,
)
from exactqt.qcore import Observable
from exactqt.sampling import (
    fixed_pool,
    random_hermitian,
    random_invertible,
    random_state,
    random_unitary,
)

FINITE = [QuadExt(2, 1), QuadExt(3, 1), QuadExt(2, 2), QuadExt(5, 1), QuadExt(7, 1)]
FIELDS = FINITE + [GaussianRationals()]


def _observable_matrix(rng, field, dim):
    """V diag(lams) V*, lams drawn with repetition from at most three fixed
    elements."""
    pool = fixed_pool(field, 2)[:3]
    lams = [pool[rng.randrange(len(pool))] for _ in range(dim)]
    v = random_unitary(rng, field, dim)
    return v @ Matrix.diagonal(field, lams) @ conj_transpose(v)


@settings(max_examples=40)
@given(field=st.sampled_from(FIELDS), dim=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_unitary_change_of_basis_keeps_the_measurement(field, dim, seed):
    rng = random.Random(seed)
    h = _observable_matrix(rng, field, dim)
    psi = random_state(rng, field, dim)
    u = random_unitary(rng, field, dim)
    before = measure(make_observable(h), psi)
    after = measure(make_observable(u @ h @ conj_transpose(u)), u @ psi)
    assert [o.eigenvalue for o in after.outcomes] == [o.eigenvalue for o in before.outcomes]
    assert [o.modal_possible for o in after.outcomes] == \
        [o.modal_possible for o in before.outcomes]
    assert [o.weight_defined for o in after.outcomes] == \
        [o.weight_defined for o in before.outcomes]
    assert [o.born_weight for o in after.outcomes] == [o.born_weight for o in before.outcomes]
    assert after.total_form_value == before.total_form_value
    for old, new in zip(before.outcomes, after.outcomes):
        assert new.projected_state == u @ old.projected_state


@settings(max_examples=300)
@given(field=st.sampled_from(FIELDS), dim=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_change_of_basis_inside_an_eigenspace_keeps_the_measurement(field, dim, seed):
    rng = random.Random(seed)
    h = _observable_matrix(rng, field, dim)
    psi = random_state(rng, field, dim)
    obs = make_observable(h)
    pairs = []
    for pair in obs.spectrum.pairs:
        a = random_invertible(rng, field, pair.dimension)
        mixed = Matrix.from_columns(field, pair.basis) @ a
        pairs.append(EigenPair(pair.value, tuple(mixed.column(j) for j in range(mixed.cols))))
    before = measure(obs, psi)
    after = measure(Observable(h, EigenDecomposition(tuple(pairs), obs.complete)), psi)
    assert after == before


@settings(max_examples=60)
@given(field=st.sampled_from(FINITE), dim=st.integers(2, 4), hermitian=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_frobenius_maps_the_measurement(field, dim, hermitian, seed):
    rng = random.Random(seed)
    h = random_hermitian(rng, field, dim) if hermitian else _observable_matrix(rng, field, dim)
    obs = make_observable(h)
    assume(obs.complete)
    psi = random_state(rng, field, dim)
    p = field.p

    def sigma_state(v):
        return StateVector(field, [x ** p for x in v.entries])

    before = measure(obs, psi)
    after = measure(make_observable(h.map_entries(lambda x: x ** p)), sigma_state(psi))
    mapped = {o.eigenvalue ** p: o for o in before.outcomes}
    assert sorted(mapped, key=lambda x: x.sort_key()) == [o.eigenvalue for o in after.outcomes]
    for new in after.outcomes:
        old = mapped[new.eigenvalue]
        assert new.projected_state == sigma_state(old.projected_state)
        assert new.modal_possible == old.modal_possible
        assert new.born_weight == (None if old.born_weight is None else old.born_weight ** p)
    assert after.total_form_value == before.total_form_value ** p
