"""Metamorphic relations: inputs changed in a way whose effect on the answer
is known in advance, so the answer needs no oracle of its own.

The unitary change of basis.  For U unitary, H' = U H U* and psi' = U psi,
measure(H', psi') keeps H's eigenvalues and modal verdicts and psi's total
form value, and its projected states are U times the old ones.  A Born
weight is <P psi, P psi> for the orthogonal projection P onto its
eigenspace, whatever eigenbasis the decomposition picks, so the weights
agree wherever both are defined.  Repeated eigenvalues are drawn on
purpose: only an eigenspace of dimension 2 or more makes a weight depend
on the orthogonalization of its basis.
"""

import random

from hypothesis import given, settings, strategies as st

from exactqt import (
    GaussianRationals,
    Matrix,
    QuadExt,
    conj_transpose,
    make_observable,
    measure,
)
from exactqt.sampling import fixed_pool, random_state, random_unitary

FIELDS = [QuadExt(3, 1), QuadExt(5, 1), QuadExt(7, 1), GaussianRationals()]


def _observable_matrix(rng, field, dim):
    """V diag(lams) V*, lams drawn with repetition from three fixed elements."""
    pool = fixed_pool(field, 3)[:3]
    lams = [pool[rng.randrange(3)] for _ in range(dim)]
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
    assert after.total_form_value == before.total_form_value
    for old, new in zip(before.outcomes, after.outcomes):
        assert new.projected_state == u @ old.projected_state
        if old.weight_defined and new.weight_defined:
            assert new.born_weight == old.born_weight
