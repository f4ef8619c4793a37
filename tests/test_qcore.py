"""Observables, measurement reports, collapse, and unitary evolution.

The Born weights are checked against two routes the library does not take:
c* G^-1 c from the Gram matrix G = B*B of the eigenbasis B, and greedy
Gram-Schmidt in basis order (the old route, kept here as an oracle), whose
weight must agree wherever it finds one.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactqt import (
    GaussianRationals,
    Matrix,
    PrimeField,
    QuadExt,
    StateVector,
    collapse,
    conj_transpose,
    evolve,
    herm_form,
    involute,
    make_observable,
    measure,
    parse_field,
    probability_profile,
    projector_onto,
    rank,
    solve,
)
from exactqt import qcore
from exactqt.errors import (
    ImpossibleOutcome,
    IncompleteSpectrum,
    NotHermitian,
    NotOrthogonal,
    NotUnitary,
    WrongField,
    ZeroState,
)
from exactqt.sampling import (
    fixed_pool,
    random_hermitian,
    random_observable_matrix,
    random_state,
    random_unitary,
)

F9 = QuadExt(3, 1)
F25 = QuadExt(5, 1)
QI = GaussianRationals()


def test_make_observable_demands_hermitian():
    with pytest.raises(NotHermitian):
        make_observable(Matrix(F9, [["0", "1"], ["t", "0"]]))


@pytest.mark.parametrize("eigenvalues, calls", [((0, 1, 2, 3, 4), 6), ((0, 0, 2, 3, 4), 5)])
def test_measure_computes_each_form_value_once(monkeypatch, eigenvalues, calls):
    """Over F_625 at dim 5: one <P psi, P psi> per outcome, on its
    projection, and <psi, psi> once."""
    f = QuadExt(5, 2)
    obs = make_observable(Matrix.diagonal(f, eigenvalues))
    psi = StateVector(f, ["1", "t", "2", "1+t", "3"])
    seen = []

    def counting(x, y):
        seen.append((x, y))
        return herm_form(x, y)

    monkeypatch.setattr(qcore, "herm_form", counting)
    report = measure(obs, psi)
    assert len(seen) == calls
    assert [x for x, y in seen if x == y != psi] == [o.projected_state for o in report.outcomes]
    assert seen.count((psi, psi)) == 1
    weights = [o.born_weight for o in report.outcomes]
    assert sum(weights[1:], weights[0]) == report.total_form_value


def _orthogonalize(basis):
    """Greedy Gram-Schmidt in input order: each orthogonal vector u with its
    <u, u>; None on an isotropic pivot."""
    ortho = []
    for v in basis:
        u = v
        for w, norm in ortho:
            u = u - w.scale(herm_form(w, u) / norm)
        norm = herm_form(u, u)
        if norm.is_zero():
            return None
        ortho.append((u, norm))
    return ortho


def _greedy_weight(basis, psi):
    """The old route: sum of N(<u, psi>) / <u, u> over the greedy basis."""
    ortho = _orthogonalize(basis)
    if ortho is None:
        return None
    weight = psi.owner.zero()
    for u, norm in ortho:
        c = herm_form(u, psi)
        weight = weight + c.conj() * c / norm
    return weight


def _gram_weight(basis, psi):
    """c* G^-1 c with G = B*B and c = B* psi, or None when G is singular."""
    b = Matrix.from_columns(psi.owner, basis)
    gram, c = conj_transpose(b) @ b, conj_transpose(b) @ psi
    if rank(gram) < len(basis):
        return None
    return herm_form(c, solve(gram, c))


ORACLE_FIELDS = [PrimeField(2), PrimeField(5), F9, QuadExt(2, 2), F25, QuadExt(7, 1), QI]


def _draw_observable(rng, field, dim, hermitian):
    """A random Hermitian matrix with complete spectrum (finite fields only:
    over Q(i) one is next to never complete), else U diag(lams) U* with lams
    drawn with repetition from at most three fixed elements."""
    if hermitian and not isinstance(field, GaussianRationals):
        while True:
            obs = make_observable(random_hermitian(rng, field, dim))
            if obs.complete:
                return obs
    pool = fixed_pool(field, 2)[:3]
    lams = [pool[rng.randrange(len(pool))] for _ in range(dim)]
    u = random_unitary(rng, field, dim)
    return make_observable(u @ Matrix.diagonal(field, lams) @ conj_transpose(u))


@settings(max_examples=300)
@given(field=st.sampled_from(ORACLE_FIELDS), dim=st.integers(2, 4), hermitian=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_born_weight_is_the_projector_weight(field, dim, hermitian, seed):
    rng = random.Random(seed)
    obs = _draw_observable(rng, field, dim, hermitian)
    psi = random_state(rng, field, dim)
    report = measure(obs, psi)
    for pair, outcome in zip(obs.spectrum.pairs, report.outcomes):
        assert outcome.born_weight == _gram_weight(pair.basis, psi)
        assert outcome.weight_defined == pair.value.is_fixed()
        greedy = _greedy_weight(pair.basis, psi)
        if greedy is not None:
            assert outcome.born_weight == greedy


def _pinned(spec, rows, state):
    f = parse_field(spec)
    obs = make_observable(Matrix(f, [row.split(",") for row in rows.split(";")]))
    return obs, StateVector(f, state.split(","))


def test_alternating_eigenspace_over_f2_has_a_projector_weight():
    """Over F_2, E_0 of the all-ones J is span{(1,1,0), (1,0,1)}, G is
    [[0, 1], [1, 0]] and every vector of E_0 is isotropic, so no orthogonal
    non-isotropic basis exists and greedy finds no weight.  The projector
    P = B G^-1 B* does exist, and its weight <P psi, P psi> is reported."""
    obs, psi = _pinned("prime:2", "1,1,1;1,1,1;1,1,1", "0,1,0")
    f = psi.owner
    zero_space = obs.spectrum.pairs[0]
    assert str(zero_space.value) == "0" and zero_space.dimension == 2
    b = Matrix.from_columns(f, zero_space.basis)
    gram = conj_transpose(b) @ b
    assert gram == Matrix(f, [["0", "1"], ["1", "0"]])
    for x, y in [(0, 1), (1, 0), (1, 1)]:
        v = b @ StateVector(f, [x, y])
        assert herm_form(v, v).is_zero()
    assert _greedy_weight(zero_space.basis, psi) is None
    b_star = conj_transpose(b)
    p = b @ Matrix.from_columns(f, [solve(gram, b_star.column(j)) for j in range(3)])
    assert p @ p == p and conj_transpose(p) == p and p @ b == b
    report = measure(obs, psi)
    zero, one = report.outcomes
    assert zero.projected_state == p @ psi
    assert (str(zero.born_weight), str(one.born_weight)) == ("0", "1")
    assert zero.born_weight + one.born_weight == report.total_form_value == f.one()


@pytest.mark.parametrize("spec, rows, state, eigenvalue, weight", [
    ("prime:5", "1,4,1;4,2,2;1,2,2", "0,3,2", "4", "2"),
    ("quadext:3:1", "1,1+t,2t;1+2t,2,2+2t;t,2+t,1", "0,t,2+t", "0", "2"),
], ids=["prime:5", "quadext:3:1"])
def test_weight_where_greedy_meets_an_isotropic_pivot(spec, rows, state, eigenvalue, weight):
    """A 2-dim nondegenerate eigenspace on which greedy Gram-Schmidt, in
    null_space order, meets an isotropic pivot."""
    obs, psi = _pinned(spec, rows, state)
    outcome = measure(obs, psi).outcome_for(psi.owner.element(eigenvalue))
    pair = next(p for p in obs.spectrum.pairs if p.value == outcome.eigenvalue)
    assert pair.dimension == 2 and _greedy_weight(pair.basis, psi) is None
    assert str(outcome.born_weight) == weight == str(_gram_weight(pair.basis, psi))


def test_f9_reference_measurement():
    # [[0,t],[2t,0]] has eigenvalues 1, 2 with weights 2, 2; the weight sum
    # 2 + 2 = 1 equals <psi,psi> for psi = e_1
    obs = make_observable(Matrix(F9, [["0", "t"], ["2t", "0"]]))
    psi = StateVector(F9, ["1", "0"])
    report = measure(obs, psi)
    assert str(report.total_form_value) == "1"
    got = {str(o.eigenvalue): str(o.born_weight) for o in report.outcomes}
    assert got == {"1": "2", "2": "2"}
    assert all(o.modal_possible for o in report.outcomes)
    total = report.outcomes[0].born_weight + report.outcomes[1].born_weight
    assert total == report.total_form_value


def test_gaussian_reference_measurement():
    obs = make_observable(Matrix.diagonal(QI, ["1", "2"]))
    psi = StateVector(QI, ["3", "4i"])
    report = measure(obs, psi)
    assert str(report.total_form_value) == "25"
    got = {str(o.eigenvalue): str(o.born_weight) for o in report.outcomes}
    assert got == {"1": "9", "2": "16"}


@pytest.mark.parametrize("field,dims", [(F9, (2, 3)), (F25, (2, 3, 4)), (QI, (2, 3, 4))])
def test_weight_sum_conservation_random(field, dims):
    rng = random.Random(41)
    for dim in dims:
        for _ in range(15):
            obs = make_observable(random_observable_matrix(rng, field, dim))
            psi = random_state(rng, field, dim)
            report = measure(obs, psi)
            total = field.zero()
            for o in report.outcomes:
                assert o.weight_defined
                total = total + o.born_weight
            assert total == herm_form(psi, psi)


def test_measure_requires_complete_spectrum():
    h = Matrix(F9, [["0", "t", "0"], ["2t", "0", "t"], ["0", "2t", "1"]])
    obs = make_observable(h)
    assert not obs.complete
    with pytest.raises(IncompleteSpectrum):
        measure(obs, StateVector(F9, ["1", "0", "0"]))


def test_measure_rejects_zero_state():
    obs = make_observable(Matrix.diagonal(F9, ["1", "2"]))
    with pytest.raises(ZeroState):
        measure(obs, StateVector(F9, ["0", "0"]))


def test_isotropic_eigenvector_leaves_weight_undefined():
    # all entries fixed, so Hermitian; eigenvalues 2+t and 2+2t are a
    # conjugate pair and both eigenspaces are isotropic lines
    obs = make_observable(Matrix(F9, [["0", "1"], ["1", "1"]]))
    assert obs.complete
    report = measure(obs, StateVector(F9, ["1", "0"]))
    assert sorted(str(o.eigenvalue) for o in report.outcomes) == ["2+2t", "2+t"]
    for o in report.outcomes:
        assert o.born_weight is None
        assert not o.weight_defined
        assert o.modal_possible


def test_modal_possibility_independent_of_weight():
    obs = make_observable(Matrix.diagonal(F9, ["0", "1"]))
    report = measure(obs, StateVector(F9, ["1", "0"]))
    hit = report.outcome_for(F9.element(0))
    miss = report.outcome_for(F9.element(1))
    assert hit.modal_possible and not miss.modal_possible
    assert str(miss.born_weight) == "0"
    with pytest.raises(ImpossibleOutcome):
        report.outcome_for(F9.element(2))


def test_outcomes_sorted_by_eigenvalue_order():
    obs = make_observable(Matrix.diagonal(F25, ["3", "1", "2"]))
    report = measure(obs, StateVector(F25, ["1", "1", "1"]))
    values = [str(o.eigenvalue) for o in report.outcomes]
    assert values == sorted(values, key=lambda s: F25.element(s).sort_key())


def test_evolve_preserves_form_and_rejects_shear():
    rng = random.Random(43)
    for field in (F9, F25, QI):
        u = random_unitary(rng, field, 3)
        x = random_state(rng, field, 3)
        y = random_state(rng, field, 3)
        assert herm_form(evolve(u, x), evolve(u, y)) == herm_form(x, y)
    with pytest.raises(NotUnitary):
        evolve(Matrix(F9, [["1", "1"], ["0", "1"]]), StateVector(F9, ["1", "0"]))


def projectively_equal(v: StateVector, w: StateVector) -> bool:
    pivot = next(i for i in range(v.dim) if not v[i].is_zero())
    if w[pivot].is_zero():
        return False
    c = w[pivot] / v[pivot]
    return w == v.scale(c)


def test_collapse_idempotent_projectively():
    rng = random.Random(47)
    for field in (F9, QI):
        for _ in range(10):
            obs = make_observable(random_observable_matrix(rng, field, 3))
            psi = random_state(rng, field, 3)
            report = measure(obs, psi)
            lam = next(o.eigenvalue for o in report.outcomes if o.modal_possible)
            once = collapse(obs, psi, lam)
            twice = collapse(obs, once, lam)
            assert projectively_equal(once, twice)


def test_collapse_lands_in_eigenspace():
    obs = make_observable(Matrix(F9, [["0", "t"], ["2t", "0"]]))
    psi = StateVector(F9, ["1", "0"])
    phi = collapse(obs, psi, F9.element(1))
    assert obs.matrix @ phi == phi.scale(F9.element(1))


def test_collapse_refuses_impossible_branch():
    obs = make_observable(Matrix.diagonal(F9, ["0", "1"]))
    with pytest.raises(ImpossibleOutcome):
        collapse(obs, StateVector(F9, ["1", "0"]), F9.element(1))


def test_projector_refuses_vectors_that_are_not_orthogonal():
    # both non-isotropic (<v, v> = 1 and 2), but <v, w> = 1
    v, w = StateVector(QI, ["1", "0"]), StateVector(QI, ["1", "1"])
    with pytest.raises(NotOrthogonal, match="vectors 0 and 1 are not orthogonal"):
        projector_onto([v, w])


def test_projector_laws_spot_check():
    v = StateVector(F9, ["1", "t"])
    w = StateVector(F9, ["1", "2t"])
    assert herm_form(v, w).is_zero()
    p = projector_onto([v])
    assert p @ p == p
    assert Matrix(F9, [[str(involute(p.entry(j, i))) for j in range(2)]
                       for i in range(2)]) == p
    assert p @ v == v
    assert (p @ w).is_zero()
    both = projector_onto([v, w])
    assert both == Matrix.identity(F9, 2)
    # over Q(i) and F_25, entry by entry against the Element sum of
    # v_i v_j^gamma / <v, v>: a conjugation on the wrong side still gives an
    # idempotent Hermitian matrix, but not this one
    for field, v, w in [(QI, ["1+2i", "3"], ["3", "-1+2i"]), (F25, ["1", "t"], ["t", "1+t"])]:
        v, w = StateVector(field, v), StateVector(field, w)
        assert herm_form(v, w).is_zero()
        for vectors in ([v], [w], [v, w]):
            p = projector_onto(vectors)
            for i in range(2):
                for j in range(2):
                    expected = field.zero()
                    for u in vectors:
                        expected = expected + u[i] * u[j].conj() / herm_form(u, u)
                    assert p.entry(i, j) == expected
        p = projector_onto([v])
        assert p @ v == v
        assert (p @ w).is_zero()
        assert p != p.conj_entrywise()  # what the wrong side would give


def test_probability_profile_torus_invariance():
    psi = StateVector(QI, ["3+4i", "1/2", "2i"])
    profile = probability_profile(psi)
    assert profile == [Fraction(25), Fraction(1, 4), Fraction(4)]
    # 3/5+4/5 i has unit norm
    u = QI.element("3/5+4/5i")
    assert involute(u) * u == QI.one()
    scaled = StateVector(QI, [psi[0] * u, psi[1] * u, psi[2]])
    assert probability_profile(scaled) == profile
    with pytest.raises(WrongField):
        probability_profile(StateVector(F9, ["1", "0"]))


def test_observable_spectrum_is_cached_and_exposed():
    obs = make_observable(Matrix.diagonal(F9, ["1", "1", "2"]))
    assert obs.complete
    assert obs.dim == 3
    dims = {str(p.value): p.dimension for p in obs.spectrum.pairs}
    assert dims == {"1": 2, "2": 1}


def test_measure_and_collapses_invert_the_eigenbasis_once(monkeypatch):
    rng = random.Random(59)
    field = QuadExt(5, 2)
    obs = make_observable(random_observable_matrix(rng, field, 4))
    psi = random_state(rng, field, 4)
    inversions = []
    inverse = qcore._inverse
    monkeypatch.setattr(qcore, "_inverse", lambda m: inversions.append(m) or inverse(m))
    report = measure(obs, psi)
    possible = [o.eigenvalue for o in report.outcomes if o.modal_possible]
    for lam in possible + possible:
        assert collapse(obs, psi, lam) == report.outcome_for(lam).projected_state
    assert len(possible) >= 2 and len(inversions) == 1
    fresh = make_observable(obs.matrix)
    collapse(fresh, psi, possible[0])
    assert len(inversions) == 2


@pytest.mark.parametrize("field", [F9, F25, QI], ids=str)
def test_a_measured_observable_equals_a_fresh_one(field):
    rng = random.Random(61)
    m = random_observable_matrix(rng, field, 3)
    measured, fresh = make_observable(m), make_observable(m)
    measure(measured, random_state(rng, field, 3))
    assert measured._basis_inverse is not None and fresh._basis_inverse is None
    assert measured == fresh and repr(measured) == repr(fresh) and hash(measured) == hash(fresh)
