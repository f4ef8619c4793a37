"""Observables, measurement reports, collapse, and unitary evolution."""

import random
from fractions import Fraction

import pytest

from exactqt import (
    GaussianRationals,
    Matrix,
    QuadExt,
    StateVector,
    collapse,
    evolve,
    herm_form,
    involute,
    make_observable,
    measure,
    probability_profile,
    projector_onto,
)
from exactqt import qcore
from exactqt.errors import (
    ImpossibleOutcome,
    IncompleteSpectrum,
    NotHermitian,
    NotUnitary,
    WrongField,
    ZeroState,
)
from exactqt.sampling import (
    fixed_pool,
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


@pytest.mark.parametrize("eigenvalues, calls", [((0, 1, 2, 3, 4), 11), ((0, 0, 2, 3, 4), 12)])
def test_measure_computes_each_form_value_once(monkeypatch, eigenvalues, calls):
    """Over F_625 at dim 5: one <b, b> per orthogonalized vector b, shared by
    the Gram-Schmidt step and the Born weight, one <b, psi> per vector, one
    <w, v> per Gram-Schmidt projection, and <psi, psi> once."""
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
    assert sum(x == y != psi for x, y in seen) == 5
    assert sum(y == psi != x for x, y in seen) == 5
    assert seen.count((psi, psi)) == 1
    weights = [o.born_weight for o in report.outcomes]
    assert sum(weights[1:], weights[0]) == report.total_form_value


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
