"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every check is exact (no tolerances) and deterministic (fixed seeds, no
wall-clock dependence beyond the stated runtime ceilings).  Oracles are
kept independent of the code under test: brute-force eigen scans, minor
expansion ranks, direct root scans.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from exactqt import (
    GaussianRationals,
    Matrix,
    PrimeField,
    QuadExt,
    StateVector,
    build_embedding,
    char_poly,
    conj_transpose,
    curves_meet,
    eigen_decompose,
    eval_closure,
    eval_finite,
    extend_state,
    fixed_points,
    herm_form,
    is_hermitian,
    is_product,
    is_unitary,
    make_observable,
    measure,
    no_cloning_witness,
    null_space,
    projector_onto,
    tensor_state,
)
from exactqt.autocode import SemilinearMap
from exactqt.errors import EvenExtensionDegree
from exactqt.sampling import (
    random_element,
    random_hermitian,
    random_invertible,
    random_observable_matrix,
    random_state,
    random_unitary,
)
from exactqt._intnum import is_prime
from exactqt.lefschetz import TernaryForm

F4 = QuadExt(2, 1)
F9 = QuadExt(3, 1)
F25 = QuadExt(5, 1)
QI = GaussianRationals()


def test_c01_sesquilinear_identities():
    start = time.monotonic()
    # exhaustive sweep: every vector pair and scalar pair in dimension 2
    vectors = [StateVector(F4, list(c))
               for c in itertools.product(F4.elements(), repeat=2)]
    scalars = list(F4.elements())
    for x in vectors:
        for y in vectors:
            base = herm_form(x, y)
            assert base.conj() == herm_form(y, x)
            for r in scalars:
                for s in scalars:
                    assert herm_form(x.scale(r), y.scale(s)) == r.conj() * base * s
    # 10,000 randomized cases round-robin across the larger backends
    rng = random.Random(101)
    combos = [(f, d) for f in (F9, F25, QI) for d in (2, 3, 4)]
    for i in range(10_000):
        field, dim = combos[i % len(combos)]
        x = random_state(rng, field, dim)
        y = random_state(rng, field, dim)
        r = random_element(rng, field)
        s = random_element(rng, field)
        base = herm_form(x, y)
        assert herm_form(x.scale(r), y.scale(s)) == r.conj() * base * s
        assert base.conj() == herm_form(y, x)
    assert time.monotonic() - start <= 30.0


def test_c02_unitary_and_hermitian_generators():
    start = time.monotonic()
    rng = random.Random(211)
    for field in (PrimeField(7), F9, QI):
        for i in range(1_000):
            dim = 2 + i % 3
            u = random_unitary(rng, field, dim)
            assert is_unitary(u)
            x = random_state(rng, field, dim)
            y = random_state(rng, field, dim)
            assert herm_form(u @ x, u @ y) == herm_form(x, y)
        for i in range(1_000):
            dim = 2 + i % 3
            h = random_hermitian(rng, field, dim)
            assert is_hermitian(h)
            assert all(c.is_fixed() for c in char_poly(h).coeffs)
    assert time.monotonic() - start <= 30.0


def brute_rank(m: Matrix) -> int:
    """Largest k with a nonzero k x k minor, determinants by Laplace expansion."""

    def det(rows, cols):
        if len(rows) == 1:
            return m.entry(rows[0], cols[0])
        total = m.owner.zero()
        for idx, r in enumerate(rows):
            cofactor = det(rows[:idx] + rows[idx + 1:], cols[1:])
            term = m.entry(r, cols[0]) * cofactor
            total = total + term if idx % 2 == 0 else total - term
        return total

    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        found = any(
            not det(list(rs), list(cs)).is_zero()
            for rs in itertools.combinations(range(m.rows), k)
            for cs in itertools.combinations(range(m.cols), k))
        if not found:
            break
        best = k
    return best


def test_c03_eigen_matches_brute_scan():
    start = time.monotonic()
    rng = random.Random(307)
    combos = [(f, d) for f in (F4, F9, F25) for d in (2, 3, 4)]
    for i in range(500):
        field, dim = combos[i % len(combos)]
        m = Matrix(field, [[random_element(rng, field) for _ in range(dim)]
                           for _ in range(dim)])
        dec = eigen_decompose(m)
        brute = {}
        for lam in field.elements():
            space = null_space(m - Matrix.scalar(field, dim, lam))
            if space:
                brute[str(lam)] = [tuple(str(c) for c in v) for v in space]
        got = {str(p.value): [tuple(str(c) for c in v) for v in p.basis]
               for p in dec.pairs}
        assert got == brute
        assert dec.complete == (sum(len(b) for b in brute.values()) == dim)
    assert time.monotonic() - start <= 60.0


def test_c04_born_weight_sum_conservation():
    start = time.monotonic()
    rng = random.Random(401)
    for field, dims in ((F9, (2, 3)), (F25, (2, 3, 4)), (QI, (2, 3, 4))):
        for i in range(500):
            dim = dims[i % len(dims)]
            obs = make_observable(random_observable_matrix(rng, field, dim))
            psi = random_state(rng, field, dim)
            report = measure(obs, psi)
            total = field.zero()
            for o in report.outcomes:
                assert o.born_weight is not None
                total = total + o.born_weight
            assert total == herm_form(psi, psi)
    # pinned reference measurements
    rep = measure(make_observable(Matrix(F9, [["0", "t"], ["2t", "0"]])),
                  StateVector(F9, ["1", "0"]))
    assert {str(o.eigenvalue): str(o.born_weight) for o in rep.outcomes} == \
        {"1": "2", "2": "2"}
    assert str(rep.total_form_value) == "1"
    rep = measure(make_observable(Matrix.diagonal(QI, ["1", "2"])),
                  StateVector(QI, ["3", "4i"]))
    assert {str(o.eigenvalue): str(o.born_weight) for o in rep.outcomes} == \
        {"1": "9", "2": "16"}
    assert str(rep.total_form_value) == "25"
    assert time.monotonic() - start <= 60.0


def test_c05_projector_laws_exhaustive():
    nonzero = [StateVector(F9, list(c))
               for c in itertools.product(F9.elements(), repeat=2)]
    nonzero = [v for v in nonzero if not v.is_zero()]
    aniso = [v for v in nonzero if not herm_form(v, v).is_zero()]
    assert len(aniso) == 48
    for v in aniso:
        p = projector_onto([v])
        assert p @ p == p
        assert conj_transpose(p) == p
    checked = 0
    for v in aniso:
        for w in aniso:
            if not herm_form(v, w).is_zero():
                continue
            p = projector_onto([v, w])
            assert p @ p == p
            assert conj_transpose(p) == p
            assert p == Matrix.identity(F9, 2)  # orthogonal pair spans the plane
            checked += 1
    assert checked == 48 * 8


def test_c06_no_cloning_witness_all_backends():
    for field in (PrimeField(7), F9, F25, QI):
        for dim in (2, 3, 4):
            w = no_cloning_witness(field, dim)
            assert w.cloning_impossible
            # independent re-verification: minor-expansion ranks
            assert brute_rank(w.linear_image.reshape()) == 2
            assert brute_rank(w.required_clone.reshape()) == 1
            # and the product/entanglement decision agrees
            ok, _ = is_product(w.required_clone)
            assert ok
            ok, factors = is_product(w.linear_image)
            assert not ok and factors is None
            # the pinned clone really is s (x) s
            assert w.required_clone.vector == \
                tensor_state(w.superposition, w.superposition).vector


def test_c07_embedding_certificate_and_form_transport():
    start = time.monotonic()
    emb = build_embedding(F9, 3)
    cert = emb.certificate
    assert cert.elements_checked == 9
    assert cert.addition_pairs == 81 and cert.multiplication_pairs == 81
    assert cert.injective and cert.involution_compatible
    rng = random.Random(701)
    for i in range(1_000):
        dim = 2 + i % 2
        x = random_state(rng, F9, dim)
        y = random_state(rng, F9, dim)
        assert emb(herm_form(x, y)) == herm_form(extend_state(emb, x),
                                                 extend_state(emb, y))
    with pytest.raises(EvenExtensionDegree):
        build_embedding(F9, 2)
    assert time.monotonic() - start <= 30.0


def test_c08_closure_roots_and_conic_intersections():
    start = time.monotonic()
    sentence = "E x . x*x + 1 = 0"
    for p in range(2, 100):
        if not is_prime(p):
            continue
        v = eval_closure(sentence, p)
        assert v.value is True and v.certified
        assert v.witness_level <= 2
        field = PrimeField(p)
        scan = any((x * x + field.one()).is_zero() for x in field.elements())
        assert eval_finite(sentence, field) is scan
        assert scan == (p % 4 == 1 or p == 2)
        assert (v.witness_level == 1) == scan
    rng = random.Random(809)
    monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    for p in (3, 5):
        field = PrimeField(p)
        for _ in range(100):
            f = _random_conic(rng, field, monos)
            g = _random_conic(rng, field, monos)
            r = curves_meet(p, f, g, max_level=4)
            assert r.meet is True  # never Unknown inside the degree bound
            assert r.level <= 4
    assert time.monotonic() - start <= 120.0


def _random_conic(rng, field, monos):
    while True:
        coeffs = {m: field.element(rng.randrange(field.order)) for m in monos}
        if any(not c.is_zero() for c in coeffs.values()):
            return TernaryForm(field, coeffs)


def test_c09_semilinear_squares_and_fixed_points():
    rng = random.Random(907)
    for i in range(1_000):
        dim = 1 + i % 3
        phi = SemilinearMap(random_invertible(rng, F9, dim), i % 2)
        square = phi.compose(phi)
        assert square.twist == 0
        x = random_state(rng, F9, dim)
        c = random_element(rng, F9)
        # the certificate is checkable: squaring composes, and the square
        # is genuinely linear (scalars pass through unconjugated)
        assert square.apply(x) == phi.apply(phi.apply(x))
        assert square.apply(x.scale(c)) == square.apply(x).scale(c)
        if phi.twist == 0:
            got = {tuple(p.coordinates) for p in fixed_points(phi, max_ext=1).points}
            assert got == _eigen_directions(phi.matrix)


def _eigen_directions(m: Matrix) -> set:
    """All projective fixed directions of a linear map, from its eigenspaces."""
    field = m.owner
    out = set()
    for pair in eigen_decompose(m).pairs:
        if pair.value.is_zero():
            continue
        k = len(pair.basis)
        for coeffs in itertools.product(field.elements(), repeat=k):
            v = StateVector(field, [field.zero()] * m.rows)
            for c, b in zip(coeffs, pair.basis):
                v = v + b.scale(c)
            if v.is_zero():
                continue
            pivot = next(c for c in v if not c.is_zero())
            out.add(tuple(str(c) for c in v.scale(pivot.inverse())))
    return out


def test_c10_selftest_runs_are_byte_identical():
    runs = [
        subprocess.run([sys.executable, "-m", "exactqt", "selftest"],
                       capture_output=True, text=True)
        for _ in range(2)
    ]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout and runs[0].stdout
    assert json.loads(runs[0].stdout)["passed"] is True


# exactqt.__all__ as released: the public surface, name for name and in order.
PUBLIC_NAMES = [
    "BipartiteState", "CurvesMeetReport", "DimensionMismatch", "EigenDecomposition",
    "EigenPair", "Element", "EmbeddingCertificate", "EvenExtensionDegree",
    "ExactQTError", "FieldDescriptor", "FieldEmbedding", "FieldMismatch",
    "FixedPointReport", "GaussianRationals", "ImproperField", "IsotropicVector",
    "Matrix", "MeasurementOutcome", "MeasurementReport", "NoCloningWitness",
    "NonSquare", "NotHermitian", "NotHomogeneous", "NotUnitary", "Observable",
    "ParseError", "Polynomial", "PrimeField", "ProjectivePoint", "QuadExt",
    "SCAN_LIMIT", "SampleReport", "SemilinearMap", "StateVector", "TernaryForm",
    "TowerVerdict", "WrongField", "ZeroState", "alpha_rename", "build_embedding",
    "char_poly", "collapse", "conj_transpose", "curves_meet", "eigen_decompose",
    "eval_closure", "eval_finite", "evolve", "expand_literals", "extend_matrix",
    "extend_state", "fixed_field_coordinates", "fixed_points", "fixed_pool",
    "free_variables", "herm_form", "involute", "is_fixed", "is_hermitian",
    "is_product", "is_unitary", "lefschetz_sample", "make_field", "make_observable",
    "measure", "no_cloning_witness", "norm_one_elements", "norm_split",
    "null_space", "parse_field", "parse_sentence", "parse_ternary_polynomial",
    "pretty", "probability_profile", "projector_onto", "random_element",
    "random_hermitian", "random_invertible", "random_matrix",
    "random_observable_matrix", "random_semilinear", "random_state",
    "random_unitary", "rank", "rotation_block", "solve", "square_is_linear",
    "tensor_op", "tensor_state", "__version__",
]


def test_public_surface_is_pinned():
    import exactqt
    assert exactqt.__all__ == PUBLIC_NAMES
    assert all(hasattr(exactqt, name) for name in PUBLIC_NAMES)
    namespace: dict = {}
    exec("from exactqt import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)
