"""Tensor products, product detection, and the cloning obstruction."""

import itertools
import random

import pytest

from exactqt import (
    BipartiteState,
    GaussianRationals,
    Matrix,
    PrimeField,
    QuadExt,
    StateVector,
    herm_form,
    is_product,
    is_unitary,
    no_cloning_witness,
    tensor_op,
    tensor_state,
)
from exactqt.errors import DimensionMismatch, FieldMismatch, ZeroState
from exactqt.sampling import random_matrix, random_state, random_unitary

F4 = QuadExt(2, 1)
F9 = QuadExt(3, 1)
QI = GaussianRationals()
BACKENDS = [PrimeField(7), F9, QuadExt(5, 1), QI]


def test_row_major_kronecker_convention():
    x = StateVector(F9, ["1", "t"])
    y = StateVector(F9, ["2", "0", "1"])
    st = tensor_state(x, y)
    assert st.dims == (2, 3)
    # (x tensor y)[i*d2 + j] = x_i * y_j
    assert [str(e) for e in st.vector] == ["2", "0", "1", "2t", "0", "t"]
    assert st.reshape().entry(1, 2) == x[1] * y[2]


@pytest.mark.parametrize("field", BACKENDS)
def test_form_multiplicative_under_tensor(field):
    rng = random.Random(53)
    for _ in range(20):
        x = random_state(rng, field, 2)
        y = random_state(rng, field, 3)
        xp = random_state(rng, field, 2)
        yp = random_state(rng, field, 3)
        lhs = herm_form(tensor_state(x, y).vector, tensor_state(xp, yp).vector)
        assert lhs == herm_form(x, xp) * herm_form(y, yp)


def test_tensor_op_acts_factorwise():
    rng = random.Random(59)
    a = random_matrix(rng, F9, 2, 2)
    b = random_matrix(rng, F9, 3, 3)
    x = random_state(rng, F9, 2)
    y = random_state(rng, F9, 3)
    big = tensor_op(a, b)
    assert big.rows == 6 and big.cols == 6
    lhs = big @ tensor_state(x, y).vector
    ax, by = a @ x, b @ y
    if not ax.is_zero() and not by.is_zero():
        assert lhs == tensor_state(ax, by).vector


def _ref_tensor_op(a, b):
    """The Kronecker product entry by entry, with Element products."""
    return Matrix(a.owner, [[a.entry(i, j) * b.entry(k, l)
                             for j in range(a.cols) for l in range(b.cols)]
                            for i in range(a.rows) for k in range(b.rows)])


@pytest.mark.parametrize("field", BACKENDS + [QuadExt(5, 2)], ids=str)
def test_payload_tensor_products_match_the_entrywise_ones(field):
    rng = random.Random(67)
    for shape_a, shape_b in [((1, 1), (2, 3)), ((2, 3), (3, 1)), ((3, 3), (3, 3))]:
        a, b = random_matrix(rng, field, *shape_a), random_matrix(rng, field, *shape_b)
        assert tensor_op(a, b) == _ref_tensor_op(a, b)
        x = random_state(rng, field, shape_a[0])
        y = random_state(rng, field, shape_b[1])
        want = StateVector(field, [c * d for c in x.entries for d in y.entries])
        assert tensor_state(x, y) == BipartiteState((x.dim, y.dim), want)


def test_tensor_op_of_unitaries_is_unitary():
    rng = random.Random(61)
    for field in (F9, QI):
        u1 = random_unitary(rng, field, 2)
        u2 = random_unitary(rng, field, 3)
        assert is_unitary(tensor_op(u1, u2))


def test_tensor_rejects_mixed_fields_and_zero():
    with pytest.raises(FieldMismatch):
        tensor_state(StateVector(F9, ["1"]), StateVector(QI, ["1"]))
    with pytest.raises(ZeroState):
        tensor_state(StateVector(F9, ["0", "0"]), StateVector(F9, ["1", "0"]))
    with pytest.raises(DimensionMismatch):
        BipartiteState((2, 2), StateVector(F9, ["1", "0", "0"]))


def brute_is_product(state: BipartiteState) -> bool:
    d1, d2 = state.dims
    field = state.owner
    candidates = [list(c) for c in itertools.product(field.elements(), repeat=d1)]
    for left in candidates:
        lv = StateVector(field, left)
        if lv.is_zero():
            continue
        for right in itertools.product(field.elements(), repeat=d2):
            rv = StateVector(field, list(right))
            if rv.is_zero():
                continue
            if tensor_state(lv, rv).vector == state.vector:
                return True
    return False


def _ref_factors(state: BipartiteState):
    """The factors as is_product built them by entry scans of M[i][j] =
    vector[i*d2 + j]: the first nonzero row, and the column through its first
    nonzero entry over that entry."""
    d1, d2 = state.dims
    m = [[state.vector[i * d2 + j] for j in range(d2)] for i in range(d1)]
    pivot_row = next(i for i in range(d1) if any(not c.is_zero() for c in m[i]))
    pivot_col = next(j for j in range(d2) if not m[pivot_row][j].is_zero())
    pivot = m[pivot_row][pivot_col]
    left = StateVector(state.owner, [m[i][pivot_col] / pivot for i in range(d1)])
    right = StateVector(state.owner, m[pivot_row])
    return left, right


def test_is_product_matches_brute_force_exhaustive_f4():
    for c in itertools.product(F4.elements(), repeat=4):
        v = StateVector(F4, list(c))
        if v.is_zero():
            continue
        state = BipartiteState((2, 2), v)
        flag, factors = is_product(state)
        assert flag == brute_is_product(state)
        if flag:
            left, right = factors
            assert tensor_state(left, right).vector == state.vector
            assert factors == _ref_factors(state)
            pivot = next(e for e in left if not e.is_zero())
            assert pivot == F4.one()
        else:
            assert factors is None


def test_entangled_pair_detected():
    e00 = StateVector(F9, ["1", "0", "0", "1"])
    flag, factors = is_product(BipartiteState((2, 2), e00))
    assert not flag and factors is None
    flag, factors = is_product(tensor_state(
        StateVector(QI, ["2", "3i"]), StateVector(QI, ["1/2", "5"])))
    assert flag
    left, right = factors
    assert str(left[0]) == "1"
    state = tensor_state(StateVector(QI, ["0", "2-i", "3i"]), StateVector(QI, ["0", "1/2", "5+i"]))
    flag, factors = is_product(state)
    assert flag and factors == _ref_factors(state)
    assert [str(c) for c in factors[0]] == ["0", "1", "-3/5+6/5i"]


@pytest.mark.parametrize("field", BACKENDS)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_no_cloning_witness(field, dim):
    w = no_cloning_witness(field, dim)
    assert w.cloning_impossible
    assert w.linear_image_rank == 2
    assert w.required_clone_rank == 1
    # the witness is the linearity image of cloning e_1 + e_2; re-derive it
    e1 = StateVector.basis_vector(field, dim, 0)
    e2 = StateVector.basis_vector(field, dim, 1)
    expect = StateVector(
        field,
        [a + b for a, b in zip(tensor_state(e1, e1).vector,
                               tensor_state(e2, e2).vector)])
    assert w.linear_image.vector == expect
    assert w.required_clone.vector == tensor_state(
        w.superposition, w.superposition).vector
    flag, _ = is_product(w.linear_image)
    assert not flag
    flag, _ = is_product(w.required_clone)
    assert flag


def test_witness_serializes():
    doc = no_cloning_witness(F9, 2).to_json()
    assert doc["linear_image_rank"] == 2
    assert doc["required_clone_rank"] == 1
    assert doc["cloning_impossible"] is True
