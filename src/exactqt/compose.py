"""Bipartite composition: Kronecker products, product detection, no-cloning.

Vectors compose row-major: (x tensor y)[i*d2 + j] = x_i * y_j, and operators
follow the matching block convention, so (A tensor B)(x tensor y) equals
(A x) tensor (B y) on the nose.
"""

from __future__ import annotations


from ._record import _Record
from .errors import DimensionMismatch, FieldMismatch, ZeroState
from .forms import Matrix, StateVector, rank
from .starfield import FieldDescriptor


class BipartiteState(_Record):
    """A nonzero vector of length d1*d2 remembering its factor dimensions."""

    dims: tuple[int, int]
    vector: StateVector

    def __post_init__(self):
        d1, d2 = self.dims
        if d1 < 1 or d2 < 1:
            raise DimensionMismatch("factor dimensions must be positive")
        if self.vector.dim != d1 * d2:
            raise DimensionMismatch(
                f"vector dim {self.vector.dim} is not {d1}*{d2}")
        if self.vector.is_zero():
            raise ZeroState("bipartite states are nonzero")

    @property
    def owner(self) -> FieldDescriptor:
        return self.vector.owner

    def reshape(self) -> Matrix:
        """The d1 x d2 coefficient matrix M[i][j] = vector[i*d2 + j], on the vector's payloads."""
        return Matrix._of(self.owner, self.dims, self.vector._data)


def tensor_state(x: StateVector, y: StateVector) -> BipartiteState:
    if x.owner != y.owner:
        raise FieldMismatch("tensor factors live in different fields")
    if x.is_zero() or y.is_zero():
        raise ZeroState("tensor factors must be nonzero states")
    mul = x.owner.payload_mul
    data = tuple([mul(a, b) for a in x._data for b in y._data])
    return BipartiteState((x.dim, y.dim), StateVector._of(x.owner, x.dim * y.dim, data))


def tensor_op(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with the same row-major convention as tensor_state:
    row (i, k) holds a[i][j] * b[k][l] in (j, l) order, on payloads."""
    if a.owner != b.owner:
        raise FieldMismatch("tensor factors live in different fields")
    mul = a.owner.payload_mul
    data = tuple([mul(x, y) for row_a in a._payload_rows() for row_b in b._payload_rows()
                  for x in row_a for y in row_b])
    return Matrix._of(a.owner, (a.rows * b.rows, a.cols * b.cols), data)


def is_product(state: BipartiteState) -> tuple[bool, tuple[StateVector, StateVector] | None]:
    """Decide productness via the rank of the reshaped coefficient matrix.

    On success the factors are canonical: the left factor's first nonzero
    entry is scaled to 1, which pins the scalar split deterministically.
    """
    m = state.reshape()
    if rank(m) != 1:
        return False, None
    right = next(row for row in map(m.row, range(m.rows)) if not row.is_zero())
    pivot_col, pivot = next((j, c) for j, c in enumerate(right) if not c.is_zero())
    left = m.column(pivot_col).scale(pivot.inverse())
    assert tensor_state(left, right).vector == state.vector
    return True, (left, right)


class NoCloningWitness(_Record):
    """A linearity obstruction to cloning a specific superposition.

    The candidate cloner is pinned on the basis inputs e_k tensor e_1 by
    L(e_k tensor e_1) = e_k tensor e_k.  Linearity then forces the image of
    s tensor e_1 for s = e_1 + e_2, and that image has tensor rank 2 while
    a genuine clone s tensor s has rank 1.
    """

    field: FieldDescriptor
    dim: int
    superposition: StateVector
    linear_image: BipartiteState
    required_clone: BipartiteState
    linear_image_rank: int
    required_clone_rank: int

    @property
    def cloning_impossible(self) -> bool:
        return self.linear_image_rank != self.required_clone_rank

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "dim": self.dim,
            "superposition": [str(c) for c in self.superposition],
            "linear_image": [str(c) for c in self.linear_image.vector],
            "linear_image_rank": self.linear_image_rank,
            "required_clone": [str(c) for c in self.required_clone.vector],
            "required_clone_rank": self.required_clone_rank,
            "cloning_impossible": self.cloning_impossible,
        }


def no_cloning_witness(field: FieldDescriptor, dim: int) -> NoCloningWitness:
    """Construct the rank-2 versus rank-1 witness in dimension dim >= 2."""
    if dim < 2:
        raise ValueError("cloning witness needs dimension at least 2")
    e1 = StateVector.basis_vector(field, dim, 0)
    e2 = StateVector.basis_vector(field, dim, 1)
    s = e1 + e2
    linear_image = BipartiteState(
        (dim, dim), tensor_state(e1, e1).vector + tensor_state(e2, e2).vector)
    required = tensor_state(s, s)
    witness = NoCloningWitness(
        field=field,
        dim=dim,
        superposition=s,
        linear_image=linear_image,
        required_clone=required,
        linear_image_rank=rank(linear_image.reshape()),
        required_clone_rank=rank(required.reshape()),
    )
    assert witness.linear_image_rank == 2 and witness.required_clone_rank == 1
    return witness
