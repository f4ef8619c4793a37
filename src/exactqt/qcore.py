"""Observables, measurement, collapse, projectors, and unitary evolution.

States are nonzero vectors taken projectively; isotropic states (nonzero x
with <x, x> = 0) are unavoidable over F_{q^2} and are admitted everywhere.
Measurement reports two layers per outcome: the modal layer (is the
projection nonzero at all) and the Born layer (an exact form-valued weight
<P psi, P psi>, P the orthogonal projector onto the eigenspace), defined
exactly when the eigenvalue is fixed by the involution.  The eigenspace
need not have an orthogonal basis of non-isotropic vectors: over F_2 the
span of (1,1,0) and (1,0,1) has none, yet its projector exists.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from ._record import _Record
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    ImpossibleOutcome,
    IncompleteSpectrum,
    IsotropicVector,
    NotHermitian,
    NotOrthogonal,
    NotUnitary,
    WrongField,
    ZeroState,
)
from .forms import (
    EigenDecomposition,
    EigenPair,
    Matrix,
    StateVector,
    _inverse,
    conj_transpose,
    eigen_decompose,
    herm_form,
    is_hermitian,
    is_unitary,
)
from .starfield import Element, GaussianRationals


class Observable(_Record):
    """A Hermitian matrix bundled with its verified spectral data.

    _basis_inverse caches the inverse of the eigenbasis matrix (the
    eigenvectors as columns, pair by pair) from the first measure or
    collapse on.  It is a class attribute, not a field, so equality,
    hashing and repr do not see it.
    """

    matrix: Matrix
    spectrum: EigenDecomposition
    _basis_inverse = None

    @property
    def complete(self) -> bool:
        return self.spectrum.complete

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def owner(self):
        return self.matrix.owner


def make_observable(m: Matrix) -> Observable:
    """Check Hermiticity, decompose, and re-verify every eigenpair exactly."""
    if not is_hermitian(m):
        raise NotHermitian("observables must satisfy conj_transpose(A) = A")
    spectrum = eigen_decompose(m)
    for pair in spectrum.pairs:
        for v in pair.basis:
            if m @ v != v.scale(pair.value):
                raise ArithmeticError("eigenpair failed re-verification")
    return Observable(m, spectrum)


def evolve(u: Matrix, psi: StateVector) -> StateVector:
    """Apply a unitary to a state; exact unitarity is a precondition."""
    if not is_unitary(u):
        raise NotUnitary("evolution requires conj_transpose(U) @ U = I exactly")
    if u.cols != psi.dim:
        raise DimensionMismatch(f"{u.cols} columns vs dim {psi.dim}")
    return u @ psi


class MeasurementOutcome(_Record):
    """One eigenvalue of a measurement: psi's projection onto its eigenspace,
    whether that projection is nonzero, and the Born weight <P psi, P psi>,
    None when the eigenvalue is not fixed (its eigenspace is isotropic)."""

    eigenvalue: Element
    projected_state: StateVector
    modal_possible: bool
    born_weight: Element | None

    @property
    def weight_defined(self) -> bool:
        return self.born_weight is not None


class MeasurementReport(_Record):
    outcomes: tuple[MeasurementOutcome, ...]
    total_form_value: Element

    def outcome_for(self, eigenvalue: Element) -> MeasurementOutcome:
        for outcome in self.outcomes:
            if outcome.eigenvalue == eigenvalue:
                return outcome
        raise ImpossibleOutcome(f"{eigenvalue} is not an eigenvalue")


def _eigen_blocks(obs: Observable, psi: StateVector) -> list[tuple[EigenPair, StateVector]]:
    """The checks measure and collapse share, then psi's coordinates in the
    full eigenbasis (unique by completeness), split into one coordinate
    vector per eigenpair, sliced as payloads.  The coordinates are one
    product with the eigenbasis inverse, computed on the observable's first
    call and cached in it."""
    if psi.owner != obs.owner:
        raise FieldMismatch("state and observable live in different fields")
    if psi.dim != obs.dim:
        raise DimensionMismatch(f"dim {psi.dim} vs observable dim {obs.dim}")
    if psi.is_zero():
        raise ZeroState("states are nonzero vectors")
    if not obs.complete:
        raise IncompleteSpectrum("measurement needs a complete eigendecomposition")
    f = obs.owner
    inverse = obs._basis_inverse
    if inverse is None:
        basis = [v for pair in obs.spectrum.pairs for v in pair.basis]
        inverse = _inverse(Matrix.from_columns(f, basis))
        object.__setattr__(obs, "_basis_inverse", inverse)  # a cache; obs is frozen
    coeffs = iter((inverse @ psi)._data)
    return [(pair, StateVector._of(f, pair.dimension, tuple(islice(coeffs, pair.dimension))))
            for pair in obs.spectrum.pairs]


def _project(pair: EigenPair, coords: StateVector) -> StateVector:
    """The eigenspace component whose coordinates in pair.basis are coords."""
    return Matrix.from_columns(coords.owner, pair.basis) @ coords


def measure(obs: Observable, psi: StateVector) -> MeasurementReport:
    """Exact measurement report for a complete observable and nonzero state.

    Per eigenvalue: the projection of psi obtained from the full-eigenbasis
    decomposition, the modal verdict (projection nonzero), and the Born
    weight <P psi, P psi>, or None when the eigenvalue is not fixed.

    H is Hermitian, so Hv = lam v and Hw = mu w give (conj(lam) - mu)<v, w> = 0.
    For lam fixed, E_lam is orthogonal to every other eigenspace.  The spectrum
    is complete, so V = E_lam + (the rest), and the form, nondegenerate on V,
    is nondegenerate on E_lam: the orthogonal projector P onto E_lam exists,
    the projection computed here is P psi, and <psi, P psi> = <P psi, P psi>.
    That is c* G^-1 c for any basis B of E_lam, with G = B*B and c = B* psi,
    so no basis order enters.  For lam not fixed, E_lam is totally isotropic
    (G = 0) and has no weight.  Weights, when all defined, sum to <psi, psi>.
    """
    outcomes = []
    for pair, coords in _eigen_blocks(obs, psi):
        projected = _project(pair, coords)
        weight = herm_form(projected, projected) if pair.value.is_fixed() else None
        outcomes.append(
            MeasurementOutcome(pair.value, projected, not projected.is_zero(), weight)
        )
    return MeasurementReport(tuple(outcomes), herm_form(psi, psi))


def collapse(obs: Observable, psi: StateVector, eigenvalue: Element) -> StateVector:
    """Post-measurement state: the eigenspace component of psi, exactly.

    Idempotent on its outcome: collapsing the result on the same eigenvalue
    returns the identical vector, hence the same projective point.
    """
    target = next(((pair, coords) for pair, coords in _eigen_blocks(obs, psi)
                   if pair.value == eigenvalue), None)
    if target is None:
        raise ImpossibleOutcome(f"{eigenvalue} is not an eigenvalue of the observable")
    projected = _project(*target)
    if projected.is_zero():
        raise ImpossibleOutcome(f"state has zero component in eigenspace of {eigenvalue}")
    return projected


def projector_onto(vectors: list[StateVector]) -> Matrix:
    """P = sum of v v* / <v, v> over pairwise orthogonal non-isotropic vectors,
    one product: the columns v / <v, v> times the adjoint of the columns v.

    The result satisfies P @ P = P and conj_transpose(P) = P exactly.
    """
    if not vectors:
        raise DimensionMismatch("projector needs at least one vector")
    f = vectors[0].owner
    dim = vectors[0].dim
    for v in vectors:
        if v.owner != f:
            raise FieldMismatch("projector vectors live in different fields")
        if v.dim != dim:
            raise DimensionMismatch("projector vectors have mixed dimensions")
        if v.is_zero():
            raise ZeroState("projector vectors must be nonzero")
        if herm_form(v, v).is_zero():
            raise IsotropicVector(f"{v!r} has zero form value")
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            if not herm_form(vectors[a], vectors[b]).is_zero():
                raise NotOrthogonal(f"vectors {a} and {b} are not orthogonal")
    scaled = [v.scale(herm_form(v, v).inverse()) for v in vectors]
    total = Matrix.from_columns(f, scaled) @ conj_transpose(Matrix.from_columns(f, vectors))
    assert total @ total == total and conj_transpose(total) == total
    return total


def probability_profile(psi: StateVector) -> list[Fraction]:
    """Entrywise a_k^2 + b_k^2 for a state over Q(i); Q(i)-specific.

    The profile is invariant under entrywise multiplication by unit-norm
    scalars, so it is a function on the torus orbit of the state.
    """
    if not isinstance(psi.owner, GaussianRationals):
        raise WrongField("probability profiles are defined over Q(i) only")
    return [Fraction(a * a + b * b, d * d) for a, b, d in (x.payload for x in psi.entries)]
