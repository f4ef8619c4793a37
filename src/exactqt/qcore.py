"""Observables, measurement, collapse, projectors, and unitary evolution.

States are nonzero vectors taken projectively; isotropic states (nonzero x
with <x, x> = 0) are unavoidable over F_{q^2} and are admitted everywhere.
Measurement reports two layers per outcome: the modal layer (is the
projection nonzero at all) and the Born layer (an exact form-valued weight),
where the latter is only defined when the eigenspace admits an orthogonal
basis of non-isotropic vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

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
    conj_transpose,
    eigen_decompose,
    herm_form,
    is_hermitian,
    is_unitary,
    solve,
)
from .starfield import Element, GaussianRationals


@dataclass(frozen=True)
class Observable:
    """A Hermitian matrix bundled with its verified spectral data."""

    matrix: Matrix
    spectrum: EigenDecomposition

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


@dataclass(frozen=True)
class MeasurementOutcome:
    eigenvalue: Element
    projected_state: StateVector
    modal_possible: bool
    born_weight: Element | None

    @property
    def weight_defined(self) -> bool:
        return self.born_weight is not None


@dataclass(frozen=True)
class MeasurementReport:
    outcomes: tuple[MeasurementOutcome, ...]
    total_form_value: Element

    def outcome_for(self, eigenvalue: Element) -> MeasurementOutcome:
        for outcome in self.outcomes:
            if outcome.eigenvalue == eigenvalue:
                return outcome
        raise ImpossibleOutcome(f"{eigenvalue} is not an eigenvalue")


def _eigen_blocks(obs: Observable, psi: StateVector) -> list[tuple[EigenPair, StateVector]]:
    """The checks measure and collapse share, then one solve for psi's
    coordinates in the full eigenbasis (unique by completeness), split into
    one coordinate vector per eigenpair, sliced as payloads."""
    if psi.owner != obs.owner:
        raise FieldMismatch("state and observable live in different fields")
    if psi.dim != obs.dim:
        raise DimensionMismatch(f"dim {psi.dim} vs observable dim {obs.dim}")
    if psi.is_zero():
        raise ZeroState("states are nonzero vectors")
    if not obs.complete:
        raise IncompleteSpectrum("measurement needs a complete eigendecomposition")
    f = obs.owner
    basis = [v for pair in obs.spectrum.pairs for v in pair.basis]
    coeffs = iter(solve(Matrix.from_columns(f, basis), psi)._data)
    return [(pair, StateVector._of(f, pair.dimension, tuple(islice(coeffs, pair.dimension))))
            for pair in obs.spectrum.pairs]


def _project(pair: EigenPair, coords: StateVector) -> StateVector:
    """The eigenspace component whose coordinates in pair.basis are coords."""
    return Matrix.from_columns(coords.owner, pair.basis) @ coords


def _orthogonalize(basis: tuple[StateVector, ...]) -> list[tuple[StateVector, Element]] | None:
    """Greedy Gram-Schmidt in input order: each orthogonal vector u with its
    <u, u>, computed once; None on an isotropic pivot.

    No reordering heuristics: the first vanishing <u, u> aborts, which keeps
    the procedure deterministic and surfaces genuinely isotropic eigenspaces.
    """
    ortho: list[tuple[StateVector, Element]] = []
    for v in basis:
        u = v
        for w, norm in ortho:
            u = u - w.scale(herm_form(w, u) / norm)
        norm = herm_form(u, u)
        if norm.is_zero():
            return None
        ortho.append((u, norm))
    return ortho


def measure(obs: Observable, psi: StateVector) -> MeasurementReport:
    """Exact measurement report for a complete observable and nonzero state.

    Per eigenvalue: the projection of psi obtained from the full-eigenbasis
    decomposition, the modal verdict (projection nonzero), and the Born
    weight sum(involute(c) * c / <b, b>) over an orthogonalized eigenspace
    basis with c = <b, psi>, or None when orthogonalization hits an
    isotropic pivot.  Weights, when all defined, sum to <psi, psi>.
    """
    outcomes = []
    for pair, coords in _eigen_blocks(obs, psi):
        projected = _project(pair, coords)
        ortho = _orthogonalize(pair.basis)
        weight = None
        if ortho is not None:
            weight = obs.owner.zero()
            for b, norm in ortho:
                c = herm_form(b, psi)
                weight = weight + c.conj() * c / norm
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
