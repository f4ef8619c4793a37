"""Semilinear maps psi -> M psi^(gamma^e) and their projective fixed points.

twist e = 0 is plain linearity, e = 1 conjugates the state first.  Squaring
always lands back at twist 0, which is the dichotomy the compose rule makes
executable.  Fixed point search walks extension levels of the base field:
odd levels carry the conjugation with them, even levels only embed as rings
(the extended field's involution restricts to the identity on the base), so
even levels are opt-in for linear maps and meaningless for antilinear ones.

Linear maps list the points of each eigenspace.  Antilinear maps are
solved by Galois descent (Speiser's lemma; Serre, Local Fields, ch. X; see
_descent_points), not by a scan of the projective space, which the tests
keep as the oracle.  An eigenspace or norm class with more than SCAN_LIMIT
projective points lists a basis only, with a note, so bound_too_small
flags only a linear map's incomplete spectrum.
"""

from __future__ import annotations

import itertools

from ._record import _Record
from .embed import _inclusion, extend_matrix
from .errors import DimensionMismatch, FieldMismatch, ImproperField, NonSquare, WrongField
from .forms import Matrix, StateVector, eigen_decompose, rank
from .jsonio import matrix_to_json
from .sampling import _norm_preimage
from .starfield import Element, QuadExt

# An eigenspace or norm class with more projective points than this lists
# a basis only; the report says so instead of stalling.  The CLI surfaces
# the value.
SCAN_LIMIT = 20000


class SemilinearMap(_Record):
    """An invertible-by-intent map psi -> matrix @ psi^(gamma^twist)."""

    matrix: Matrix
    twist: int

    def __post_init__(self):
        if self.twist not in (0, 1):
            raise ValueError("twist must be 0 (linear) or 1 (antilinear)")
        if not self.matrix.is_square():
            raise NonSquare("semilinear maps act by square matrices")
        if self.twist == 1 and self.matrix.owner.involution_order == 1:
            raise ImproperField(
                "twist 1 needs a proper involution; this field's conjugation is trivial")

    @property
    def owner(self):
        return self.matrix.owner

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def apply(self, psi: StateVector) -> StateVector:
        if psi.owner != self.owner:
            raise FieldMismatch("state and map live in different fields")
        if psi.dim != self.dim:
            raise DimensionMismatch(f"state dim {psi.dim} != map dim {self.dim}")
        return self.matrix @ (psi.conj() if self.twist else psi)

    def compose(self, other: SemilinearMap) -> SemilinearMap:
        """self after other: twists add mod 2, the right matrix picks up
        the left twist's conjugation."""
        if other.owner != self.owner:
            raise FieldMismatch("cannot compose maps over different fields")
        if other.dim != self.dim:
            raise DimensionMismatch("cannot compose maps of different dimensions")
        m2 = other.matrix.conj_entrywise() if self.twist else other.matrix
        return SemilinearMap(self.matrix @ m2, (self.twist + other.twist) % 2)

    def to_json(self) -> dict:
        return {
            "field": self.owner.to_json(),
            "twist": self.twist,
            "matrix": matrix_to_json(self.matrix)["entries"],
        }


def square_is_linear(phi: SemilinearMap) -> bool:
    """Executable shape of the dichotomy: phi o phi never carries a twist."""
    return phi.compose(phi).twist == 0


class ProjectivePoint(_Record):
    """A normalized projective representative fixed by the extended map."""

    level: int
    coordinates: tuple[str, ...]
    multiplier: str
    form_compatible: bool


class FixedPointReport(_Record):
    twist: int
    max_ext: int
    points: tuple[ProjectivePoint, ...]
    levels_scanned: tuple[int, ...]
    bound_too_small: bool
    notes: tuple[str, ...]


def _normalize(v: StateVector) -> StateVector:
    pivot = next(c for c in v if not c.is_zero())
    return v.scale(pivot.inverse())


def _projective_count(order: int, dim: int) -> int:
    return (order**dim - 1) // (order - 1)


def _normalized_coordinates(elems, dim: int):
    """Every normalized coordinate list over elems, a field's elements in
    element order (zero first): zeros, then a 1, then free entries."""
    elems = list(elems)
    zero = elems[0]
    one = zero.owner.one()
    for pivot in range(dim):
        for tail in itertools.product(elems, repeat=dim - 1 - pivot):
            yield [zero] * pivot + [one] + list(tail)


def _span_points(basis, order: int, scalars, what: str, level: int, notes: list):
    """The normalized points span @ combo of the span of basis over a field of
    `order` elements, which scalars() lists in element order.  A line, or a span
    of more than SCAN_LIMIT points (noted, naming `what`), lists its normalized basis."""
    size = _projective_count(order, len(basis))
    if size > SCAN_LIMIT:
        notes.append(f"level {level}: {what} holds {size} projective points, "
                     f"over the scan limit {SCAN_LIMIT}; listing a basis only")
    if size > SCAN_LIMIT or size == 1:
        return [_normalize(b) for b in basis]
    span = Matrix.from_columns(basis[0].owner, basis)
    return [_normalize(span @ StateVector(span.owner, combo))
            for combo in _normalized_coordinates(scalars(), len(basis))]


def _eigen_points(mhat: Matrix, level: int, notes: list):
    """Fixed directions of a linear map: all points of each eigenspace."""
    field = mhat.owner
    dec = eigen_decompose(mhat)
    pts: list[tuple[StateVector, Element]] = []
    for pair in dec.pairs:
        for v in _span_points(pair.basis, field.order, field.elements,
                              f"eigenspace of {pair.value}", level, notes):
            pts.append((v, pair.value))
    return pts, dec.complete


def _descent_basis(mhat: Matrix, lam: Element, eigenbasis) -> list[StateVector]:
    """An F_q-basis of the vectors T fixes, T(v) = lam^-1 mhat v^gamma on E_mu.

    T is a semilinear involution of E_mu, so E_mu = F_{q^2} (x) Fix(T)
    (Speiser's lemma), and F_q-independent vectors of Fix(T) are independent
    over F_{q^2}.  v + T(v) and a v + T(a v), a the field generator, span
    Fix(T) over F_q as v runs over a basis of E_mu; the first of them that
    are independent over F_{q^2}, as many as E_mu's dimension, are a basis.
    """
    field = mhat.owner
    lam_inv = lam.inverse()
    kept: list[StateVector] = []
    for v in eigenbasis:
        for w in (v, v.scale(field.generator())):
            u = w + (mhat @ w.conj()).scale(lam_inv)
            if rank(Matrix.from_columns(field, kept + [u])) > len(kept):
                kept.append(u)
    return kept


def _descent_points(mhat: Matrix, level: int, notes: list):
    """Fixed directions of psi -> mhat psi^gamma by Galois descent, in the
    order of a projective scan (pivot position, then the tail's sort keys).

    If mhat psi^gamma = lambda psi, then psi is an eigenvector of
    N = mhat mhat^gamma for mu = lambda lambda^gamma in F_q^*.  For each such
    mu, with lambda any preimage (sampling._norm_preimage, shared with the
    unitary generator), the fixed directions of multiplier norm mu
    are the points of P(Fix(T)) over F_q (see _descent_basis); each one's
    multiplier is read off its normalized representative, as the scan does.
    """
    field = mhat.owner
    found = []
    for pair in eigen_decompose(mhat @ mhat.conj_entrywise()).pairs:
        if not pair.value.is_fixed():
            continue
        fix = _descent_basis(mhat, _norm_preimage(pair.value), pair.basis)
        for psi in _span_points(fix, field.q, field.fixed_elements,
                                f"norm class of {pair.value}", level, notes):
            pivot = next(i for i in range(psi.dim) if not psi[i].is_zero())
            found.append((pivot, psi.sort_key(), psi, (mhat @ psi.conj())[pivot]))
    found.sort(key=lambda item: item[:2])
    return [(psi, lam) for _, _, psi, lam in found]


def _in_subfield(v: StateVector, order: int) -> bool:
    """Whether every coordinate c of v has c^order = c, on payloads."""
    power = v.owner.payload_pow
    return all(power(c, order) == c for c in v._data)


def fixed_points(phi: SemilinearMap, max_ext: int = 3,
                 include_form_incompatible: bool = False) -> FixedPointReport:
    """Projective fixed points of phi over extension levels 1..max_ext.

    Each point appears at the lowest scanned level where it exists.  A
    normalized representative at level m whose coordinates all satisfy
    c^(Q^k) = c, with Q the base field's order, lies in the level-k subfield;
    when k < m is a scanned level dividing m, the point was listed there and
    is skipped at m.  The test needs no inclusion map, so it does not depend
    on how the levels are embedded in each other.

    bound_too_small means the search provably or possibly missed points
    within reach: an incomplete spectrum at the top scanned level.  Only
    linear maps can set it.  Antilinear maps are solved by Galois descent
    at every odd level, and no level is skipped.  An eigenspace (linear) or
    norm class (antilinear) of more than SCAN_LIMIT projective points lists
    a basis only, with a note; that does not set the flag.
    """
    base = phi.owner
    if not isinstance(base, QuadExt):
        raise WrongField("fixed point search walks the tower over a quadratic extension field")
    if max_ext < 1:
        raise ValueError("max_ext must be positive")
    if rank(phi.matrix) != phi.dim:
        raise ValueError("a singular matrix has no projective action")

    notes: list[str] = []
    levels_scanned: list[int] = []
    points: list[ProjectivePoint] = []
    top_complete = True

    for m in range(1, max_ext + 1):
        if m % 2 == 0:
            if phi.twist == 1:
                notes.append(f"level {m}: even extensions do not extend an antilinear map")
                continue
            if not include_form_incompatible:
                notes.append(
                    f"level {m}: skipped, the extended field's conjugation ignores the base "
                    "involution (pass include_form_incompatible to scan it anyway)")
                continue
        inc = _inclusion(base, m)
        mhat = extend_matrix(inc, phi.matrix)
        if phi.twist == 0:
            level_pts, top_complete = _eigen_points(mhat, m, notes)
        else:
            level_pts = _descent_points(mhat, m, notes)
        subfield_orders = [base.order**k for k in levels_scanned if m % k == 0]
        levels_scanned.append(m)
        for rep, lam in level_pts:
            if any(_in_subfield(rep, order) for order in subfield_orders):
                continue
            points.append(ProjectivePoint(
                level=m,
                coordinates=tuple(str(c) for c in rep),
                multiplier=str(lam),
                form_compatible=m % 2 == 1,
            ))

    bound_too_small = not top_complete
    if bound_too_small:
        notes.append(
            f"level {levels_scanned[-1] if levels_scanned else 0}: spectrum incomplete; "
            "further points live at levels outside the scanned set")

    return FixedPointReport(
        twist=phi.twist,
        max_ext=max_ext,
        points=tuple(points),
        levels_scanned=tuple(levels_scanned),
        bound_too_small=bound_too_small,
        notes=tuple(notes),
    )
