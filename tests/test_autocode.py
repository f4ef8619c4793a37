"""Semilinear maps, the squaring dichotomy, and projective fixed points."""

import functools
import itertools
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from exactqt import (
    Matrix,
    PrimeField,
    QuadExt,
    SemilinearMap,
    StateVector,
    autocode,
    eigen_decompose,
    fixed_points,
    involute,
    sampling,
    solve,
    square_is_linear,
)
from exactqt import starfield
from exactqt._tower import TowerField
from exactqt.embed import _build_inclusion
from exactqt.errors import DimensionMismatch, FieldMismatch, ImproperField, NonSquare
from exactqt.sampling import random_element, random_invertible, random_semilinear, random_state
from exactqt.starfield import FpQuotientField

F9 = QuadExt(3, 1)


def test_construction_guards():
    with pytest.raises(ImproperField):
        SemilinearMap(Matrix.identity(PrimeField(3), 2), 1)
    with pytest.raises(NonSquare):
        SemilinearMap(Matrix(F9, [["1", "0", "0"], ["0", "1", "0"]]), 0)
    with pytest.raises(ValueError):
        SemilinearMap(Matrix.identity(F9, 2), 2)


def test_apply_conjugates_before_matrix():
    phi = SemilinearMap(Matrix.identity(F9, 2), 1)
    psi = StateVector(F9, ["t", "1"])
    assert phi.apply(psi) == StateVector(F9, ["2t", "1"])
    with pytest.raises(FieldMismatch):
        phi.apply(StateVector(QuadExt(5, 1), ["1", "0"]))
    with pytest.raises(DimensionMismatch):
        phi.apply(StateVector(F9, ["1", "0", "0"]))


def test_apply_is_projectively_well_defined():
    rng = random.Random(89)
    for _ in range(40):
        phi = random_semilinear(rng, F9, 3)
        psi = random_state(rng, F9, 3)
        c = F9.element(rng.randrange(1, 9))
        lhs = phi.apply(psi.scale(c))
        rhs = phi.apply(psi)
        scale = involute(c) if phi.twist else c
        assert lhs == rhs.scale(scale)


def test_compose_matches_pointwise_application():
    rng = random.Random(97)
    for t1 in (0, 1):
        for t2 in (0, 1):
            m1 = random_invertible(rng, F9, 2)
            m2 = random_invertible(rng, F9, 2)
            phi1 = SemilinearMap(m1, t1)
            phi2 = SemilinearMap(m2, t2)
            chain = phi1.compose(phi2)
            assert chain.twist == (t1 + t2) % 2
            for _ in range(10):
                psi = random_state(rng, F9, 2)
                assert chain.apply(psi) == phi1.apply(phi2.apply(psi))


def test_square_is_always_linear():
    rng = random.Random(101)
    for _ in range(60):
        phi = random_semilinear(rng, F9, rng.randint(1, 3))
        assert square_is_linear(phi)
        sq = phi.compose(phi)
        assert sq.twist == 0
        psi = random_state(rng, F9, phi.dim)
        assert sq.apply(psi) == phi.apply(phi.apply(psi))


def normalized_reps(field, dim):
    for c in itertools.product(field.elements(), repeat=dim):
        v = StateVector(field, list(c))
        if v.is_zero():
            continue
        pivot = next(e for e in v if not e.is_zero())
        if pivot == field.one():
            yield v


def pg_scan(phi: SemilinearMap):
    """Oracle: every normalized rep psi with M psi^(gamma^twist) || psi."""
    hits = []
    for psi in normalized_reps(phi.owner, phi.dim):
        image = phi.apply(psi)
        pivot = next(i for i in range(psi.dim) if not psi[i].is_zero())
        lam = image[pivot]
        if lam.is_zero():
            continue
        if image == psi.scale(lam):
            hits.append(tuple(str(e) for e in psi))
    return sorted(hits)


def test_linear_fixed_points_match_eigen_oracle():
    rng = random.Random(103)
    for _ in range(25):
        dim = rng.randint(2, 3)
        phi = SemilinearMap(random_invertible(rng, F9, dim), 0)
        report = fixed_points(phi, max_ext=1)
        got = sorted(p.coordinates for p in report.points)
        assert got == pg_scan(phi)
        dec = eigen_decompose(phi.matrix)
        expected_count = sum(
            (F9.order ** p.dimension - 1) // (F9.order - 1) for p in dec.pairs)
        assert len(report.points) == expected_count


def test_antilinear_points_satisfy_defining_equation():
    from exactqt import build_embedding, extend_matrix

    rng = random.Random(107)
    for _ in range(15):
        phi = SemilinearMap(random_invertible(rng, F9, 2), 1)
        report = fixed_points(phi, max_ext=3)
        assert report.twist == 1
        for pt in report.points:
            fld = QuadExt(3, pt.level)
            lifted = (phi.matrix if pt.level == 1 else
                      extend_matrix(build_embedding(F9, pt.level), phi.matrix))
            psi = StateVector(fld, [fld.element(c) for c in pt.coordinates])
            lam = fld.element(pt.multiplier)
            assert not lam.is_zero()
            assert lifted @ psi.conj() == psi.scale(lam)


def test_antilinear_identity_point_counts():
    # psi^gamma = lam psi on normalized reps means every coordinate lies in
    # the fixed field: P^1(F_3) at level 1, P^1(F_27)'s new points at level 3
    phi = SemilinearMap(Matrix.identity(F9, 2), 1)
    report = fixed_points(phi, max_ext=3)
    by_level = {}
    for pt in report.points:
        by_level[pt.level] = by_level.get(pt.level, 0) + 1
    assert by_level == {1: 4, 3: 24}
    assert all(pt.form_compatible for pt in report.points)


def test_even_levels_skipped_by_default():
    phi = SemilinearMap(Matrix.identity(F9, 2), 1)
    report = fixed_points(phi, max_ext=4)
    assert all(pt.level % 2 == 1 for pt in report.points)
    assert any("level 2" in note for note in report.notes)
    assert any("level 4" in note for note in report.notes)


def test_form_incompatible_levels_opt_in():
    # char poly x^2 - (1+t) is irreducible over F_9 (1+t generates F_9*),
    # so the eigenvalues live at level 2, reachable only without the form
    m = Matrix(F9, [["0", "1+t"], ["1", "0"]])
    phi = SemilinearMap(m, 0)
    narrow = fixed_points(phi, max_ext=2)
    assert narrow.points == ()
    assert narrow.bound_too_small
    wide = fixed_points(phi, max_ext=2, include_form_incompatible=True)
    assert len(wide.points) == 2
    assert all(pt.level == 2 and not pt.form_compatible for pt in wide.points)


def test_fixed_points_deduplicates_transported_points():
    from exactqt import build_embedding

    # F_9 as F_3[t]/(t^2 + 1), then as F_3[t]/(t^2 + 2t + 2), a non-canonical modulus.
    # The linear identity fixes all of P^1: 10 points over F_9 and 730 - 10
    # new ones over F_729.  Its antilinear twin fixes the 4 points with
    # conj(psi) proportional to psi, then 28 - 4 new ones at level 3.
    for field in (F9, QuadExt(3, 1, modulus=(2, 2, 1))):
        for twist, counts in ((0, (10, 720)), (1, (4, 24))):
            report = fixed_points(SemilinearMap(Matrix.identity(field, 2), twist), max_ext=3)
            level1 = [pt for pt in report.points if pt.level == 1]
            level3 = [pt for pt in report.points if pt.level == 3]
            assert (len(level1), len(level3)) == counts
            # the level-3 list must not repeat any transported level-1 representative
            emb = build_embedding(field, 3)
            transported = {tuple(str(emb(field.element(c))) for c in pt.coordinates)
                           for pt in level1}
            assert transported.isdisjoint({pt.coordinates for pt in level3})


def test_fixed_points_lists_a_lower_level_point_once():
    # F_4 -> F_16 -> F_256 sends t to 1+t^2+t^3+t^6+t^7 but F_4 -> F_256 sends
    # it to t^2+t^3+t^6+t^7: first-root inclusions do not compose, so the two
    # level-2 eigenlines must not come back at level 4 under other names
    phi = SemilinearMap(Matrix(QuadExt(2, 1), [["0", "t"], ["1", "1"]]), 0)
    report = fixed_points(phi, max_ext=4, include_form_incompatible=True)
    assert [(pt.level, pt.coordinates) for pt in report.points] == [
        (2, ("1", "1+t^3")), (2, ("1", "t"))]
    assert report.levels_scanned == (1, 2, 3, 4)


def test_the_subfield_test_runs_on_payloads(monkeypatch):
    """autocode._in_subfield builds no Element and agrees with c**order == c."""
    rng = random.Random(71)
    big = QuadExt(3, 3)
    order = F9.order
    inc = _build_inclusion(F9, 3)
    vectors = [StateVector(big, [inc(random_element(rng, F9)) for _ in range(3)]) for _ in range(5)]
    vectors += [random_state(rng, big, 3) for _ in range(5)]
    expected = [all(c**order == c for c in v) for v in vectors]
    assert True in expected and False in expected
    built = []
    init = starfield.Element.__init__
    monkeypatch.setattr(starfield.Element, "__init__",
                        lambda self, owner, payload: built.append(payload) or init(self, owner, payload))
    assert [autocode._in_subfield(v, order) for v in vectors] == expected
    assert built == []


@functools.lru_cache(maxsize=None)
def _subfield(small, big):
    """The copy of small inside big: the image of any inclusion, as payloads."""
    inc = _build_inclusion(small, big.e // small.e)
    assert inc.big == big
    return {inc(x).payload for x in small.elements()}


@pytest.mark.parametrize("base, twist, max_ext", [
    (QuadExt(2, 1), 0, 4), (QuadExt(3, 1, modulus=(2, 2, 1)), 0, 3),
    (QuadExt(2, 1), 1, 3), (F9, 1, 3)])
def test_no_fixed_point_lies_in_a_lower_scanned_level(base, twist, max_ext):
    rng = random.Random(113)
    for _ in range(4):
        phi = SemilinearMap(random_invertible(rng, base, 2), twist)
        report = fixed_points(phi, max_ext=max_ext, include_form_incompatible=True)
        for pt in report.points:
            big = base if pt.level == 1 else QuadExt(base.p, base.e * pt.level)
            coords = {big.element(c).payload for c in pt.coordinates}
            for k in report.levels_scanned:
                if k < pt.level and pt.level % k == 0:
                    small = base if k == 1 else QuadExt(base.p, base.e * k)
                    assert not coords <= _subfield(small, big), (pt, k)


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        fixed_points(SemilinearMap(Matrix(F9, [["1", "1"], ["1", "1"]]), 0))


def test_report_is_deterministic():
    rng = random.Random(109)
    phi = SemilinearMap(random_invertible(rng, F9, 2), 1)
    a = fixed_points(phi, max_ext=3).to_json()
    b = fixed_points(phi, max_ext=3).to_json()
    assert a == b


def _antilinear_points(mhat, level):
    """Exhaustive projective scan for psi with M psi^gamma proportional to psi."""
    pts = []
    for coords in autocode._normalized_coordinates(mhat.owner.elements(), mhat.rows):
        psi = StateVector(mhat.owner, coords)
        w = mhat @ psi.conj()
        pivot = next(i for i in range(psi.dim) if not psi[i].is_zero())
        lam = w[pivot]
        if not lam.is_zero() and w == psi.scale(lam):
            pts.append((psi, lam))
    return pts


def _scan_report(phi, max_ext):
    """fixed_points with the exhaustive scan in place of Galois descent."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(autocode, "_descent_points",
                  lambda mhat, level, notes: _antilinear_points(mhat, level))
        return fixed_points(phi, max_ext=max_ext).to_json()


# (field, dim, max_ext): max_ext 3 where P^(dim-1) at level 3 is under
# SCAN_LIMIT (F_64^3: 4,161 points, F_729^2: 730, F_15625^2: 15,626,
# F_4096^2: 4,097), 1 where it is not
_ORACLE_CASES = [(QuadExt(2, 1), 2, 3), (QuadExt(2, 1), 3, 3), (F9, 2, 3), (F9, 3, 1),
                 (QuadExt(5, 1), 2, 3), (QuadExt(5, 1), 3, 1), (QuadExt(2, 2), 2, 3),
                 (QuadExt(2, 2), 3, 1)]


def _antilinear_map(field, dim, kind, seed):
    """A random invertible matrix, a scalar c I, or c A (A^gamma)^-1, whose
    M M^gamma is scalar, so that eigenspaces of dimension dim occur."""
    rng = random.Random(seed)
    if kind == "random":
        return random_invertible(rng, field, dim)
    c = random_element(rng, field)
    while c.is_zero():
        c = random_element(rng, field)
    if kind == "scalar":
        return Matrix.scalar(field, dim, c)
    a = random_invertible(rng, field, dim)
    abar = a.conj_entrywise()
    inv = Matrix.from_columns(field, [solve(abar, StateVector.basis_vector(field, dim, j))
                                      for j in range(dim)])
    return (a @ inv).scale(c)


@pytest.mark.parametrize("field, dim, max_ext", _ORACLE_CASES, ids=str)
@settings(max_examples=6)
@given(kind=st.sampled_from(["random", "random", "scalar", "conjugated"]),
       seed=st.integers(0, 10**6))
@example(kind="scalar", seed=0)
@example(kind="conjugated", seed=1)
def test_descent_matches_the_projective_scan(field, dim, max_ext, kind, seed):
    phi = SemilinearMap(_antilinear_map(field, dim, kind, seed), 1)
    report = fixed_points(phi, max_ext=max_ext)
    assert report.to_json() == _scan_report(phi, max_ext)
    assert not report.bound_too_small


def _points_by_level(report):
    counts = {}
    for pt in report.points:
        counts[pt.level] = counts.get(pt.level, 0) + 1
    return counts


def test_norm_preimages():
    for field in (F9, QuadExt(5, 1), QuadExt(3, 3), QuadExt(7, 1), QuadExt(2, 2)):
        for mu in field.fixed_elements()[1:]:
            lam = sampling._norm_preimage(mu)
            assert lam * lam.conj() == mu
    # 11 and 13 are non-squares mod 1009, so their preimages go through nu
    big = QuadExt(1009, 1)
    for mu in (1, 2, 11, 13, 1008):
        lam = sampling._norm_preimage(big.element(mu))
        assert lam * lam.conj() == big.element(mu)


def test_a_norm_class_over_the_scan_limit_lists_a_basis():
    # I on F_9^3: level 5 has q = 243 and 243^2 + 243 + 1 = 59,293 points in
    # the class of 1; the basis it lists lies in F_3^3, so level 1 has them
    report = fixed_points(SemilinearMap(Matrix.identity(F9, 3), 1), max_ext=5)
    assert report.notes[-1] == ("level 5: norm class of 1 holds 59293 projective points, "
                                "over the scan limit 20000; listing a basis only")
    assert not report.bound_too_small
    assert report.levels_scanned == (1, 3, 5)
    assert _points_by_level(report) == {1: 13, 3: 757 - 13}


@pytest.mark.parametrize("base, entries", [
    (F9, [["1", "t", "0"], ["0", "1", "t"], ["1", "0", "2"]]),
    (F9, [["2", "0"], ["0", "2"]]),
    (QuadExt(2, 1), [["1", "t", "0"], ["t", "1", "0"], ["0", "0", "1+t"]]),
    (QuadExt(2, 1), [["0", "1"], ["1", "0"]]),
])
def test_antilinear_fixed_points_enumerate_no_extension_field(monkeypatch, base, entries):
    # only the base field may be listed (the embedding certificate does)
    def guarded(elements):
        def wrapper(self):
            if self.order > base.order:
                raise AssertionError(f"{self.shorthand()} enumerated")
            return elements(self)
        return wrapper

    for cls in (FpQuotientField, QuadExt, TowerField):
        monkeypatch.setattr(cls, "elements", guarded(cls.__dict__["elements"]))
    report = fixed_points(SemilinearMap(Matrix(base, entries), 1), max_ext=3)
    assert report.levels_scanned == (1, 3)


def test_f9_3x3_antilinear_level_3_within_ceiling():
    # P^2(F_729) holds 532,171 points, which the scan skipped
    start = time.monotonic()
    m = Matrix(F9, [["1", "t", "0"], ["0", "1", "t"], ["1", "0", "2"]])
    report = fixed_points(SemilinearMap(m, 1), max_ext=3)
    assert time.monotonic() - start <= 1.0
    assert report.levels_scanned == (1, 3)
    assert not report.bound_too_small
    assert _points_by_level(report) == {3: 3}
