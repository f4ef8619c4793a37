"""The frozen record base against frozen dataclasses, class by class.

Every record class gets a dataclasses.make_dataclass(frozen=True) twin with
the same fields (and the same __post_init__, where the record has one).
Record and twin must agree on field order and repr, on == and hash for
equal and unequal values, on positional and keyword construction, on the
TypeError of a bad call, on refusing assignment and deletion, and on the
__post_init__ refusals.
"""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from exactqt import (BipartiteState, DimensionMismatch, ImproperField, Matrix, NonSquare,
                     PrimeField, QuadExt, SemilinearMap, StateVector, ZeroState)
from exactqt import autocode, compose, embed, forms, lefschetz, qcore  # noqa: F401 (the records)
from exactqt._record import _Record

# Each record's fields, in the order the dataclass it replaced declared them.
FIELDS = {
    "EigenPair": ("value", "basis"),
    "EigenDecomposition": ("pairs", "complete"),
    "Observable": ("matrix", "spectrum"),
    "MeasurementOutcome": ("eigenvalue", "projected_state", "modal_possible", "born_weight"),
    "MeasurementReport": ("outcomes", "total_form_value"),
    "BipartiteState": ("dims", "vector"),
    "NoCloningWitness": ("field", "dim", "superposition", "linear_image", "required_clone",
                         "linear_image_rank", "required_clone_rank"),
    "EmbeddingCertificate": ("elements_checked", "addition_pairs", "multiplication_pairs",
                             "injective", "involution_compatible"),
    "SemilinearMap": ("matrix", "twist"),
    "ProjectivePoint": ("level", "coordinates", "multiplier", "form_compatible"),
    "FixedPointReport": ("twist", "max_ext", "points", "levels_scanned", "bound_too_small",
                         "notes"),
    "Var": ("name",),
    "Lit": ("value",),
    "Not": ("body",),
    "TowerVerdict": ("value", "certified", "witness_level", "witness"),
    "SampleReport": ("sentence", "verdicts", "certified_true", "certified_false", "conjecture"),
    "CurvesMeetReport": ("meet", "level", "point", "levels_scanned", "bound_too_small"),
    **dict.fromkeys(("_Binary", "Add", "Sub", "Mul", "Eq", "And", "Or"), ("left", "right")),
    **dict.fromkeys(("_Quantifier", "Exists", "Forall"), ("var", "body")),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(_subclasses(_Record), key=lambda c: (c.__module__, c.__qualname__))
IDS = [c.__qualname__ for c in RECORDS]


def _twin(cls):
    namespace = {"__post_init__": cls.__post_init__} if "__post_init__" in vars(cls) else {}
    return dataclasses.make_dataclass(cls.__qualname__, FIELDS[cls.__qualname__], frozen=True,
                                      namespace=namespace)


TWINS = {cls: _twin(cls) for cls in RECORDS}

F9 = QuadExt(3, 1)
V4 = StateVector(F9, ["1", "t", "0", "2"])
M2 = Matrix(F9, [["0", "t"], ["1", "0"]])
VALID = {
    BipartiteState: [((2, 2), V4), ((1, 4), V4), ((4, 1), V4),
                     ((2, 2), StateVector(F9, ["0", "0", "0", "t"]))],
    SemilinearMap: [(M2, 0), (M2, 1), (Matrix(F9, [["1", "0"], ["0", "1"]]), 1),
                    (Matrix(PrimeField(3), [["1"]]), 0)],
}
REFUSED = [
    (BipartiteState, ((3, 1), V4), DimensionMismatch),
    (BipartiteState, ((0, 4), V4), DimensionMismatch),
    (BipartiteState, ((2, 2), StateVector(F9, ["0"] * 4)), ZeroState),
    (SemilinearMap, (M2, 2), ValueError),
    (SemilinearMap, (Matrix(F9, [["1", "0"]]), 0), NonSquare),
    (SemilinearMap, (Matrix(PrimeField(3), [["1"]]), 1), ImproperField),
]

# Few distinct values, so that equal field tuples come up often.
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.sampled_from("ab"),
                    st.tuples(st.integers(0, 1)))


def _values(cls):
    if cls in VALID:
        return st.sampled_from(VALID[cls])
    return st.tuples(*[SCALARS] * len(FIELDS[cls.__qualname__]))


def _error(fn, *args, **kwargs):
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return info.value


def test_every_record_class_is_covered():
    assert sorted(IDS) == sorted(FIELDS)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_field_order_and_repr(cls):
    assert cls._fields == tuple(f.name for f in dataclasses.fields(TWINS[cls]))

    @given(_values(cls))
    def check(v):
        assert repr(cls(*v)) == repr(TWINS[cls](*v))

    check()


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_eq_and_hash_agree_with_the_twin(cls):
    twin = TWINS[cls]

    @given(_values(cls), _values(cls))
    def check(a, b):
        assert cls(*a) == cls(*a) and hash(cls(*a)) == hash(twin(*a)) == hash(tuple(a))
        assert (cls(*a) == cls(*b)) == (twin(*a) == twin(*b)) == (tuple(a) == tuple(b))
        assert (cls(*a) != cls(*b)) == (twin(*a) != twin(*b))
        assert cls(*a) != tuple(a) and cls(*a) != twin(*a)

    check()


@pytest.mark.parametrize("left, right", [
    (lefschetz.Add, lefschetz.Sub), (lefschetz.Mul, lefschetz.Eq), (lefschetz.And, lefschetz.Or),
    (lefschetz.Exists, lefschetz.Forall), (lefschetz.Add, lefschetz._Binary),
], ids=lambda c: c.__qualname__)
def test_siblings_with_equal_children_differ(left, right):
    a, b = left("x", lefschetz.Var("y")), right("x", lefschetz.Var("y"))
    ta, tb = TWINS[left]("x", lefschetz.Var("y")), TWINS[right]("x", lefschetz.Var("y"))
    assert a != b and not a == b and (ta == tb) is False
    assert hash(a) == hash(b) == hash(ta)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls):
    names = FIELDS[cls.__qualname__]

    @given(_values(cls))
    def check(v):
        by_name = dict(zip(names, v))
        assert cls(*v) == cls(**by_name) == cls(v[0], **dict(zip(names[1:], v[1:])))
        assert repr(cls(**by_name)) == repr(TWINS[cls](**by_name))
        assert all(getattr(cls(*v), name) is value for name, value in by_name.items())

    check()


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_bad_calls_raise_type_error(cls):
    twin, names = TWINS[cls], FIELDS[cls.__qualname__]
    v = next(iter(VALID[cls])) if cls in VALID else (0,) * len(names)
    for args, kwargs in [(v[:-1], {}), (v + (0,), {}), (v, {"nope": 0}),
                         (v, {names[0]: v[0]}), (v[1:], {"nope": 0})]:
        assert type(_error(cls, *args, **kwargs)) is type(_error(twin, *args, **kwargs)) is TypeError


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_assignment_and_deletion_are_refused(cls):
    twin, names = TWINS[cls], FIELDS[cls.__qualname__]
    v = next(iter(VALID[cls])) if cls in VALID else (0,) * len(names)
    r, t = cls(*v), twin(*v)
    for obj in (r, t):
        for name in (names[0], names[-1], "extra"):
            assert isinstance(_error(setattr, obj, name, 1), AttributeError)
            assert isinstance(_error(delattr, obj, name), AttributeError)
    assert r == cls(*v) and tuple(getattr(r, name) for name in names) == tuple(v)


@pytest.mark.parametrize("cls, args, exc", REFUSED,
                         ids=[f"{c.__qualname__}-{i}" for i, (c, _, _) in enumerate(REFUSED)])
def test_post_init_refusals_match_the_twin(cls, args, exc):
    mine, theirs = _error(cls, *args), _error(TWINS[cls], *args)
    assert type(mine) is type(theirs) is exc
    assert str(mine) == str(theirs)
