"""Involution-compatible tower embeddings and observable transport."""

import random
import time

import pytest

from exactqt import (
    Matrix,
    QuadExt,
    StateVector,
    build_embedding,
    eigen_decompose,
    extend_matrix,
    extend_state,
    herm_form,
    involute,
)
from exactqt._tower import lift, tower_field
from exactqt.errors import EvenExtensionDegree, WrongField
from exactqt.sampling import random_state

F4 = QuadExt(2, 1)
F9 = QuadExt(3, 1)


def test_identity_embedding():
    emb = build_embedding(F9, 1)
    assert emb.big == F9
    assert emb.generator_image == F9.generator()
    for x in F9.elements():
        assert emb(x) == x


def test_even_degree_rejected():
    with pytest.raises(EvenExtensionDegree):
        build_embedding(F9, 2)
    with pytest.raises(EvenExtensionDegree):
        build_embedding(F4, 4)


def test_f9_into_f729_certificate():
    emb = build_embedding(F9, 3)
    assert emb.big == QuadExt(3, 3)
    cert = emb.certificate
    assert cert.elements_checked == 9
    assert cert.addition_pairs == 81
    assert cert.multiplication_pairs == 81
    assert cert.injective
    assert cert.involution_compatible
    assert emb.form_compatible
    assert emb.extension_degree == 3


def test_f9_into_degree_5_certifies_within_ceiling():
    # the canonical degree-10 modulus over F_3 once took 19,690 Rabin tests
    start = time.monotonic()
    emb = build_embedding(F9, 5)
    assert time.monotonic() - start <= 5.0
    assert emb.big == QuadExt(3, 5)
    cert = emb.certificate
    assert (cert.elements_checked, cert.addition_pairs, cert.multiplication_pairs) == (9, 81, 81)
    assert cert.injective and cert.involution_compatible


def test_homomorphism_exhaustive():
    emb = build_embedding(F4, 3)
    els = list(F4.elements())
    for x in els:
        assert emb(involute(x)) == involute(emb(x))
        for y in els:
            assert emb(x + y) == emb(x) + emb(y)
            assert emb(x * y) == emb(x) * emb(y)
    assert emb(F4.one()) == emb.big.one()
    images = {emb(x) for x in els}
    assert len(images) == 4


def test_generator_image_is_lex_smallest_root():
    emb = build_embedding(F9, 3)
    big = emb.big
    # the image is a root of the source modulus x^2 + 1
    img = emb.generator_image
    assert (img * img + big.one()).is_zero()
    earlier = [x for x in big.elements()
               if x.sort_key() < img.sort_key() and (x * x + big.one()).is_zero()]
    assert earlier == []


@pytest.mark.parametrize("p", [2, 3])
def test_lift_and_embedding_send_generator_to_same_root(p):
    t = tower_field(p, 2).element((0, 1))
    assert lift(t, 6).payload == build_embedding(QuadExt(p, 1), 3).generator_image.payload


def test_form_preserved_under_extension():
    emb = build_embedding(F9, 3)
    rng = random.Random(67)
    for _ in range(40):
        dim = rng.randint(2, 4)
        x = random_state(rng, F9, dim)
        y = random_state(rng, F9, dim)
        assert herm_form(extend_state(emb, x), extend_state(emb, y)) == \
            emb(herm_form(x, y))


def test_wrong_field_transport_rejected():
    emb = build_embedding(F9, 3)
    with pytest.raises(WrongField):
        extend_state(emb, StateVector(F4, ["1", "0"]))
    with pytest.raises(WrongField):
        emb(F4.one())


def test_eigenpairs_survive_transport():
    emb = build_embedding(F9, 3)
    m = Matrix(F9, [["0", "t"], ["2t", "0"]])
    dec = eigen_decompose(m)
    big_m = extend_matrix(emb, m)
    big_dec = eigen_decompose(big_m)
    big_values = {str(p.value) for p in big_dec.pairs}
    for p in dec.pairs:
        assert str(emb(p.value)) in big_values
        for v in p.basis:
            w = extend_state(emb, v)
            assert big_m @ w == w.scale(emb(p.value))


def test_completeness_flips_after_extension():
    # the cubic spectrum lives in F_27 which sits inside F_729
    h = Matrix(F9, [["0", "t", "0"], ["2t", "0", "t"], ["0", "2t", "1"]])
    assert not eigen_decompose(h).complete
    emb = build_embedding(F9, 3)
    big_dec = eigen_decompose(extend_matrix(emb, h))
    assert big_dec.complete
    assert big_dec.total_dimension == 3


def test_functorial_composition():
    # m1 = 3 then m2 = 1 agrees with the direct m = 3 embedding; the chain
    # with a 4096-element middle field is out of desk-scale budget
    first = build_embedding(F4, 3)
    second = build_embedding(first.big, 1)
    direct = build_embedding(F4, 3)
    for x in F4.elements():
        assert second(first(x)) == direct(x)


def test_certificate_serializes():
    doc = build_embedding(F9, 3).to_json()
    assert doc["small"] == {"kind": "quadext", "p": 3, "e": 1, "modulus": [1, 0, 1]}
    assert doc["big"]["e"] == 3
    assert doc["certificate"]["involution_compatible"] is True
