"""Embeddings of one conjugation field into a larger one.

F_{q^2} sits inside F_{q^{2m}} whenever the degrees divide, but the two
conjugations (x -> x^q below, x -> x^{q^m} above) only agree on the small
field when m is odd: on F_{q^2} the map x -> x^{q^m} is x -> x^{q^(m mod 2)}.
Even m therefore gives a ring embedding that scrambles the involution, and
build_embedding refuses it.  Every embedding built here is verified
exhaustively on the small field before it is first returned; each (field,
m) is verified once per process, and later calls share that certified
inclusion.
"""

from __future__ import annotations


from ._record import _Record
from ._tower import _eval_at, _generator_image
from .errors import EvenExtensionDegree, WrongField
from .forms import Matrix, StateVector
from .starfield import Element, QuadExt


class EmbeddingCertificate(_Record):
    """Transcript of the exhaustive checks run on a finished embedding."""

    elements_checked: int
    addition_pairs: int
    multiplication_pairs: int
    injective: bool
    involution_compatible: bool


class FieldEmbedding:
    """A verified field homomorphism from one QuadExt into another.

    Callable on elements of the small field; extend_state and extend_matrix
    push vectors and operators through entrywise.
    """

    def __init__(self, small: QuadExt, big: QuadExt, generator_image: Element,
                 certificate: EmbeddingCertificate):
        self.small = small
        self.big = big
        self.generator_image = generator_image
        self.certificate = certificate

    @property
    def extension_degree(self) -> int:
        return self.big.e // self.small.e

    @property
    def form_compatible(self) -> bool:
        return self.certificate.involution_compatible

    def __call__(self, x: Element) -> Element:
        if x.owner != self.small:
            raise WrongField("element does not belong to the embedding's source field")
        return _eval_at(x.payload, self.generator_image)

    def to_json(self) -> dict:
        return {
            "small": self.small.to_json(),
            "big": self.big.to_json(),
            "generator_image": str(self.generator_image),
            "certificate": self.certificate.to_json(),
        }


def _verify(small: QuadExt, big: QuadExt, image_of) -> EmbeddingCertificate:
    """Check hom + injectivity on all of small; report involution compat."""
    table = {x.payload: image_of(x) for x in small.elements()}
    injective = len({v.payload for v in table.values()}) == len(table)
    one_ok = table[small.one().payload] == big.one()
    add_pairs = mul_pairs = 0
    hom_ok = one_ok
    elems = list(small.elements())
    for x in elems:
        for y in elems:
            if table[(x + y).payload] != table[x.payload] + table[y.payload]:
                hom_ok = False
            add_pairs += 1
            if table[(x * y).payload] != table[x.payload] * table[y.payload]:
                hom_ok = False
            mul_pairs += 1
    if not (hom_ok and injective):
        raise ArithmeticError("candidate generator image does not define an embedding")
    invol_ok = all(table[x.conj().payload] == table[x.payload].conj() for x in elems)
    return EmbeddingCertificate(
        elements_checked=len(elems),
        addition_pairs=add_pairs,
        multiplication_pairs=mul_pairs,
        injective=injective,
        involution_compatible=invol_ok,
    )


# The certified inclusion per (small field descriptor value, m), built on a miss.
_INCLUSIONS: dict[tuple[QuadExt, int], FieldEmbedding] = {}


def _check_pair(small: QuadExt, m: int) -> None:
    """Refuse a source that is not a QuadExt, and an m that is not an int
    (bool included), before either is used as a cache key."""
    if not isinstance(small, QuadExt):
        raise WrongField("embeddings are built between quadratic extension fields")
    if type(m) is not int:
        raise ValueError(f"extension degree must be an integer, got {m!r}")


def _inclusion(small: QuadExt, m: int) -> FieldEmbedding:
    """The certified inclusion of small into its degree-m extension, built
    and verified by _build_inclusion on the first request for its key."""
    _check_pair(small, m)
    if m < 1:
        raise ValueError("extension degree must be positive")
    emb = _INCLUSIONS.get((small, m))
    if emb is None:
        emb = _INCLUSIONS[(small, m)] = _build_inclusion(small, m)
    return emb


def _build_inclusion(small: QuadExt, m: int) -> FieldEmbedding:
    """Inclusion into the degree-m extension with no involution demand.

    The generator is sent to the first root of the small modulus in the big
    field's canonical element order (_tower._generator_image, which finds it
    with Polynomial.roots and caches it), except m = 1
    where the identity map is the only sensible answer (the smallest root
    can be a conjugate of t, which would silently twist the field by
    Frobenius).  Callers go through _inclusion, which checks the arguments.
    """
    if m == 1:
        cert = _verify(small, small, lambda x: x)
        return FieldEmbedding(small, small, small.generator(), cert)
    big = QuadExt(small.p, small.e * m)
    image = _generator_image(small.modulus, big)
    cert = _verify(small, big, lambda x: _eval_at(x.payload, image))
    return FieldEmbedding(small, big, image, cert)


def build_embedding(small: QuadExt, m: int) -> FieldEmbedding:
    """Verified conjugation-preserving embedding of small into its degree-m extension."""
    _check_pair(small, m)
    if m % 2 == 0:
        raise EvenExtensionDegree(
            f"extension degree {m} is even, so the conjugations disagree on the small field")
    emb = _inclusion(small, m)
    if not emb.certificate.involution_compatible:
        raise ArithmeticError("odd extension failed involution compatibility")
    return emb


def extend_state(emb: FieldEmbedding, v: StateVector) -> StateVector:
    if v.owner != emb.small:
        raise WrongField("state does not belong to the embedding's source field")
    return StateVector(emb.big, [emb(c) for c in v])


def extend_matrix(emb: FieldEmbedding, m: Matrix) -> Matrix:
    if m.owner != emb.small:
        raise WrongField("matrix does not belong to the embedding's source field")
    return m.map_entries(lambda c: emb(c), owner=emb.big)
