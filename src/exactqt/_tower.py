"""Internal finite fields F_{p^n} of arbitrary degree, plus inclusions.

These carry no conjugation structure (FpQuotientField's identity
involution); they exist so closure-level evaluation can range over every
extension degree, not just the even ones the public quadratic fields
provide.  Their arithmetic is starfield's FpQuotientField, shared with the
prime and quadratic fields.  Fields are cached and fully deterministic:
moduli are the canonical lexicographically smallest irreducibles.  An
inclusion sends the generator to the first root of the small modulus in the
bigger field's element order; _generator_image is the one cached search for
that root, used here by lift and by embed for the quadratic fields.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

from . import _fppoly
from .errors import NoRootFound
from .starfield import Element, FpQuotientField, _require_prime


class TowerField(FpQuotientField):
    """F_p[t]/(canonical irreducible of degree n), identity involution."""

    kind = "tower"

    def __init__(self, p: int, n: int):
        _require_prime(p)
        if not isinstance(n, int) or n < 1:
            raise ValueError("tower degree must be a positive integer")
        self.n = n
        super().__init__(p, _fppoly.canonical_irreducible(p, n))

    def elements(self) -> Iterator[Element]:
        for tup in itertools.product(range(self.p), repeat=self.degree):
            yield Element(self, tup)

    def shorthand(self) -> str:
        return f"tower:{self.p}:{self.n}"

    def to_json(self) -> dict:
        return {"kind": "tower", "p": self.p, "n": self.n, "modulus": list(self.modulus)}


@functools.lru_cache(maxsize=None)
def tower_field(p: int, n: int) -> TowerField:
    return TowerField(p, n)


def _eval_at(coeffs: tuple[int, ...], x: Element) -> Element:
    """Evaluate an integer-coefficient polynomial at x inside x's field."""
    return Element(x.owner, _fppoly.eval_int_poly(coeffs, x.payload, x.owner))


@functools.lru_cache(maxsize=None)
def _generator_image(modulus: tuple[int, ...], big: FpQuotientField) -> Element:
    """First root of an integer modulus among big's elements, in canonical order."""
    for cand in big.elements():
        if _eval_at(modulus, cand).is_zero():
            return cand
    raise NoRootFound("small modulus has no root in the extension field")


def lift(x: Element, m: int) -> Element:
    """Include an element of F_{p^n} into F_{p^m}; requires n | m."""
    small = x.owner
    assert isinstance(small, TowerField)
    if small.n == m:
        return x
    if m % small.n:
        raise ValueError(f"F_{small.p}^{small.n} does not embed in F_{small.p}^{m}")
    return _eval_at(x.payload, _generator_image(small.modulus, tower_field(small.p, m)))
