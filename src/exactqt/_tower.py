"""Internal finite fields F_{p^n} of arbitrary degree, plus inclusions.

These carry no conjugation structure (FpQuotientField's identity
involution); they exist so closure-level evaluation can range over every
extension degree, not just the even ones the public quadratic fields
provide.  Their arithmetic is starfield's FpQuotientField, shared with the
prime and quadratic fields.  Fields are cached and fully deterministic:
moduli are the canonical lexicographically smallest irreducibles.  An
inclusion sends the generator to the first root of the small modulus in the
bigger field's element order; _generator_image finds that root with
Polynomial.roots, which enumerates no field, and caches it for the lifts
here and for embed's quadratic fields.  lift_payload includes a payload by
evaluating it, as a polynomial in t, at that root; the closure search lifts
its payload environment with it, and lift is its wrapper for Elements.
"""

from __future__ import annotations

import functools

from . import _fppoly
from .errors import NoRootFound
from .forms import Polynomial
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

    elements = FpQuotientField.elements

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
    """First root in element order of an integer modulus in big, by Polynomial.roots."""
    roots = Polynomial(big, modulus).roots()
    if not roots:
        raise NoRootFound("small modulus has no root in the extension field")
    return roots[0]


def lift_payload(small: TowerField, a: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The payload in F_{p^m} of the element of small = F_{p^n} with payload a;
    requires n | m.  The inclusion sends t to _generator_image."""
    if small.n == m:
        return a
    if m % small.n:
        raise ValueError(f"F_{small.p}^{small.n} does not embed in F_{small.p}^{m}")
    big = tower_field(small.p, m)
    return _fppoly.eval_int_poly(a, _generator_image(small.modulus, big).payload, big)


def lift(x: Element, m: int) -> Element:
    """Include an element of F_{p^n} into F_{p^m}; requires n | m."""
    small = x.owner
    assert isinstance(small, TowerField)
    return Element(tower_field(small.p, m), lift_payload(small, x.payload, m))
