"""Fields with involution and their exact element arithmetic.

Three backends share one element interface: prime fields F_p carrying the
identity involution, quadratic extensions F_{q^2} = F_p[t]/(modulus) with
the Frobenius involution x -> x^q, and the Gaussian rationals Q(i) with
complex conjugation.  The involution plays the role complex conjugation
plays in ordinary quantum mechanics; fields where it degenerates to the
identity are called improper and refuse conjugation-specific requests.

Every finite field is an F_p[t]/(modulus) and is computed by one class,
FpQuotientField: PrimeField is its degree-1 case F_p[t]/(t), and QuadExt
and the internal tower fields of the closure evaluator extend it too.  So
all finite elements share one representation (padded coefficient tuples),
one arithmetic, equality, hash and enumeration, in payload order, which is
also sort_key's.  payloads() lists the field in that order, and elements()
wraps it, so the closure search, which loops over payloads, and callers
that want Elements see one order.  Subclasses add checks, naming and, for
QuadExt, the Frobenius involution; each keeps elements =
FpQuotientField.elements in its own body only because perfbench/spans.py
wraps that entry per class.

That arithmetic has two routes to the same answers.  The polynomial route
(_fppoly's mulmod, invmod and powmod on coefficient tuples, and
coefficientwise sums mod p) always works.  The table route is a cache in
front of it: a discrete-log table and an antilog table against a primitive
element g, so that x*y = g^(log x + log y), 1/x = g^(-log x) and x^n =
g^(n log x) (payload_pow; the involution is x^q) are two lookups each (the
discrete-log representation; Lidl and Niederreiter, Finite Fields, ch. 9).
Sums, differences and negation take the same tables plus a Zech-logarithm
table zech[k] = log(1 + g^k): g^i + g^j = g^(i + zech[j - i]), and -x =
g^(log x + (Q - 1)/2) for odd p (negation is the identity when p = 2).  Tables are shared by every
descriptor with the same p and modulus, and are built only for fields of
at most _TABLE_CAP elements, once that p and modulus has done as many
polynomial-route products, inverses and powers as the field has
elements.  The build (about that many products again) thus never costs
more than work already done, and short-lived fields never pay for it.
Sums never charge toward the build.  Payloads stay padded coefficient
tuples on both routes, so element order, text and every output are the
same whichever route runs.

Q(i) elements are integer triples (a, b, d) meaning (a + bi)/d, reduced
so that d > 0 and gcd(a, b, d) = 1: one gcd per result instead of one per
rational part and operation, as fractions.Fraction pairs would cost.
In every backend a value has exactly one payload, so equality and
hashing compare payloads, and is_zero compares with the descriptor's
zero_payload.  Element order is payload order on finite fields and (real
part, imaginary part) as rationals on Q(i).

All values are immutable and every operation is exact; nothing in this
module (or the package) touches floating point.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from functools import cached_property, partial
from typing import Iterator

from . import _fppoly
from ._intnum import is_prime
from .errors import (
    DivisionByZero,
    FieldMismatch,
    FieldNotFinite,
    ImproperField,
    NonPrimeCharacteristic,
    ParseError,
    ReducibleModulus,
)


class Element:
    """A single field element; arithmetic dispatches to the owning field."""

    __slots__ = ("owner", "payload")

    def __init__(self, owner: FieldDescriptor, payload):
        self.owner = owner
        self.payload = payload

    def _check(self, other: Element) -> None:
        if not isinstance(other, Element):
            raise TypeError(f"expected an Element, got {type(other).__name__}")
        if self.owner is not other.owner and self.owner != other.owner:
            raise FieldMismatch(f"{self.owner.shorthand()} vs {other.owner.shorthand()}")

    def __add__(self, other: Element) -> Element:
        self._check(other)
        return Element(self.owner, self.owner.payload_add(self.payload, other.payload))

    def __sub__(self, other: Element) -> Element:
        self._check(other)
        return Element(self.owner, self.owner.payload_sub(self.payload, other.payload))

    def __mul__(self, other: Element) -> Element:
        self._check(other)
        return Element(self.owner, self.owner.payload_mul(self.payload, other.payload))

    def __neg__(self) -> Element:
        return Element(self.owner, self.owner.payload_neg(self.payload))

    def __truediv__(self, other: Element) -> Element:
        if not isinstance(other, Element):
            raise TypeError(f"expected an Element, got {type(other).__name__}")
        return self * other.inverse()

    def __pow__(self, n: int) -> Element:
        if n < 0:
            return self.inverse() ** (-n)
        result = self.owner.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> Element:
        return Element(self.owner, self.owner.payload_inv(self.payload))

    def conj(self) -> Element:
        """Image under the field involution."""
        return Element(self.owner, self.owner.payload_involute(self.payload))

    def is_zero(self) -> bool:
        return self.payload == self.owner.zero_payload

    def is_fixed(self) -> bool:
        return self.owner.payload_involute(self.payload) == self.payload

    def sort_key(self):
        return self.owner.payload_sort_key(self.payload)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.owner == other.owner
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((self.owner.shorthand(), self.payload))

    def __str__(self) -> str:
        return self.owner.payload_format(self.payload)

    def __repr__(self) -> str:
        return f"<{self} in {self.owner.shorthand()}>"


class FieldDescriptor:
    """Common surface of the three field backends."""

    kind: str = ""
    involution_order: int = 1
    is_finite: bool = True
    zero_payload: tuple  # the one payload of zero, set by each subclass

    # Subclasses implement payload_* for their concrete representation.

    def element(self, value) -> Element:
        """Coerce an int, textual string, payload, or Element into this field."""
        if isinstance(value, Element):
            if value.owner is not self and value.owner != self:
                raise FieldMismatch(f"element of {value.owner.shorthand()} given to {self.shorthand()}")
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not a field element")
        if isinstance(value, int):
            return Element(self, self.payload_from_int(value))
        if isinstance(value, str):
            return Element(self, self.payload_parse(value))
        return Element(self, self.payload_canonical(value))

    def zero(self) -> Element:
        return Element(self, self.payload_from_int(0))

    def one(self) -> Element:
        return Element(self, self.payload_from_int(1))

    def payloads(self) -> Iterator:
        """Every element's payload, in canonical element order."""
        raise FieldNotFinite(f"{self.shorthand()} is not finite")

    def elements(self) -> Iterator[Element]:
        raise FieldNotFinite(f"{self.shorthand()} is not finite")

    def payload_canonical(self, raw):
        raise TypeError(f"cannot interpret {raw!r} as an element of {self.shorthand()}")

    def payload_sort_key(self, a):
        """The key of canonical element order; the payload itself by default."""
        return a

    def shorthand(self) -> str:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.shorthand()


def _require_prime(p) -> None:
    """Refuse a characteristic that is not an int (bool included) or not prime."""
    if type(p) is not int:
        raise ValueError(f"characteristic p must be an integer, got {p!r}")
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")


# Fields of at most this many elements may build log/antilog tables.
_TABLE_CAP = 1 << 16


class _LogTables:
    """Discrete-log and antilog tables of F_p[t]/(modulus), built on demand.

    One instance per (p, modulus), shared by every descriptor with that p
    and modulus (see _log_tables).  Until `log` is set, charge() counts the
    polynomial-route operations the field's elements have cost; the tables
    are built when that count reaches the field order, and never above
    _TABLE_CAP.  exp[k] is the padded payload of g^k for 0 <= k < 2(order -
    1), so a sum of two logs indexes it without a reduction; log maps each
    payload to its discrete log, and zero to -order, which keeps every sum
    involving zero negative.  zech[k] is the Zech logarithm log(1 + g^k),
    or None where 1 + g^k = 0, for 0 <= k < order - 1; a difference of two
    logs in (-(order - 1), order - 1) indexes it directly, since a negative
    list index wraps modulo its length.  log_neg_one is log(-1): (order -
    1) / 2 for odd p, and 0 for p = 2, where -1 = 1.
    """

    __slots__ = ("p", "modulus", "order", "zero", "budget", "log", "exp", "zech", "log_neg_one")

    def __init__(self, p: int, modulus: tuple[int, ...]):
        self.p = p
        self.modulus = modulus
        self.order = p ** (len(modulus) - 1)
        self.zero = (0,) * (len(modulus) - 1)
        self.budget = self.order if self.order <= _TABLE_CAP else -1
        self.log: dict[tuple[int, ...], int] | None = None
        self.exp: list[tuple[int, ...]] | None = None
        self.zech: list[int | None] | None = None
        self.log_neg_one = (self.order - 1) // 2 if p != 2 else 0

    def charge(self) -> None:
        """Count one polynomial-route operation; build when they have paid for it."""
        self.budget -= 1
        if self.budget == 0:
            self._build()

    def _build(self) -> None:
        p, m, n = self.p, self.modulus, self.order - 1
        degree = len(m) - 1
        g = next(c for c in map(_fppoly.trim, itertools.product(range(p), repeat=degree))
                 if c and all(_fppoly.powmod(c, n // r, m, p) != (1,)
                              for r in _fppoly.prime_divisors(n)))
        exp = []
        x = (1,)
        for _ in range(n):
            exp.append(x + (0,) * (degree - len(x)))
            x = _fppoly.mulmod(g, x, m, p)
        log = {a: k for k, a in enumerate(exp)}
        log[self.zero] = -self.order
        # 1 + g^k adds 1 to the constant coefficient; log maps zero below 0
        zech = [log[((x[0] + 1) % p,) + x[1:]] for x in exp]
        self.zech = [z if z >= 0 else None for z in zech]
        self.exp = exp + exp
        self.log = log


_LOG_TABLES: dict[tuple[int, tuple[int, ...]], _LogTables] = {}

# FpQuotientField.fixed_elements per descriptor value (type, p and modulus).
_FIXED_FIELDS: dict[FieldDescriptor, tuple[Element, ...]] = {}


def _log_tables(p: int, modulus: tuple[int, ...]) -> _LogTables:
    """The one _LogTables of F_p[t]/(modulus) in this process."""
    tables = _LOG_TABLES.get((p, modulus))
    if tables is None:
        tables = _LOG_TABLES[(p, modulus)] = _LogTables(p, modulus)
    return tables


class FpQuotientField(FieldDescriptor):
    """F_p[t]/(modulus) on coefficient tuples of length degree, low degree first.

    The arithmetic, text form, enumeration, element order and identity
    involution shared by every finite field here: PrimeField (modulus t),
    QuadExt and the tower fields.  Subclasses add their checks and naming,
    and QuadExt its Frobenius involution.  The modulus is monic.  Two fields
    are equal when type, p and modulus agree.  Products and inverses go
    through the shared _LogTables once they are built, and through _fppoly
    before.
    """

    def __init__(self, p: int, modulus: tuple[int, ...]):
        self.p = p
        self.characteristic = p
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.order = p**self.degree
        self._tables = _log_tables(p, modulus)
        self.zero_payload = self._tables.zero

    def _pad(self, c: tuple[int, ...]) -> tuple[int, ...]:
        return c + (0,) * (self.degree - len(c))

    def payload_from_int(self, n: int) -> tuple[int, ...]:
        return self._pad((n % self.p,) if n % self.p else ())

    def payload_canonical(self, raw) -> tuple[int, ...]:
        if isinstance(raw, (tuple, list)) and all(type(c) is int for c in raw):
            reduced = _fppoly.mod(_fppoly.trim(tuple(c % self.p for c in raw)), self.modulus, self.p)
            return self._pad(reduced)
        return super().payload_canonical(raw)

    def payload_add(self, a, b):
        tables = self._tables
        log = tables.log
        if log is None:
            p = self.p
            return tuple([(x + y) % p for x, y in zip(a, b)])
        i = log[a]
        if i < 0:
            return b
        j = log[b]
        if j < 0:
            return a
        z = tables.zech[j - i]
        return tables.exp[i + z] if z is not None else tables.zero

    def payload_sub(self, a, b):
        tables = self._tables
        log = tables.log
        if log is None:
            p = self.p
            return tuple([(x - y) % p for x, y in zip(a, b)])
        j = log[b]
        if j < 0:
            return a
        j += tables.log_neg_one  # log(-b)
        i = log[a]
        if i < 0:
            return tables.exp[j]
        z = tables.zech[(j - i) % (self.order - 1)]
        return tables.exp[i + z] if z is not None else tables.zero

    def payload_neg(self, a):
        p = self.p
        if p == 2:
            return a
        tables = self._tables
        log = tables.log
        if log is None:
            return tuple([-x % p for x in a])
        k = log[a]
        return tables.exp[k + tables.log_neg_one] if k >= 0 else a

    def payload_mul(self, a, b):
        tables = self._tables
        log = tables.log
        if log is None:
            tables.charge()
            return self._pad(_fppoly.mulmod(_fppoly.trim(a), _fppoly.trim(b), self.modulus, self.p))
        k = log[a] + log[b]
        return tables.exp[k] if k >= 0 else tables.zero

    def payload_inv(self, a):
        tables = self._tables
        log = tables.log
        if log is not None:
            k = log[a]
            if k >= 0:
                return tables.exp[self.order - 1 - k]
        elif _fppoly.trim(a):
            tables.charge()
            return self._pad(_fppoly.invmod(_fppoly.trim(a), self.modulus, self.p))
        raise DivisionByZero(f"0 has no inverse in {self.shorthand()}")

    def payload_pow(self, a, n: int):
        """a^n for n >= 1: one table lookup, or _fppoly.powmod before the build."""
        tables = self._tables
        log = tables.log
        if log is None:
            tables.charge()
            return self._pad(_fppoly.powmod(_fppoly.trim(a), n, self.modulus, self.p))
        k = log[a]
        return tables.exp[k * n % (self.order - 1)] if k >= 0 else a

    def payload_parse(self, s: str) -> tuple[int, ...]:
        return self._pad(_fppoly.parse_poly(s, self.p, self.modulus))

    def payload_format(self, a) -> str:
        return _fppoly.format_poly(_fppoly.trim(a))

    def payload_involute(self, a):
        return a

    def payloads(self) -> Iterator[tuple[int, ...]]:
        """Every payload, in canonical element order: tuples ascending."""
        return itertools.product(range(self.p), repeat=self.degree)

    def elements(self) -> Iterator[Element]:
        """Every element, in the order of payloads()."""
        return map(partial(Element, self), self.payloads())

    def fixed_elements(self) -> tuple[Element, ...]:
        """The fixed field of the involution, in canonical element order.

        Cached per descriptor value, so equal descriptors share one tuple.
        Here the involution is the identity and every element is fixed;
        QuadExt lists its fixed field F_q without scanning F_{q^2}.
        """
        fixed = _FIXED_FIELDS.get(self)
        if fixed is None:
            fixed = _FIXED_FIELDS[self] = self._fixed_field()
        return fixed

    def _fixed_field(self) -> tuple[Element, ...]:
        return tuple(self.elements())

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.p == self.p and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash((self.kind, self.p, self.modulus))


class PrimeField(FpQuotientField):
    """F_p with the identity involution (an improper field).

    F_p is F_p[t]/(t), the degree-1 FpQuotientField: payloads are 1-tuples
    (a,) with 0 <= a < p, and all arithmetic is inherited.  Only the text
    form is stricter: an element is a plain integer, so "t" does not parse.
    """

    kind = "prime"

    def __init__(self, p: int):
        _require_prime(p)
        super().__init__(p, (0, 1))

    def payload_parse(self, s: str) -> tuple[int, ...]:
        try:
            return self.payload_from_int(int(s.strip()))
        except ValueError:
            raise ParseError(f"bad prime-field element {s!r}", 0) from None

    elements = FpQuotientField.elements

    def shorthand(self) -> str:
        return f"prime:{self.p}"

    def to_json(self) -> dict:
        return {"kind": "prime", "p": self.p}


class QuadExt(FpQuotientField):
    """F_{q^2} with q = p^e, as F_p[t]/(modulus), involution x -> x^q.

    The modulus defaults to the lexicographically smallest monic irreducible
    polynomial of degree 2e over F_p (coefficient tuples compared low degree
    first), which pins down a canonical field for each (p, e).
    """

    kind = "quadext"
    involution_order = 2

    def __init__(self, p: int, e: int, modulus: tuple[int, ...] | list[int] | None = None):
        _require_prime(p)
        if type(e) is not int or e < 1:
            raise ValueError("extension parameter e must be a positive integer")
        self.e = e
        self.q = p**e
        if modulus is None:
            modulus = _fppoly.canonical_irreducible(p, 2 * e)
        else:
            if not isinstance(modulus, (tuple, list)) or any(type(c) is not int for c in modulus):
                raise ValueError("modulus must be a list of integer coefficients")
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != 2 * e + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {2 * e}")
            if not _fppoly.is_irreducible(modulus, p):
                raise ReducibleModulus(f"{list(modulus)} is reducible over F_{p}")
        super().__init__(p, modulus)

    def payload_involute(self, a):
        return self.payload_pow(a, self.q)

    def _fixed_field(self) -> tuple[Element, ...]:
        """F_q, every F_p-combination of _fixed_basis sorted into element
        order; nothing enumerates F_{q^2}."""
        return tuple(Element(self, a) for a in sorted(self._fixed_span()))

    @cached_property
    def _fixed_basis(self) -> tuple[tuple[int, ...], ...]:
        """An F_p-basis of F_q, as payloads.

        F_q is the image of the trace x -> x + x^gamma, which is F_p-linear
        and maps onto F_q, so a row reduction mod p of the traces of 1, t,
        ..., t^(2e-1) leaves a basis: 2e conjugations and no enumeration.
        """
        p, n = self.p, self.degree
        rows: list[tuple[int, list[int]]] = []  # (pivot, row) with row[pivot] = 1
        for k in range(n):
            x = self._pad((0,) * k + (1,))
            v = list(self.payload_add(x, self.payload_involute(x)))
            for pivot, row in rows:
                c = v[pivot]
                v = [(a - c * b) % p for a, b in zip(v, row)]
            pivot = next((i for i, a in enumerate(v) if a), None)
            if pivot is not None:
                inv = pow(v[pivot], -1, p)
                rows.append((pivot, [a * inv % p for a in v]))
        return tuple(tuple(row) for _, row in rows)

    def _fixed_span(self) -> Iterator[tuple[int, ...]]:
        """Every payload of F_q, lazily: the F_p-combinations of
        _fixed_basis, zero first, not in element order."""
        p, n, basis = self.p, self.degree, self._fixed_basis
        for cs in itertools.product(range(p), repeat=len(basis)):
            yield tuple(sum(c * row[i] for c, row in zip(cs, basis)) % p for i in range(n))

    def generator(self) -> Element:
        """The class of t, the canonical element outside the fixed field."""
        return Element(self, self._pad((0, 1)))

    elements = FpQuotientField.elements

    def shorthand(self) -> str:
        return f"quadext:{self.p}:{self.e}"

    def to_json(self) -> dict:
        return {"kind": "quadext", "p": self.p, "e": self.e, "modulus": list(self.modulus)}


def _exponent_too_large(number: str) -> bool:
    """Whether number's decimal exponent exceeds int()'s digit cap.

    Fraction("1e10000000") spends seconds building a ten-million-digit
    integer, while the same number written out in full is refused at once,
    by that cap.
    """
    cap = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    _, e, exponent = number.lower().rpartition("e")
    digits = exponent.replace("_", "").lstrip("0")
    return bool(e) and digits.isdecimal() and (len(digits) > len(str(cap)) or int(digits) > cap)


def _reduced(a: int, b: int, d: int) -> tuple[int, int, int]:
    """The canonical triple of (a + bi)/d for d > 0: gcd(a, b, d) divided out."""
    if d == 1:
        return (a, b, 1)
    g = math.gcd(a, b, d)
    return (a, b, d) if g == 1 else (a // g, b // g, d // g)


class GaussianRationals(FieldDescriptor):
    """Q(i) with complex conjugation.

    A payload is the canonical integer triple (a, b, d) of (a + bi)/d:
    d > 0 and gcd(a, b, d) = 1, so zero is (0, 0, 1) and equal values have
    equal payloads.  Sums bring the operands to a common denominator
    (none is needed when d1 == d2), and every result divides out one
    three-way gcd, skipped when its denominator is 1.  Fraction appears
    only in text and in public rational values (sort_key, probability
    profiles).
    """

    kind = "gaussian"
    involution_order = 2
    is_finite = False
    zero_payload = (0, 0, 1)

    def __init__(self):
        self.characteristic = 0
        self.order = None

    def payload_from_int(self, n: int):
        return (n, 0, 1)

    def payload_canonical(self, raw):
        """An (a, b, d) int triple, an (re, im) pair of ints or Fractions, or a Fraction."""
        if isinstance(raw, (tuple, list)) and len(raw) == 3:
            if any(type(c) is not int for c in raw):
                raise TypeError(f"a Q(i) triple needs int entries, got {raw!r}")
            a, b, d = raw
            if d == 0:
                raise DivisionByZero(f"zero denominator in {raw!r}")
            return _reduced(a, b, d) if d > 0 else _reduced(-a, -b, -d)
        if isinstance(raw, (tuple, list)) and len(raw) == 2:
            if any(type(c) is not int and not isinstance(c, Fraction) for c in raw):
                raise TypeError(f"a Q(i) (re, im) pair needs int or Fraction entries, got {raw!r}")
            return self._from_fractions(Fraction(raw[0]), Fraction(raw[1]))
        if isinstance(raw, Fraction):
            return self._from_fractions(raw, Fraction(0))
        return super().payload_canonical(raw)

    @staticmethod
    def _from_fractions(re_part: Fraction, im_part: Fraction) -> tuple[int, int, int]:
        # over d = lcm of the two reduced denominators, gcd(a, b, d) is already 1
        d = math.lcm(re_part.denominator, im_part.denominator)
        return (re_part.numerator * (d // re_part.denominator),
                im_part.numerator * (d // im_part.denominator), d)

    def payload_add(self, x, y):
        a1, b1, d1 = x
        a2, b2, d2 = y
        if d1 == d2:
            return _reduced(a1 + a2, b1 + b2, d1)
        return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    def payload_sub(self, x, y):
        a1, b1, d1 = x
        a2, b2, d2 = y
        if d1 == d2:
            return _reduced(a1 - a2, b1 - b2, d1)
        return _reduced(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def payload_neg(self, x):
        a, b, d = x
        return (-a, -b, d)

    def payload_mul(self, x, y):
        a1, b1, d1 = x
        a2, b2, d2 = y
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    def payload_inv(self, x):
        # d / (a + bi) = (da - dbi) / (a^2 + b^2)
        a, b, d = x
        n = a * a + b * b
        if n == 0:
            raise DivisionByZero("0 has no inverse in Q(i)")
        return _reduced(d * a, -d * b, n)

    def payload_involute(self, x):
        a, b, d = x
        return (a, -b, d)

    def payload_sort_key(self, x):
        """(re, im) as Fractions: the order of the real, then imaginary, parts."""
        a, b, d = x
        return (Fraction(a, d), Fraction(b, d))

    def payload_parse(self, s: str):
        text = s.replace(" ", "")
        if not text:
            raise ParseError("empty element string", 0)
        pieces: list[str] = []
        start = 0
        for idx in range(1, len(text)):
            if text[idx] in "+-":
                pieces.append(text[start:idx])
                start = idx
        pieces.append(text[start:])
        if len(pieces) > 2:
            raise ParseError(f"bad Gaussian rational {s!r}", 0)
        re_part, im_part = Fraction(0), Fraction(0)
        seen_re = seen_im = False
        for piece in pieces:
            if _exponent_too_large(piece.removesuffix("i")):
                raise ParseError(f"decimal exponent too large in {s!r}", 0)
            try:
                if piece.endswith("i"):
                    if seen_im:
                        raise ValueError
                    seen_im = True
                    body = piece[:-1]
                    if body in ("", "+"):
                        im_part = Fraction(1)
                    elif body == "-":
                        im_part = Fraction(-1)
                    else:
                        im_part = Fraction(body)
                else:
                    if seen_re:
                        raise ValueError
                    seen_re = True
                    re_part = Fraction(piece)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad Gaussian rational {s!r}", 0) from None
        return self._from_fractions(re_part, im_part)

    def payload_format(self, x) -> str:
        a, b, d = x
        re_part, im_part = Fraction(a, d), Fraction(b, d)
        if im_part == 0:
            return str(re_part)
        if im_part == 1:
            im_text = "i"
        elif im_part == -1:
            im_text = "-i"
        else:
            im_text = f"{im_part}i"
        if re_part == 0:
            return im_text
        sign = "+" if im_part > 0 else ""
        return f"{re_part}{sign}{im_text}"

    def fixed_elements(self):
        raise FieldNotFinite("Q(i) has infinitely many fixed elements")

    def shorthand(self) -> str:
        return "gaussian"

    def to_json(self) -> dict:
        return {"kind": "gaussian"}

    def __eq__(self, other) -> bool:
        return isinstance(other, GaussianRationals)

    def __hash__(self) -> int:
        return hash("gaussian")


def make_field(kind: str, p: int | None = None, e: int | None = None,
               modulus=None) -> FieldDescriptor:
    """Construct a field descriptor by kind: 'prime', 'quadext', or 'gaussian'."""
    if kind == "prime":
        if p is None:
            raise ValueError("prime field needs p")
        return PrimeField(p)
    if kind == "quadext":
        if p is None or e is None:
            raise ValueError("quadratic extension needs p and e")
        return QuadExt(p, e, modulus)
    if kind == "gaussian":
        return GaussianRationals()
    raise ValueError(f"unknown field kind {kind!r}")


# The keys each kind of descriptor dict may carry (to_json writes all of them).
_DESCRIPTOR_KEYS = {
    "prime": {"kind", "p"},
    "quadext": {"kind", "p", "e", "modulus"},
    "gaussian": {"kind"},
}


def parse_field(spec) -> FieldDescriptor:
    """Accept a shorthand string ('quadext:3:1', 'prime:5', 'gaussian') or a
    descriptor dict ({"kind": "quadext", "p": 3, "e": 1, "modulus": [1, 0, 1]})."""
    if isinstance(spec, FieldDescriptor):
        return spec
    if isinstance(spec, str):
        parts = spec.strip().split(":")
        try:
            if parts[0] == "gaussian" and len(parts) == 1:
                return GaussianRationals()
            if parts[0] == "prime" and len(parts) == 2:
                return PrimeField(int(parts[1]))
            if parts[0] == "quadext" and len(parts) == 3:
                return QuadExt(int(parts[1]), int(parts[2]))
        except ValueError:
            pass
        raise ParseError(f"bad field shorthand {spec!r}", 0)
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in _DESCRIPTOR_KEYS:
            raise ParseError(f"bad field descriptor kind {kind!r}", 0)
        unused = sorted(map(str, spec.keys() - _DESCRIPTOR_KEYS[kind]))
        if unused:
            raise ValueError(f"a {kind} field descriptor has no key {', '.join(unused)}")
        return make_field(kind, spec.get("p"), spec.get("e"), spec.get("modulus"))
    raise TypeError(f"cannot interpret {spec!r} as a field")


def involute(x: Element) -> Element:
    """The field involution applied to one element."""
    return x.conj()


def is_fixed(x: Element) -> bool:
    """True when the involution fixes x (x lies in the fixed field)."""
    return x.is_fixed()


def fixed_field_coordinates(x: Element) -> tuple[Element, Element]:
    """Write x = a + kappa * b with a, b in the fixed field.

    kappa is i for Q(i) and the canonical generator t for quadratic
    extensions.  Improper fields have no such decomposition.
    """
    f = x.owner
    if f.involution_order == 1:
        raise ImproperField(f"{f.shorthand()} has the identity involution")
    if isinstance(f, GaussianRationals):
        a, b, d = x.payload
        return f.element((a, 0, d)), f.element((b, 0, d))
    kappa = f.generator()
    denom = kappa - kappa.conj()
    b = (x - x.conj()) / denom
    a = x - kappa * b
    return a, b
