"""Polynomial arithmetic over F_p with coefficient tuples (low degree first).

Working representation is trimmed: no trailing zeros, () is the zero
polynomial.  Moduli are full monic tuples of length degree + 1.  These
helpers back starfield's FpQuotientField, the one F_p[t]/(modulus) class
behind every finite field: the prime fields, the quadratic extensions and
the internal tower fields of the closure evaluator.
"""

from __future__ import annotations

import functools
import itertools

from .errors import ParseError


def trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def deg(c: tuple[int, ...]) -> int:
    return len(c) - 1  # -1 for the zero polynomial


def add(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return trim(tuple(out))


def neg(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    return tuple((-x) % p for x in a)


def sub(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    return add(a, neg(b, p), p)


def mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return trim(tuple(out))


def divmod_poly(a, b, p: int):
    """Quotient and remainder of a by nonzero b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    binv = pow(b[-1], p - 2, p) if b[-1] != 1 else 1
    rem = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] * binv % p
        if c == 0:
            continue
        q[i] = c
        for j, y in enumerate(b):
            rem[i + j] = (rem[i + j] - c * y) % p
    return trim(tuple(q)), trim(tuple(rem))


def mod(a, m, p: int):
    return divmod_poly(a, m, p)[1]


def mulmod(a, b, m, p: int):
    return mod(mul(a, b, p), m, p)


def powmod(a, e: int, m, p: int):
    result = (1,)
    base = mod(a, m, p)
    while e:
        if e & 1:
            result = mulmod(result, base, m, p)
        base = mulmod(base, base, m, p)
        e >>= 1
    return result


def gcd(a, b, p: int):
    while b:
        a, b = b, mod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple(x * inv % p for x in a)
    return a


def invmod(a, m, p: int):
    """Inverse of a modulo m via extended Euclid; a must be a unit."""
    r0, r1 = m, mod(a, m, p)
    s0, s1 = (), (1,)
    while r1:
        q, r = divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
    if deg(r0) != 0:
        raise ZeroDivisionError("element is not invertible")
    c = pow(r0[0], p - 2, p)
    return mod(tuple(x * c % p for x in s0), m, p)


def prime_divisors(n: int) -> list[int]:
    """The distinct prime divisors of n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin's test for a monic polynomial of degree >= 1 over F_p."""
    n = deg(f)
    if n < 1:
        return False
    x = (0, 1)
    if powmod(x, p**n, f, p) != mod(x, f, p):
        return False
    for r in prime_divisors(n):
        h = sub(powmod(x, p ** (n // r), f, p), x, p)
        if deg(gcd(h, f, p)) != 0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def canonical_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over F_p.

    Coefficient tuples (c0, ..., c_{n-1}) are compared low degree first.
    For n >= 2 the candidates with c0 = 0, all of them divisible by t and
    all first in that order, are skipped before any Rabin test; t itself
    is the answer for n = 1.
    """
    first = range(1, p) if n > 1 else range(p)
    for tail in itertools.product(first, *[range(p)] * (n - 1)):
        if is_irreducible(tail + (1,), p):
            return tail + (1,)
    raise ArithmeticError("no irreducible polynomial found")  # unreachable


def eval_int_poly(coeffs, x, field):
    """Evaluate a polynomial with small-int coefficients at a field element.

    field must expose payload_from_int / payload_add / payload_mul; x is a
    field element payload.
    """
    acc = field.payload_from_int(0)
    for c in reversed(coeffs):
        acc = field.payload_add(field.payload_mul(acc, x), field.payload_from_int(c))
    return acc


def format_poly(coeffs: tuple[int, ...]) -> str:
    """Canonical textual form, e.g. (1, 2) -> '1+2t', (0, 0, 1) -> 't^2'."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            power = "t" if k == 1 else f"t^{k}"
            terms.append(head + power)
    return "+".join(terms) if terms else "0"


def parse_poly(text: str, p: int, modulus) -> tuple[int, ...]:
    """Parse '1+2t', 't^2', '2', '-t' style strings and reduce them mod modulus.

    A power of t at or above the modulus degree is reduced by repeated
    squaring, so t^k costs time in log k, not in k.
    """
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty element string", 0)
    coeffs: dict[int, int] = {}
    i = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    while i <= len(s):
        j = i
        while j < len(s) and s[j] not in "+-":
            j += 1
        term = s[i:j]
        if not term:
            raise ParseError("expected a term", i)
        coef, k = _parse_term(term, i)
        coeffs[k] = coeffs.get(k, 0) + sign * coef
        if j >= len(s):
            break
        sign = -1 if s[j] == "-" else 1
        i = j + 1
    out = trim(tuple(coeffs.get(k, 0) % p for k in range(deg(modulus))))
    for k, c in coeffs.items():
        if k >= deg(modulus) and c % p:
            out = add(out, mul((c % p,), powmod((0, 1), k, modulus, p), p), p)
    return out


def _parse_term(term: str, offset: int) -> tuple[int, int]:
    if "t" not in term:
        if not term.isdigit():
            raise ParseError(f"bad coefficient {term!r}", offset)
        return int(term), 0
    head, _, tail = term.partition("t")
    if head == "":
        coef = 1
    elif head.isdigit():
        coef = int(head)
    else:
        raise ParseError(f"bad coefficient {head!r}", offset)
    if tail == "":
        return coef, 1
    if not tail.startswith("^") or not tail[1:].isdigit():
        raise ParseError(f"bad power {tail!r}", offset)
    return coef, int(tail[1:])
