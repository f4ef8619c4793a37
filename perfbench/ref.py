"""Reference arithmetic for the answer checks, written apart from exactqt.

Nothing here imports the package under test.  Finite fields are
F_p[t]/(f) with elements as coefficient tuples (low degree first, padded to
deg f); the Gaussian rationals are (Fraction, Fraction) pairs.  Program
outputs reach this module only as the strings the program prints, so a
check that passes is a second implementation agreeing with the first, and
a change to the program's internal element encoding does not break it.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction


class CheckFailed(Exception):
    """An answer of the program disagrees with the reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ----------------------------------------------------------------------
# Polynomials over F_p as int lists, low degree first.

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _polymod(c: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of c by a nonzero g (g need not be monic)."""
    c = [x % p for x in c]
    _trim(c)
    inv = pow(g[-1], p - 2, p)
    dg = len(g) - 1
    while len(c) - 1 >= dg and c:
        k = c[-1] * inv % p
        shift = len(c) - 1 - dg
        for j, gj in enumerate(g):
            c[shift + j] = (c[shift + j] - k * gj) % p
        _trim(c)
    return c


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1 .. deg(f) // 2."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not _polymod(list(f), list(tail) + [1], p):
                return False
    return True


@functools.lru_cache(maxsize=None)
def canonical_modulus(p: int, n: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree n over F_p, tails compared low
    degree first: the documented canonical modulus of every exactqt field."""
    for tail in itertools.product(range(p), repeat=n):
        f = tail + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial")  # unreachable


# ----------------------------------------------------------------------
# Fields.

_TERM = re.compile(r"^(\d*)(t(?:\^(\d+))?)?$")


class FiniteField:
    """F_p[t]/(modulus) whose involution is x -> x^q (q None: identity)."""

    def __init__(self, p: int, modulus: tuple[int, ...], q: int | None = None):
        self.p = p
        self.f = tuple(modulus)
        self.n = len(modulus) - 1
        self.q = q
        self.order = p**self.n
        self.zero = (0,) * self.n
        self.one = self.from_int(1)

    @classmethod
    def quadext(cls, p: int, e: int) -> FiniteField:
        """F_{q^2} with q = p^e, the canonical modulus and Frobenius x -> x^q."""
        return cls(p, canonical_modulus(p, 2 * e), p**e)

    @classmethod
    def tower(cls, p: int, n: int) -> FiniteField:
        return cls(p, canonical_modulus(p, n))

    def from_int(self, k: int) -> tuple[int, ...]:
        return (k % self.p,) + (0,) * (self.n - 1)

    def _pad(self, c: list[int]) -> tuple[int, ...]:
        return tuple(c) + (0,) * (self.n - len(c))

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, n = self.p, self.n
        out = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self._pad(_polymod(out, list(self.f), p))

    def pow(self, a, k: int):
        result, base = self.one, a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def inv(self, a):
        expect(a != self.zero, "inverse of zero")
        return self.pow(a, self.order - 2)

    def conj(self, a):
        return a if self.q is None else self.pow(a, self.q)

    def is_zero(self, a) -> bool:
        return a == self.zero

    def elements(self):
        """Every element, in exactqt's canonical order (lexicographic in c0, c1, ...)."""
        return itertools.product(range(self.p), repeat=self.n)

    def parse(self, s: str):
        """Read the program's element text: '0', '2', 't', '1+2t', '2t^3+t^4'."""
        s = s.replace(" ", "")
        coeffs = [0] * max(self.n, 1)
        for term in s.split("+"):
            m = _TERM.match(term)
            expect(bool(term) and m is not None, f"unreadable element {s!r}")
            digits, var, power = m.groups()
            c = int(digits) if digits else 1
            k = (int(power) if power else 1) if var else 0
            expect(k < self.n, f"degree too high in {s!r}")
            coeffs[k] += c
        return self._pad(_polymod(coeffs, list(self.f), self.p))

    def format(self, a) -> str:
        terms = []
        for k, c in enumerate(a):
            if c == 0:
                continue
            head = "" if (c == 1 and k) else str(c)
            terms.append(head + ("" if k == 0 else "t" if k == 1 else f"t^{k}"))
        return "+".join(terms) if terms else "0"


def field(spec: str):
    """The reference field for an exactqt shorthand: 'quadext:p:e' or 'gaussian'."""
    if spec == "gaussian":
        return GaussField()
    kind, p, e = spec.split(":")
    expect(kind == "quadext", f"no reference field for {spec!r}")
    return FiniteField.quadext(int(p), int(e))


class GaussField:
    """Q(i) with complex conjugation."""

    p = 0
    zero = (Fraction(0), Fraction(0))
    one = (Fraction(1), Fraction(0))

    def from_int(self, k: int):
        return (Fraction(k), Fraction(0))

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def sub(self, a, b):
        return (a[0] - b[0], a[1] - b[1])

    def neg(self, a):
        return (-a[0], -a[1])

    def mul(self, a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def inv(self, a):
        n = a[0] * a[0] + a[1] * a[1]
        expect(n != 0, "inverse of zero")
        return (a[0] / n, -a[1] / n)

    def conj(self, a):
        return (a[0], -a[1])

    def is_zero(self, a) -> bool:
        return a[0] == 0 and a[1] == 0

    def parse(self, s: str):
        """Read '3', '-1/2', 'i', '-i', '2/5i', '3/5-4/5i'."""
        s = s.replace(" ", "")
        cut = max(s.rfind("+", 1), s.rfind("-", 1))
        if s.endswith("i"):
            re_txt, im_txt = (s[:cut], s[cut:-1]) if cut > 0 else ("0", s[:-1])
            im_txt = {"": "1", "+": "1", "-": "-1"}.get(im_txt, im_txt)
        else:
            re_txt, im_txt = s, "0"
        try:
            return (Fraction(re_txt), Fraction(im_txt))
        except (ValueError, ZeroDivisionError):
            raise CheckFailed(f"unreadable Gaussian rational {s!r}") from None

    def format(self, a) -> str:
        re_part, im_part = a
        if im_part == 0:
            return str(re_part)
        im_txt = {1: "i", -1: "-i"}.get(im_part, f"{im_part}i")
        if re_part == 0:
            return im_txt
        return f"{re_part}{'+' if im_part > 0 else ''}{im_txt}"


# ----------------------------------------------------------------------
# Vectors and matrices as tuples of field elements.

def dot(k, xs, ys):
    acc = k.zero
    for a, b in zip(xs, ys):
        acc = k.add(acc, k.mul(a, b))
    return acc


def herm(k, x, y):
    """<x, y> with the involution on the first argument."""
    return dot(k, [k.conj(a) for a in x], y)


def matvec(k, m, v):
    return tuple(dot(k, row, v) for row in m)


def matmul(k, a, b):
    cols = list(zip(*b))
    return tuple(tuple(dot(k, row, col) for col in cols) for row in a)


def adjoint(k, m):
    return tuple(tuple(k.conj(m[i][j]) for i in range(len(m))) for j in range(len(m[0])))


def identity(k, n: int):
    return tuple(tuple(k.one if i == j else k.zero for j in range(n)) for i in range(n))


def scale(k, c, v):
    return tuple(k.mul(c, a) for a in v)


def vadd(k, x, y):
    return tuple(k.add(a, b) for a, b in zip(x, y))


def kron(k, x, y):
    return tuple(k.mul(a, b) for a in x for b in y)


def proportional(k, x, y) -> bool:
    """Both nonzero and every 2x2 minor of [x; y] vanishes."""
    if all(k.is_zero(a) for a in x) or all(k.is_zero(b) for b in y):
        return False
    return all(k.mul(x[i], y[j]) == k.mul(x[j], y[i])
               for i in range(len(x)) for j in range(i + 1, len(x)))


def det(k, m):
    """Determinant by Gaussian elimination with field division."""
    rows = [list(r) for r in m]
    n = len(rows)
    acc = k.one
    for c in range(n):
        piv = next((r for r in range(c, n) if not k.is_zero(rows[r][c])), None)
        if piv is None:
            return k.zero
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            acc = k.neg(acc)
        acc = k.mul(acc, rows[c][c])
        inv = k.inv(rows[c][c])
        for r in range(c + 1, n):
            f = k.mul(rows[r][c], inv)
            if not k.is_zero(f):
                rows[r] = [k.sub(a, k.mul(f, b)) for a, b in zip(rows[r], rows[c])]
    return acc


def trace(k, m):
    acc = k.zero
    for i in range(len(m)):
        acc = k.add(acc, m[i][i])
    return acc


def first_root(big: FiniteField, small_modulus: tuple[int, ...]):
    """First root of an F_p polynomial in big's canonical element order: the
    documented image of the generator under exactqt's inclusions."""
    coeffs = [big.from_int(c) for c in small_modulus]
    for x in big.elements():
        acc = big.zero
        for c in reversed(coeffs):
            acc = big.add(big.mul(acc, x), c)
        if acc == big.zero:
            return x
    raise CheckFailed("small modulus has no root in the big field")


def embed_element(big: FiniteField, image, a):
    """Image of a = sum a_k t^k under t -> image."""
    acc = big.zero
    for c in reversed(a):
        acc = big.add(big.mul(acc, image), big.from_int(c))
    return acc
