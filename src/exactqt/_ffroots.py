"""F[x] on payloads for every field descriptor, and roots over finite fields.

_Ring is the one polynomial ring of the package: Polynomial and char_poly
(forms) compute with it over the finite fields and Q(i) alike, through the
payload_* methods and zero_payload that every descriptor has.  A polynomial
is a list of payloads, low degree first, with no trailing zero.  So the log
tables serve this code wherever they are built, and no Element is made
inside the loops.

The roots of f in a finite field F_Q are those of g = gcd(f, x^Q - x), the
product of f's distinct linear factors over F_Q.  Equal-degree splitting
(Berlekamp 1970; Cantor and Zassenhaus 1981) then pulls g apart into those
factors: for odd p, h splits as gcd(h, (x + a)^((Q-1)/2) - 1), which
collects the roots r with r + a a nonzero square; in characteristic 2
(Q = 2^k), as gcd(h, Tr(a x)) with the trace Tr(y) = y + y^2 + ... +
y^(2^(k-1)) mod h, which collects the roots r with Tr(a r) = 0.  No random
choice is needed.  For odd p, some shift a in F_Q separates any two roots
(the nonzero squares are no union of cosets of an additive subgroup), so
the shifts are taken in payload order.  For p = 2 they are the F_2-basis
t^(k-1), ..., t^0: Tr(xy) is nondegenerate, so r != r' have
Tr(t^i (r - r')) != 0 for some i, and k rounds separate every pair.

Over Q = q^2 a polynomial whose coefficients the involution fixes (a
Hermitian matrix's characteristic polynomial, say) lies in F_q[x], and is
first solved over F_q by the same splitting with q for Q: g_1 = gcd(f, x^q
- x), and shifts a in F_q, the F_p-combinations of QuadExt._fixed_basis
taken lazily (for p = 2, that basis itself, with Tr to F_2 from F_q).  The
shifts must lie in F_q: every element of F_q is a square in F_{q^2}, so a
square test in F_{q^2} never tells two roots in F_q apart, and the
exponent shrinks from (q^2-1)/2 to (q-1)/2.  Then g_1's roots, repeated
ones included, are divided out of f.  Only a rest of degree 2 or more can
have roots, all outside F_q, and it goes on to the F_{q^2} splitting above.
Its first power continues the ladder already climbed mod f instead of
starting again: x^(q^2) = (x^q)^q for p = 2, and for odd p x^((q^2-1)/2) =
(x * x^((q-1)/2))^(q-1), both reduced mod the rest.  So roots outside F_q
cost about as many top-level squarings as the F_{q^2} route alone, and
exactly as many for p = 2.
"""

from __future__ import annotations

import itertools

from .starfield import FieldDescriptor, FpQuotientField, QuadExt


class _Ring:
    """F[x] on payload lists, for one field F."""

    def __init__(self, field: FieldDescriptor):
        self.mul = field.payload_mul
        self.add = field.payload_add
        self.sub = field.payload_sub
        self.neg = field.payload_neg
        self.inv = field.payload_inv
        self.zero = field.zero_payload
        self.one = field.payload_from_int(1)

    def trim(self, a: list) -> list:
        zero = self.zero
        while a and a[-1] == zero:
            a.pop()
        return a

    def monic(self, a: list) -> list:
        mul, lead_inv = self.mul, self.inv(a[-1])
        return [mul(c, lead_inv) for c in a]

    def combine(self, op, a: list, b: list) -> list:
        """a op b coefficientwise, for op = self.add or self.sub."""
        out = list(a) + [self.zero] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = op(out[i], c)
        return self.trim(out)

    def product(self, a: list, b: list) -> list:
        mul, add, zero = self.mul, self.add, self.zero
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x != zero:
                for j, y in enumerate(b):
                    out[i + j] = add(out[i + j], mul(x, y))
        return self.trim(out)

    def divmod(self, a: list, m: list) -> tuple[list, list]:
        """Quotient and remainder of a by a nonzero m, with one inverse of
        its leading coefficient, none when that is one."""
        if not m:
            raise ZeroDivisionError("polynomial division by zero")
        mul, add, neg, zero = self.mul, self.add, self.neg, self.zero
        lead_inv = None if m[-1] == self.one else self.inv(m[-1])
        n = len(m) - 1
        rem = list(a)
        quot = [zero] * max(len(a) - n, 0)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + n]
            if c != zero:
                if lead_inv is not None:
                    c = mul(c, lead_inv)
                quot[i] = c
                c = neg(c)
                for j in range(n):
                    rem[i + j] = add(rem[i + j], mul(c, m[j]))
        del rem[n:]
        return quot, self.trim(rem)

    def exact_div(self, a: list, m: list) -> list:
        quot, rem = self.divmod(a, m)
        if rem:
            raise ArithmeticError("division was not exact")
        return quot

    def sqrmod(self, a: list, m: list) -> list:
        """a^2 mod m, each cross product taken once and doubled (in
        characteristic 2 the doubled ones vanish)."""
        mul, add, zero = self.mul, self.add, self.zero
        out = [zero] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x != zero:
                out[2 * i] = add(out[2 * i], mul(x, x))
                x2 = add(x, x)
                if x2 != zero:
                    for j in range(i + 1, len(a)):
                        out[i + j] = add(out[i + j], mul(x2, a[j]))
        return self.divmod(out, m)[1]

    def linear_power(self, a, e: int, m: list) -> list:
        """(x + a)^e mod m, by squaring and multiplying by x + a."""
        mul, add, zero = self.mul, self.add, self.zero
        result = [self.one]
        for bit in bin(e)[2:]:
            result = self.sqrmod(result, m)
            if bit == "1":
                shifted = [zero] + result
                if a != zero:
                    for i, c in enumerate(result):
                        shifted[i] = add(shifted[i], mul(a, c))
                result = self.divmod(shifted, m)[1]
        return result

    def power(self, a: list, e: int, m: list) -> list:
        """a^e mod m for e >= 1, from e's leading bit: e = 2^j costs j squarings."""
        result = a
        for bit in bin(e)[3:]:
            result = self.sqrmod(result, m)
            if bit == "1":
                result = self.divmod(self.product(result, a), m)[1]
        return result

    def gcd(self, a: list, b: list) -> list:
        """The monic gcd of a and b; [] when both are zero."""
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a) if a else a


def field_roots(field: FpQuotientField, coeffs) -> list:
    """The payloads of the distinct roots in field of a nonzero polynomial.

    coeffs are payloads, low degree first, with a nonzero last one.  The
    roots come back in payload order, which is element order.  Over F_{q^2}
    a polynomial whose coefficients the involution fixes is first solved
    over F_q, and only a rest of degree 2 or more goes on to F_{q^2}.
    """
    ring = _Ring(field)
    zero, one = ring.zero, ring.one
    f = ring.monic(list(coeffs))
    found = []
    if f[0] == zero:
        found.append(zero)
        while f[0] == zero:
            del f[0]
    if len(f) < 2:
        return found
    p, k = field.characteristic, field.degree
    if isinstance(field, QuadExt) and all(field.payload_involute(c) == c for c in f):
        q = field.q
        s = _ladder_start(ring, p, q, f)
        in_fq, g = _subfield_roots(ring, p, q, f, s,
                                   field._fixed_basis if p == 2 else field._fixed_span())
        found += in_fq
        if len(f) - len(g) < 2:  # no room for a factor without roots in F_q
            return sorted(found)
        h = g
        while len(h) > 1:  # strip g's roots with their multiplicities
            f = ring.exact_div(f, h)
            h = ring.gcd(f, h)
        if len(f) < 3:
            return sorted(found)
        # the ladder goes on mod the rest: x^Q = (x^q)^q for p = 2, and for
        # odd p x^((Q-1)/2) = (x * x^((q-1)/2))^(q-1)
        if p == 2:
            s = ring.power(ring.divmod(s, f)[1], q, f)
        else:
            s = ring.power(ring.divmod([zero] + s, f)[1], q - 1, f)
    else:
        s = _ladder_start(ring, p, field.order, f)
    if p == 2:  # the F_2-basis t^(k-1), ..., t^0
        shifts = [tuple(int(i == j) for i in range(k)) for j in range(k - 1, -1, -1)]
    else:
        shifts = itertools.product(range(p), repeat=k)
    return sorted(found + _subfield_roots(ring, p, field.order, f, s, shifts)[0])


def _ladder_start(ring: _Ring, p: int, order: int, f: list) -> list:
    """x^order mod f for p = 2, x^((order-1)/2) mod f for odd p."""
    if p == 2:
        return ring.power([ring.zero, ring.one], order, f)
    return ring.linear_power(ring.zero, (order - 1) // 2, f)


def _subfield_roots(ring: _Ring, p: int, order: int, f: list, s: list, shifts) -> tuple[list, list]:
    """The roots of f in its subfield F_order, and their product g.

    f(0) != 0, and s is _ladder_start's power for order.  shifts are an
    F_2-basis of F_order for p = 2, and every element of F_order, zero
    first, for odd p.
    """
    zero, one = ring.zero, ring.one
    shifts = iter(shifts)
    if p == 2:
        g = ring.gcd(f, ring.combine(ring.add, s, [zero, one]))
        todo = [g]
        k = order.bit_length() - 1
    else:
        # f(0) != 0, so x^order - x and x^(order-1) - 1 = s^2 - 1 share their
        # gcd with f; and gcd(g, s - 1) is the split by the shift a = 0.
        g = ring.gcd(f, ring.combine(ring.sub, ring.sqrmod(s, f), [one]))
        d = ring.gcd(g, ring.combine(ring.sub, s, [one]))
        todo = [d, ring.divmod(g, d)[0]]
        next(shifts)  # a = 0: the split just made
        half = (order - 1) // 2
    found = []
    while True:
        found += [ring.neg(h[0]) for h in todo if len(h) == 2]
        todo = [h for h in todo if len(h) > 2]
        if not todo:
            return found, g
        a = next(shifts)
        split = []
        for h in todo:
            if p == 2:
                y = trace = [zero, a]
                for _ in range(k - 1):
                    y = ring.sqrmod(y, h)
                    trace = ring.combine(ring.add, trace, y)
                d = ring.gcd(h, trace)
            else:
                w = ring.linear_power(a, half, h)
                d = ring.gcd(h, ring.combine(ring.sub, w, [one]))
            split += [d, ring.divmod(h, d)[0]] if 1 < len(d) < len(h) else [h]
        todo = split
