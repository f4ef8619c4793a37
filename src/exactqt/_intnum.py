"""Integer primality and factorization helpers (deterministic throughout)."""

from __future__ import annotations

import math

# Witness set makes Miller-Rabin exact for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """One nontrivial factor of an odd composite n, by Pollard rho.

    The polynomial offset c walks a fixed ladder, so the result is
    deterministic for a given n.
    """
    for c in range(1, 1000):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"factorization stalled on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _rho_factor(m)
        stack.append(d)
        stack.append(m // d)
    return out


def sqrt_minus_one_mod(p: int) -> int:
    """Smallest-witness square root of -1 modulo a prime p = 1 (mod 4)."""
    if p % 4 != 1:
        raise ValueError("p must be 1 mod 4")
    a = 2
    while pow(a, (p - 1) // 2, p) != p - 1:
        a += 1
    return pow(a, (p - 1) // 4, p)
