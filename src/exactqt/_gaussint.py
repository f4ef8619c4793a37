"""Gaussian integer arithmetic for root lifting.

Elements of Z[i] are plain (a, b) int tuples meaning a + b*i.  The
Gaussian-rational root search calls gaussian_root_candidates, which finds
the roots of a monic squarefree Z[i] polynomial modulo an inert prime p
(p = 3 mod 4, so Z[i]/(p) is the field F_{p^2}) and Newton-lifts each one
to Z[i]/(p^k) past the root bound (Zassenhaus 1969; Loos 1983).
"""

from __future__ import annotations

from ._intnum import is_prime


def gnorm(z: tuple[int, int]) -> int:
    return z[0] * z[0] + z[1] * z[1]


def gconj(z: tuple[int, int]) -> tuple[int, int]:
    return (z[0], -z[1])


def gmul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gpoly_at(coeffs: list[tuple[int, int]], z: tuple[int, int], m: int) -> tuple[int, int]:
    """The polynomial with coefficients coeffs (low degree first) at z, mod m."""
    re_acc, im_acc = 0, 0
    for c_re, c_im in reversed(coeffs):
        re_acc, im_acc = ((re_acc * z[0] - im_acc * z[1] + c_re) % m,
                          (re_acc * z[1] + im_acc * z[0] + c_im) % m)
    return re_acc, im_acc


def _simple_roots_mod(coeffs, deriv, p: int) -> list[tuple[int, int]] | None:
    """Every root in Z[i]/(p) in residue order, or None if one is repeated."""
    roots = []
    for a in range(p):
        for b in range(p):
            if _gpoly_at(coeffs, (a, b), p) == (0, 0):
                if _gpoly_at(deriv, (a, b), p) == (0, 0):
                    return None
                roots.append((a, b))
    return roots


def _newton_lift(coeffs, deriv, r: tuple[int, int], m: int, bound: int) -> tuple[int, int]:
    """Lift the simple root r mod m = p to a root mod p^(2^j) > 2*bound,
    read back as symmetric residues."""
    while m <= 2 * bound:
        m = m * m
        v = _gpoly_at(coeffs, r, m)
        d = _gpoly_at(deriv, r, m)
        # d is a unit mod p (r is simple) and p is inert, so N(d) is too
        n_inv = pow(gnorm(d), -1, m)
        step = gmul(v, gconj(d))
        r = ((r[0] - step[0] * n_inv) % m, (r[1] - step[1] * n_inv) % m)
    half = m // 2
    return tuple(x - m if x > half else x for x in r)


def gaussian_root_candidates(coeffs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """At most deg candidates that include every Z[i] root of a monic
    squarefree polynomial with Z[i] coefficients (low degree first).

    The prime is the first p = 3 (mod 4) at which every root mod p is
    simple; one exists because the discriminant is nonzero.  Two Z[i]
    roots never share a residue there (it would be a double root mod p),
    so each root is the Newton lift of its own residue.  Lifting stops once
    p^k > 2B, with B = 1 + max(|Re c| + |Im c|) the Cauchy bound, so the
    symmetric residues are the root's coordinates.  A residue root that
    comes from no Z[i] root lifts to a non-root; callers verify.
    """
    if len(coeffs) < 2:
        return []
    deriv = [(k * c_re, k * c_im) for k, (c_re, c_im) in enumerate(coeffs)][1:]
    bound = 1 + max(abs(c_re) + abs(c_im) for c_re, c_im in coeffs[:-1])
    p = 3
    while True:
        residues = _simple_roots_mod(coeffs, deriv, p) if is_prime(p) else None
        if residues is not None:
            return [_newton_lift(coeffs, deriv, r, p, bound) for r in residues]
        p += 4
