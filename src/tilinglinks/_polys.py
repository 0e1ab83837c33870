"""Integer polynomial utilities for the real cyclotomic substrate.

Polynomials are lists/tuples of ints, low degree first.  Everything here is
exact integer arithmetic; callers layer rational normalization on top.
"""

from functools import lru_cache
from math import gcd


def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def divexact(a, b):
    """Exact division of integer polynomials; b must divide a over Z."""
    a = list(a)
    b = trim(b)
    q = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1]
        if c % lead != 0:
            raise ArithmeticError("inexact polynomial division")
        q[k] = c // lead
        if q[k]:
            for j, bj in enumerate(b):
                a[k + j] -= q[k] * bj
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def _radical(n):
    r, d = 1, 2
    m = n
    while d * d <= m:
        if m % d == 0:
            r *= d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        r *= m
    return r


@lru_cache(maxsize=None)
def cyclotomic(n):
    """Coefficients of the n-th cyclotomic polynomial (low degree first)."""
    if n == 1:
        return (-1, 1)
    rad = _radical(n)
    if rad != n:
        # Phi_n(x) = Phi_rad(x^(n/rad))
        inner = cyclotomic(rad)
        step = n // rad
        out = [0] * ((len(inner) - 1) * step + 1)
        for i, c in enumerate(inner):
            out[i * step] = c
        return tuple(out)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = divexact(poly, cyclotomic(d))
    return tuple(poly)


def fold_palindromic(coeffs):
    """Write a palindromic even-degree p(z) as z^k * q(z + 1/z); return q.

    Used to turn the cyclotomic polynomial of 2L into the minimal polynomial
    of 2cos(pi/L).
    """
    coeffs = trim(coeffs)
    deg = len(coeffs) - 1
    if deg % 2 != 0 or coeffs != coeffs[::-1]:
        raise ValueError("polynomial is not palindromic of even degree")
    k = deg // 2
    s = [coeffs[k + t] for t in range(k + 1)]
    q = [0] * (k + 1)
    for j in range(k, -1, -1):
        qj = q[j] = s[j]
        if not qj:
            continue
        # (z + 1/z)^j = sum_i comb(j, i) z^(j - 2i); c runs through comb(j, i)
        c = 1
        for i, t in enumerate(range(j - 2, -1, -2)):
            c = c * (j - i) // (i + 1)
            s[t] -= qj * c
    return tuple(q)


def content(vec):
    return gcd(*vec)
