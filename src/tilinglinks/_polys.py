"""Integer polynomial utilities for the real cyclotomic substrate.

Polynomials are lists/tuples of ints, low degree first.  Everything here is
exact integer arithmetic; callers layer rational normalization on top.
`mul` forms every field product too (`fields._vmul` reduces its result mod
the modulus).  It loops over the second operand's nonzero terms only: a
radicand of an even L is a polynomial in x^2, half of its terms zero.  The
cyclotomic polynomial is the Moebius product of the x^d - 1, built in linear
passes; one trial-division `prime_factors` serves it and Euler's phi.
One routine writes Dickson series on the power basis, term by term over the
nonzero terms: the folded modulus and every 2cos(pi/k) = D_(L/k)(2cos(pi/L)).
"""


def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in b_terms:
                out[i + j] += ai * bj
    return out


def prime_factors(n):
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def cyclotomic(n):
    """Coefficients of the n-th cyclotomic polynomial (low degree first).

    Phi_n(x) = Phi_r(x^(n/r)) for the radical r of n, and Phi_r is the
    Moebius product prod_{d | r} (x^d - 1)^mu(r/d) (Washington,
    *Introduction to Cyclotomic Fields*, ch. 2): one linear pass per
    squarefree divisor d, multiplying by x^d - 1 when mu(r/d) = +1, then
    dividing exactly by it, q_i = q_(i-d) - a_i, when mu(r/d) = -1.
    """
    primes = prime_factors(n)
    divisors = [(1, 1)]  # (d, mu(d)); mu(r/d) = mu(r) mu(d) for squarefree r
    for p in primes:
        divisors += [(d * p, -mu) for d, mu in divisors]
    mu_r = (-1) ** len(primes)
    poly = [1]
    for d, mu in divisors:
        if mu == mu_r:
            out = [-c for c in poly] + [0] * d
            for i, c in enumerate(poly):
                out[i + d] += c
            poly = out
    for d, mu in divisors:
        if mu != mu_r:
            poly = [-c for c in poly[:len(poly) - d]]
            for i in range(d, len(poly)):
                poly[i] += poly[i - d]
    step = n // divisors[-1][0]
    out = [0] * ((len(poly) - 1) * step + 1)
    out[::step] = poly
    return tuple(out)


def dickson_to_power(s):
    """Power-basis coefficients of s_0 + sum_(t>=1) s_t D_t(x), D_t the
    Dickson polynomial D_t(z + 1/z) = z^t + z^-t.

    Term by term over the nonzero s_t only, from the closed form
    D_t(x) = sum_i (-1)^i t/(t-i) C(t-i, i) x^(t-2i) (Lidl, Mullen and
    Turnwald, *Dickson Polynomials*, 1993, ch. 2).  Each coefficient is
    the last one times -(t-2i+2)(t-2i+1) / (i (t-i)), and that division is
    exact; a series with few nonzero terms, like the folded modulus of an
    even L, costs sum t/2 over those terms."""
    out = [0] * len(s)
    out[0] = s[0]
    for t in range(1, len(s)):
        c = s[t]
        if c:
            out[t] += c
            k = t
            for i in range(1, t // 2 + 1):
                c = -c * (k * (k - 1)) // (i * (t - i))
                k -= 2
                out[k] += c
    return out


def fold_palindromic(coeffs):
    """Write a palindromic even-degree p(z) as z^k * q(z + 1/z); return q.

    z^-k p(z) is the Dickson series of p's upper half.  Used to turn the
    cyclotomic polynomial of 2L into the minimal polynomial of 2cos(pi/L).
    """
    coeffs = trim(coeffs)
    deg = len(coeffs) - 1
    if deg % 2 != 0 or coeffs != coeffs[::-1]:
        raise ValueError("polynomial is not palindromic of even degree")
    return tuple(dickson_to_power(coeffs[deg // 2:]))

