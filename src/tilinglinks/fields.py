"""Exact arithmetic in K0 = Q(2cos(pi/L)), and on pure multiples u sqrt(D).

An element is u, a coordinate vector on the power basis of the generator
g = 2cos(pi/L) stored as integers over a common denominator, or u sqrt(D)
when it carries a radicand D in K0; a sum that mixes K0 with K0 sqrt(D), or
two radicands, raises DomainError.  All ring operations are exact.  The
vector stops at its highest nonzero coefficient, so zero is () and the
values the certificates read (2, 2cos(pi/m), D) are short at any degree;
sums, products and the reduction mod the modulus work on those lengths,
and the writers pad with zeros to the field's degree.
Floating point enters only through `approx`/`sign`, which bound the value
under the distinguished real embedding by a certified fixed-point
enclosure: one integer dot product of the coefficients with a cached table
of the generator's powers scaled by 2^P, built in integers from 2cos(pi/L)
rounded to fixed point.  Both start P at the coefficients' size and double
it until the enclosure decides them: `sign` once it excludes 0, `approx`
once both of its ends also round to the same double, the correctly rounded
value.  The same tables, built from 2cos(k pi/L), give the conjugate
embeddings that the square detection of `adjoin_sqrt` needs, so no numeric
library is imported here.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, inf, isqrt, lcm
from typing import NamedTuple, Optional

from ._polys import (cyclotomic, dickson_to_power, fold_palindromic, mul,
                     prime_factors, trim)
from .errors import DomainError, VerificationError

_FIXED_PREC = 128  # lowest P of the fixed-point enclosure
_MAX_PREC = 1 << 14  # 16x the largest P certified values were seen to need
_SQUARE_DETECT_MAX_DEGREE = 8


def _totient(n):
    """Euler's phi(n) = n prod(1 - 1/p) over the primes p dividing n."""
    for p in prime_factors(n):
        n = n // p * (p - 1)
    return n


class _FieldContextFields(NamedTuple):
    L: int
    modulus: tuple[int, ...]
    degree: int


class FieldContext(_FieldContextFields):
    """The real cyclotomic field Q(2cos(pi/L)).

    `modulus` is the monic integer minimal polynomial of the generator,
    low degree first; `degree` is its degree, phi(2L)/2 for L >= 2.  The
    subclass keeps a `__dict__` for the cached `_modulus_terms`.
    """

    @cached_property
    def _modulus_terms(self) -> tuple[tuple[int, int], ...]:
        """(j, c_j) for the nonzero coefficients of `modulus` below its
        leading 1: the folded modulus of an even L is about half zeros."""
        return tuple((j, c) for j, c in enumerate(self.modulus[:-1]) if c)

    def conjugate_indices(self):
        return tuple(k for k in range(1, self.L + 1) if gcd(k, 2 * self.L) == 1)

    def __repr__(self):
        return f"FieldContext(L={self.L}, degree={self.degree})"


@lru_cache(maxsize=None)
def make_context(L: int) -> FieldContext:
    """Field context for Q(2cos(pi/L)); degree 1 (plain Q) for L in {1, 2}."""
    if not isinstance(L, int) or L < 1:
        raise DomainError(f"L must be a positive integer, got {L!r}")
    if L == 1:  # Phi_2 = z + 1 has odd degree
        modulus = (2, 1)  # x + 2, generator -2
    else:
        modulus = fold_palindromic(cyclotomic(2 * L))
        expected = _totient(2 * L) // 2
        if len(modulus) - 1 != expected:
            raise VerificationError(
                f"modulus degree {len(modulus) - 1} != phi(2L)/2 = {expected}")
    return FieldContext(L=L, modulus=modulus, degree=len(modulus) - 1)


def _arctan_inv(n, W):
    """2^W arctan(1/n) for an integer n > 1 by its Taylor series, each term
    floored once: within its term count + 1 of the exact value."""
    power, n2 = (1 << W) // n, n * n
    total, k = 0, 1
    while power:
        term = power // k
        total += term if k & 2 == 0 else -term
        power //= n2
        k += 2
    return total


def _two_cos_pi_over(L, q, k=1):
    """G with |G - 2cos(k pi/L) 2^q| <= 1 for 0 < k <= L, in integers only.

    pi = 16 arctan(1/5) - 4 arctan(1/239) (Machin) and cos(k pi/L) by its
    Taylor series, both in fixed point at W = q + guard bits, then rounded
    to nearest.  pi is within 4W + 40 units of 2^-W; each of the fewer than
    W cosine terms adds a few units, and none amplifies an earlier error
    more than 5-fold (x^2/2 <= pi^2/2), so twice the sum is within
    2^(bitlen(W) + 7) units of 2cos(k pi/L) 2^W.  The guard bits
    32 + 2 bitlen(q) make that less than 2^-24 of a unit of 2^-q."""
    guard = 32 + 2 * q.bit_length()
    W = q + guard
    x = (16 * _arctan_inv(5, W) - 4 * _arctan_inv(239, W)) * k // L
    x2 = x * x >> W
    term = total = 1 << W
    j = 0
    while term:
        j += 2
        term = -(term * x2 >> W) // ((j - 1) * j)
        total += term
    return (total + (1 << (guard - 2))) >> (guard - 1)


@lru_cache(maxsize=32)
def _power_table(L, P, k=1):
    """Integers T_i with |T_i - g^i 2^P| <= 1 for i < degree, where
    g = 2cos(k pi/L) is the conjugate `k` of the generator (k = 1 the
    principal one).

    The powers are floor-products X_(i+1) = floor(X_i G / 2^Q) of one
    G = `_two_cos_pi_over(L, Q, k)`, Q = P + guard bits.  |G - g 2^Q| <= 1
    and |G| <= 2^(Q+1), so each product at most doubles the error of X_i
    and adds g^i + 1 to it: X_i is within
    (i + 2) 2^(i-1) < 2^(degree + bitlen(degree) - 1) of g^i 2^Q.  The
    guard bits degree + bitlen(degree) + 8 shrink that below 2^-9 before
    T_i is rounded to nearest."""
    d = make_context(L).degree
    shift = d + d.bit_length() + 8
    q = P + shift
    G = _two_cos_pi_over(L, q, k)
    half = 1 << (shift - 1)
    x = 1 << q
    table = []
    for _ in range(d):
        table.append((x + half) >> shift)
        x = x * G >> q
    return tuple(table)


def _base_enclosure(num, L, P, k):
    """(S, E) with |sum c_i g^i - S / 2^P| <= E / 2^P, g = 2cos(k pi/L): S
    is an exact dot product with the power table, so sum |c_i| bounds its
    error; the + 1 is slack."""
    S = sum(map(operator.mul, num, _power_table(L, P, k)))
    return S, sum(map(abs, num)) + 1


def _enclosure(x, P, k=1):
    """(lo, hi, D) with lo/D <= x <= hi/D under the embedding
    g -> 2cos(k pi/L) (k = 1 the principal one).  A pure u sqrt(D) takes
    the product of the enclosures of u and of sqrt(D), or None when D's
    does not exclude 0 at this P."""
    L = x.ctx.L
    S, E = _base_enclosure(x.num, L, P, k)
    rad = x.radicand
    if rad is None:
        return S - E, S + E, x.den << P
    rs, re = _base_enclosure(rad.num, L, P, k)
    if rs + re < 0:
        raise VerificationError("radicand negative in this embedding")
    if rs - re <= 0:
        return None
    # sqrt(rad) 2^P = sqrt(rad 2^(2P)) between isqrt of the floor of the
    # lower end and the ceiling of the root of the upper end
    r_lo = ((rs - re) << P) // rad.den
    r_hi = -((-(rs + re) << P) // rad.den)
    s_lo, s_hi = isqrt(r_lo), isqrt(r_hi - 1) + 1
    ends = ((S - E) * s_lo, (S - E) * s_hi, (S + E) * s_lo, (S + E) * s_hi)
    return min(ends), max(ends), x.den << (2 * P)


def _enclosures(x, k=1):
    """`_enclosure(x, P, k)` for P = 128, 256, ... up to the cap, from the
    first P at or above bits(largest numerator of x and its radicand) -
    bits(x.den) + 64, skipping a P at which the radicand's enclosure still
    contains 0; VerificationError when the caller asks past the cap.

    The error of an enclosure, sum |c_i| + 1 units of 2^-P, grows with the
    coefficients, so a lower P seldom decides a value with large ones; and
    each P certifies the same answer (the exact sign, the one correctly
    rounded double), so the start sets only the work done."""
    rad = x.radicand
    bits = max(map(int.bit_length,
                   x.num + (() if rad is None else rad.num)))
    need = bits - x.den.bit_length() + 64
    P = _FIXED_PREC
    while P < need and P < _MAX_PREC:
        P *= 2
    while P <= _MAX_PREC:
        enc = _enclosure(x, P, k)
        if enc is not None:
            yield enc
        P *= 2
    raise VerificationError("cannot certify the embedding; value too close to zero")


def _to_float(n, d):
    """n / d correctly rounded (Python's int / int), +-inf past the
    largest double."""
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf


def _normalize(num, den):
    """(num, den) as a tuple up to its highest nonzero coefficient over
    den > 0, the content shared with den divided out; zero is ((), 1)."""
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    num = tuple(num[:n])
    if den < 0:
        num = tuple(-c for c in num)
        den = -den
    g = gcd(*num, den)
    if g > 1:
        num = tuple(c // g for c in num)
        den //= g
    return num, den


def _reduce_mod(vec, ctx):
    """vec mod the modulus: only the terms at or above `degree` fold down,
    so a vector shorter than `degree` comes back as it is."""
    d = ctx.degree
    if len(vec) <= d:
        return vec
    terms = ctx._modulus_terms
    vec = list(vec)
    for i in range(len(vec) - 1, d - 1, -1):
        c = vec[i]
        if c:
            base = i - d
            for j, mj in terms:
                vec[base + j] -= c * mj
    return vec[:d]


def _vadd(a, da, b, db):
    m = da * db // gcd(da, db)
    fa, fb = m // da, m // db
    if len(a) < len(b):
        a, fa, b, fb = b, fb, a, fa
    out = [x * fa for x in a]
    for i, y in enumerate(b):
        out[i] += y * fb
    return _normalize(out, m)


def _vmul(a, da, b, db, ctx):
    if not a or not b:
        return (), 1
    out = [0] * (len(a) + len(b) - 1)
    # field elements are often sparse on the power basis (Chebyshev values,
    # small-degree combinations), so loop over b's nonzero terms only
    b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in b_terms:
                out[i + j] += ai * bj
    return _normalize(_reduce_mod(out, ctx), da * db)


class AlgebraicNumber:
    """An exact element u = num/den of K0 = Q(2cos(pi/L)), or, when
    `radicand` D (an element of K0) is set, the pure element u sqrt(D).

    A product of a K0 element and a pure one is pure, and a product of two
    pure elements over the same D is u v D, in K0.  A sum of a nonzero K0
    element and a nonzero pure one, like any mix of two radicands, raises
    DomainError.  Immutable: equal and hashed by its fields.

    `num` ends at the highest nonzero coefficient (zero is `()`, over
    `den` 1) and holds at most `ctx.degree` entries; `base_coeffs`,
    `ext_coeffs` and `as_json_dict` pad it with zeros to `ctx.degree`.
    """

    __slots__ = ("ctx", "num", "den", "radicand")

    def __init__(self, ctx: FieldContext, num: tuple[int, ...], den: int,
                 radicand: Optional["AlgebraicNumber"] = None):
        set_ = object.__setattr__
        set_(self, "ctx", ctx)
        set_(self, "num", num)
        set_(self, "den", den)
        set_(self, "radicand", radicand)

    def _key(self):
        return (self.ctx, self.num, self.den, self.radicand)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):  # pickle and copy through __init__
        return AlgebraicNumber, self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(ctx: FieldContext, value) -> "AlgebraicNumber":
        q = Fraction(value)
        return AlgebraicNumber(ctx, *_normalize((q.numerator,), q.denominator))

    @staticmethod
    def generator(ctx: FieldContext) -> "AlgebraicNumber":
        return embed_cos(ctx, ctx.L)

    @staticmethod
    def _make(ctx, num, den, radicand=None):
        num, den = _normalize(num, den)
        return AlgebraicNumber(ctx, num, den, radicand if num else None)

    # -- structure ---------------------------------------------------------

    def _padded(self):
        """`num` with zeros up to `degree`, as its writers print it."""
        return self.num + (0,) * (self.ctx.degree - len(self.num))

    @property
    def base_coeffs(self) -> tuple[Fraction, ...]:
        if self.radicand is not None:
            return (Fraction(0),) * self.ctx.degree
        return tuple(Fraction(c, self.den) for c in self._padded())

    @property
    def ext_coeffs(self) -> Optional[tuple[Fraction, ...]]:
        if self.radicand is None:
            return None
        return tuple(Fraction(c, self.den) for c in self._padded())

    # the coefficient vector of sqrt(radicand) and its denominator, in the
    # names perfbench/tracer.py reads for its coefficient-size metric
    ext_num = property(lambda self: None if self.radicand is None else self.num)
    ext_den = property(lambda self: self.den)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def _check_ctx(self, other):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise DomainError("mismatched field contexts")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ctx(other)
        if self.radicand != other.radicand:
            if other.is_zero:
                return self
            if self.is_zero:
                return other
            raise DomainError("cannot add elements with different square "
                              "roots (K0 and K0 sqrt(D) do not mix)")
        return AlgebraicNumber._make(
            self.ctx, *_vadd(self.num, self.den, other.num, other.den),
            self.radicand)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return AlgebraicNumber(self.ctx, tuple(-c for c in self.num),
                               self.den, self.radicand)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ctx(other)
        ctx, rad = self.ctx, self.radicand
        num, den = _vmul(self.num, self.den, other.num, other.den, ctx)
        if rad is None or other.radicand is None:
            return AlgebraicNumber._make(
                ctx, num, den, other.radicand if rad is None else rad)
        if rad != other.radicand:
            raise DomainError("cannot multiply elements with different "
                              "square roots")
        # u sqrt(D) v sqrt(D) = u v D
        return AlgebraicNumber._make(ctx, *_vmul(num, den, rad.num, rad.den, ctx))

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self) -> "AlgebraicNumber":
        if self.is_zero:
            raise ArithmeticError("division by zero")
        ctx, rad, u = self.ctx, self.radicand, (self.num, self.den)
        if rad is not None:  # (u sqrt(D))^-1 = (u D)^-1 sqrt(D)
            u = _vmul(*u, rad.num, rad.den, ctx)
        return AlgebraicNumber._make(ctx, *_base_inverse(*u, ctx), rad)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__mul__(other.inverse())

    def __rtruediv__(self, other):
        return self.inverse().__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = AlgebraicNumber.rational(self.ctx, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return AlgebraicNumber.rational(self.ctx, other)
        return NotImplemented

    # -- numeric embedding -------------------------------------------------

    def approx(self) -> float:
        """Principal real embedding as the correctly rounded float: P
        doubles until the fixed-point enclosure excludes zero (a value below
        the smallest subnormal rounds to the zero of its sign) and both of
        its ends round to one double, which then (rounding being monotone)
        is the rounding of the value itself.  A rational value is int / int
        instead: halfway between two doubles, every enclosure straddles it."""
        if self.is_zero:
            return 0.0
        if self.radicand is None and len(self.num) == 1:
            return _to_float(self.num[0], self.den)
        for lo, hi, D in _enclosures(self):
            if lo > 0 or hi < 0:
                f = _to_float(lo, D)
                if f == _to_float(hi, D):
                    return f

    def sign(self) -> int:
        """Exact sign under the principal real embedding (certified: P
        doubles until the fixed-point enclosure excludes zero)."""
        if self.is_zero:
            return 0
        for lo, hi, _ in _enclosures(self):
            if lo > 0:
                return 1
            if hi < 0:
                return -1

    def __float__(self):
        return self.approx()

    def __repr__(self):
        return f"<{self.approx():.12g} in Q(2cos(pi/{self.ctx.L}))" + \
            (" + sqrt ext>" if self.radicand is not None else ">")


def _base_inverse(num, den, ctx):
    """Inverse of num/den in Q[x]/(Psi), Psi the modulus.

    With b = num over its content, one pseudo-division s Psi = Q b + R
    leaves the small pair (b, R): an extended Euclid on it, with primitive
    integer remainders (pseudo-division, then the content divided out),
    tracks only tau, with tau R == c (mod b) for its last remainder c, a
    nonzero constant, as an integer vector over one denominator.  One exact
    division gives sigma = (c - tau R) / b, so sigma b + tau R = c, and as
    R == -Q b (mod Psi), (sigma - tau Q) / c, of degree below deg Psi, is
    the inverse of b.  tau has degree below deg b, so a sparse b of low
    degree (the radicand D) never carries a cofactor of Psi's degree."""
    b = trim(num)
    if not b:
        raise ArithmeticError("division by zero")
    content = gcd(*b)
    b = [c // content for c in b]
    if len(b) == 1:  # a rational: b is +-1
        return _normalize((den * b[0],), content)
    _, Q, R = _pseudo_divmod(ctx.modulus, b)
    r_prev, r_cur = b, R
    g = gcd(*r_cur)
    r_cur = [c // g for c in r_cur]
    t_prev, t_cur = ((), 1), ((1,), g)
    while len(r_cur) > 1:
        scale, q, rem = _pseudo_divmod(r_prev, r_cur)
        if not rem:
            raise ArithmeticError("element not invertible (modulus not coprime)")
        g = gcd(*rem)
        # scale * r_prev - q * r_cur == rem, so the same combination of the
        # cofactors, divided by the content g, belongs to rem / g
        (tp, dp), (tc, dc) = t_prev, t_cur
        m = dp * dc // gcd(dp, dc)
        fp, fc = scale * (m // dp), m // dc
        qt = mul(q, tc)
        t_next = [0] * max(len(tp), len(qt))
        for i, c in enumerate(tp):
            t_next[i] = c * fp
        for i, c in enumerate(qt):
            t_next[i] -= c * fc
        r_prev, r_cur = r_cur, [c // g for c in rem]
        t_prev, t_cur = t_cur, _normalize(tuple(trim(t_next)), m * g)
    # tau = tv / td: tv R == c (mod b) for c = td r_cur[0], and
    # s (c - tv R) == q b exactly, so sigma = q / s
    tv, td = t_cur
    c = td * r_cur[0]
    a = [-x for x in mul(tv, R)]
    a[0] += c
    s, q, _ = _pseudo_divmod(trim(a), b)
    # num/den = content b / den, inverted: den (q - s tv Q) / (s c content)
    # deg tv < deg b and deg Q = deg Psi - deg b, so vec stays below deg Psi
    vec = [-s * x for x in mul(tv, Q)]
    vec += [0] * (len(q) - len(vec))
    for i, x in enumerate(q):
        vec[i] += x
    return _normalize([x * den for x in vec], s * c * content)


def _pseudo_divmod(a, b):
    """(s, q, r) with s * a == q * b + r over Z and deg r < deg b, where
    s = lead(b)^(deg a - deg b + 1) makes every division step exact; (1, [],
    a) when deg a < deg b."""
    db = len(b) - 1
    steps = len(a) - db
    if steps <= 0:
        return 1, [], trim(a)
    lead = b[-1]
    scale = lead ** steps
    a = [c * scale for c in a]
    q = [0] * steps
    # an even L's radicand is a polynomial in g^2: skip b's zero terms
    b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for k in range(steps - 1, -1, -1):
        c = q[k] = a[k + db] // lead
        if c:
            for j, bj in b_terms:
                a[k + j] -= c * bj
    return scale, q, trim(a[:db])


# -- spec-level operations --------------------------------------------------

def embed_cos(ctx: FieldContext, k: int) -> AlgebraicNumber:
    """The exact element 2cos(pi/k) for k | L: the Dickson polynomial
    D_(L/k) at the generator, reduced mod the modulus."""
    if k < 1 or ctx.L % k != 0:
        raise DomainError(f"k={k} does not divide L={ctx.L}")
    num = _reduce_mod(dickson_to_power([0] * (ctx.L // k) + [1]), ctx)
    return AlgebraicNumber(ctx, *_normalize(num, 1))


def is_rational(x: AlgebraicNumber) -> Optional[Fraction]:
    """The rational value of x when x is in Q, else None."""
    if x.radicand is not None or len(x.num) > 1:
        return None
    return Fraction(x.num[0] if x.num else 0, x.den)


def adjoin_sqrt(ctx: FieldContext, D: AlgebraicNumber) -> AlgebraicNumber:
    """Positive square root of D > 0.

    Returns a K0 element when D is detected to be a perfect square
    (rational squares exactly; K0 squares via a numeric candidate verified
    exactly); otherwise the pure element 1 sqrt(D).
    """
    if D.ctx != ctx:
        raise DomainError("radicand from a different field context")
    if D.radicand is not None:
        raise DomainError("radicand must lie in the base field")
    if D.is_zero or D.sign() <= 0:
        raise DomainError("radicand must be positive under the real embedding")
    q = is_rational(D)
    if q is not None:
        ad = q.numerator * q.denominator
        s = isqrt(ad)
        if s * s == ad:
            return AlgebraicNumber.rational(ctx, Fraction(s, q.denominator))
    elif ctx.degree <= _SQUARE_DETECT_MAX_DEGREE:
        r = _detect_square(ctx, D)
        if r is not None:
            return r
    return AlgebraicNumber(ctx, (1,), 1, D)


def _detect_square(ctx, D):
    """sqrt(D) in K0, or None when D is not totally positive or no
    candidate verifies.

    Each conjugate D_k (g -> 2cos(k pi/L)) gets a certified sign, P
    doubling as in `sign`, and its root rounded from the enclosure.  The
    Vandermonde matrix of the conjugates, from the same power tables, is
    inverted once in exact fractions; each sign choice for the roots then
    gives the coefficients of a candidate by one matrix-vector product,
    rounded to integers over D.den and verified exactly.  That rounding
    loses no square: (D.den sqrt(D))^2 = D.den * (D.den D) is an algebraic
    integer, and Z[g] is the ring of integers of K0 (Washington,
    *Introduction to Cyclotomic Fields*, Prop. 2.16), so D.den sqrt(D)
    has integer coefficients on the power basis."""
    L, d, ks = ctx.L, ctx.degree, ctx.conjugate_indices()
    roots = []
    for k in ks:
        for lo, hi, scale in _enclosures(D, k):
            if hi < 0:
                return None  # not totally positive, cannot be a square
            if lo > 0:
                break
        # sqrt(S / scale) for the midpoint S = (lo + hi) / 2
        roots.append(Fraction(isqrt((lo + hi) * scale >> 1), scale))
    # Gauss-Jordan on [V | diag(roots)], V[i][j] = g_i^j, leaves
    # V^-1 diag(roots); no pivoting, as the leading minors of V are
    # Vandermonde determinants of distinct conjugates
    one = 1 << _FIXED_PREC
    rows = [[Fraction(t, one) for t in _power_table(L, _FIXED_PREC, k)]
            + [rt if j == i else 0 for j in range(d)]
            for i, (k, rt) in enumerate(zip(ks, roots))]
    for c in range(d):
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    den = lcm(*(v.denominator for row in rows for v in row[d:]))
    W = [[v.numerator * (den // v.denominator) for v in row[d:]]
         for row in rows]
    for bits in range(1 << (d - 1)):
        signs = [1] + [1 if bits >> i & 1 else -1 for i in range(d - 1)]
        # each coefficient S / den rounded to the nearest multiple of 1/D.den
        cand = AlgebraicNumber._make(
            ctx, [(2 * D.den * sum(map(operator.mul, row, signs)) + den)
                  // (2 * den) for row in W], D.den)
        if cand * cand == D:
            return cand if cand.sign() > 0 else -cand
    return None


def minimal_polynomial(x: AlgebraicNumber) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of x over Q (low degree first), from the
    first linear dependence among the powers of x on the power basis of K0.

    A pure x = u sqrt(D) has q(t^2), q the minimal polynomial of x^2 = u^2 D
    in K0: its even powers lie in K0 and its odd ones in K0 sqrt(D), so on
    both the first dependence is that of the powers of x^2.  D is taken not
    to be a square in K0, as `adjoin_sqrt` leaves it."""
    if x.radicand is not None:
        q = minimal_polynomial(x * x)
        out = [Fraction(0)] * (2 * len(q) - 1)
        out[::2] = q
        return tuple(out)
    dim = x.ctx.degree
    # incremental echelon with combination tracking
    pivots = []  # (col, row_vec, combo)
    power = AlgebraicNumber.rational(x.ctx, 1)
    for k in range(dim + 1):
        vec = [Fraction(c, power.den) for c in power._padded()]
        combo = [Fraction(0)] * (dim + 1)
        combo[k] = Fraction(1)
        for col, row, rc in pivots:
            f = vec[col]
            if f:
                vec = [a - f * b for a, b in zip(vec, row)]
                combo = [a - f * b for a, b in zip(combo, rc)]
        nz = next((i for i, c in enumerate(vec) if c), None)
        if nz is None:
            lead = combo[k]
            return tuple(c / lead for c in combo[:k + 1])
        lead = vec[nz]
        vec = [c / lead for c in vec]
        combo = [c / lead for c in combo]
        pivots.append((nz, vec, combo))
        if k < dim:
            power = power * x
    raise VerificationError("no linear dependence found among powers")


def is_algebraic_integer(x: AlgebraicNumber) -> bool:
    """True iff the minimal polynomial of x has integer coefficients."""
    return all(c.denominator == 1 for c in minimal_polynomial(x))


# -- serialization -----------------------------------------------------------

def _pairs(num, den):
    """[numerator, denominator] of each c/den in lowest terms (den > 0)."""
    out = []
    for c in num:
        g = gcd(c, den)
        out.append([c // g, den // g])
    return out


def as_json_dict(x: AlgebraicNumber) -> dict:
    """u sqrt(D) writes zeros as `base`, u as `ext` and D as `radicand`."""
    return _json_dict(x, as_json_dict)


def _json_dict(x, radicand_dict):
    """`as_json_dict(x)`, with `radicand_dict` serializing x's radicand."""
    pure = x.radicand is not None
    pairs = _pairs(x._padded(), x.den)
    return {
        "L": x.ctx.L,
        "base": _pairs((0,) * x.ctx.degree, 1) if pure else pairs,
        "ext": pairs if pure else None,
        "radicand": radicand_dict(x.radicand) if pure else None,
        "approx": x.approx(),
    }

