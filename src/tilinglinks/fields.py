"""Exact arithmetic in K0 = Q(2cos(pi/L)) and quadratic extensions K0(sqrt(D)).

Elements are coordinate vectors on the power basis of the generator
g = 2cos(pi/L), stored as integer vectors with a common denominator, plus an
optional second vector carrying the coefficient of sqrt(D) for a single
adjoined square root.  All ring operations are exact.  Floating point enters
only through `approx`/`sign`, which bound the value under the distinguished
real embedding by a certified fixed-point enclosure: one integer dot product
of the coefficients with a cached table of the generator's powers scaled by
2^P, built in integers from 2cos(pi/L) rounded to fixed point.  Both double
P until the enclosure decides them: `sign` once it excludes 0, `approx` once
both of its ends also round to the same double, the correctly rounded value.
The same tables, built from 2cos(k pi/L), give the conjugate embeddings
that the square detection of `adjoin_sqrt` needs, so no numeric library is
imported here.

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

_FIXED_PREC = 128  # first P of the fixed-point enclosure
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
    g -> 2cos(k pi/L) (k = 1 the principal one), or None when the
    radicand's enclosure does not exclude 0 at this P."""
    L = x.ctx.L
    S, E = _base_enclosure(x.num, L, P, k)
    if x.ext_num is None:
        return S - E, S + E, x.den << P
    rad = x.radicand
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
    bs, be = _base_enclosure(x.ext_num, L, P, k)
    ends = ((bs - be) * s_lo, (bs - be) * s_hi,
            (bs + be) * s_lo, (bs + be) * s_hi)
    # common denominator den * ext_den * 2^(2P)
    a_scale, b_scale = x.ext_den << P, x.den
    return ((S - E) * a_scale + min(ends) * b_scale,
            (S + E) * a_scale + max(ends) * b_scale,
            (x.den * x.ext_den) << (2 * P))


def _enclosures(x, k=1):
    """`_enclosure(x, P, k)` for P = 128, 256, ... up to the cap, skipping a
    P at which the radicand's enclosure still contains 0; VerificationError
    when the caller asks past the cap."""
    P = _FIXED_PREC
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
    if den < 0:
        num = tuple(-c for c in num)
        den = -den
    g = gcd(*num, den)
    if g > 1:
        num = tuple(c // g for c in num)
        den //= g
    return num, den


def _reduce_mod(vec, ctx):
    d = ctx.degree
    terms = ctx._modulus_terms
    vec = list(vec)
    if len(vec) < d:
        vec += [0] * (d - len(vec))
    for i in range(len(vec) - 1, d - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            base = i - d
            for j, mj in terms:
                vec[base + j] -= c * mj
    return tuple(vec[:d])


def _vadd(a, da, b, db):
    m = da * db // gcd(da, db)
    fa, fb = m // da, m // db
    return _normalize(tuple(x * fa + y * fb for x, y in zip(a, b)), m)


def _vmul(a, da, b, db, ctx):
    out = [0] * (2 * len(a) - 1 if a else 1)
    # field elements are often sparse on the power basis (Chebyshev values,
    # small-degree combinations), so loop over b's nonzero terms only
    b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in b_terms:
                out[i + j] += ai * bj
    return _normalize(_reduce_mod(out, ctx), da * db)


class AlgebraicNumber:
    """An exact element of K0 = Q(2cos(pi/L)), or of K0(sqrt(D)).

    The optional (`ext_num`, `ext_den`) vector is the coefficient of
    sqrt(radicand); at most one radicand may appear among elements that are
    combined arithmetically.  Immutable: equal and hashed by its fields.
    """

    __slots__ = ("ctx", "num", "den", "ext_num", "ext_den", "radicand")

    def __init__(self, ctx: FieldContext, num: tuple[int, ...], den: int,
                 ext_num: Optional[tuple[int, ...]] = None, ext_den: int = 1,
                 radicand: Optional["AlgebraicNumber"] = None):
        set_ = object.__setattr__
        set_(self, "ctx", ctx)
        set_(self, "num", num)
        set_(self, "den", den)
        set_(self, "ext_num", ext_num)
        set_(self, "ext_den", ext_den)
        set_(self, "radicand", radicand)

    def _key(self):
        return (self.ctx, self.num, self.den, self.ext_num, self.ext_den,
                self.radicand)

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
        num = (q.numerator,) + (0,) * (ctx.degree - 1)
        return AlgebraicNumber(ctx, *_normalize(num, q.denominator))

    @staticmethod
    def generator(ctx: FieldContext) -> "AlgebraicNumber":
        return embed_cos(ctx, ctx.L)

    @staticmethod
    def _make(ctx, num, den, ext_num=None, ext_den=1, radicand=None):
        num, den = _normalize(tuple(num), den)
        if ext_num is not None:
            ext_num, ext_den = _normalize(tuple(ext_num), ext_den)
            if not any(ext_num):
                ext_num, ext_den, radicand = None, 1, None
        if ext_num is None:
            radicand = None
        return AlgebraicNumber(ctx, num, den, ext_num, ext_den, radicand)

    # -- structure ---------------------------------------------------------

    @property
    def base_coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def ext_coeffs(self) -> Optional[tuple[Fraction, ...]]:
        if self.ext_num is None:
            return None
        return tuple(Fraction(c, self.ext_den) for c in self.ext_num)

    @property
    def is_zero(self) -> bool:
        return not any(self.num) and self.ext_num is None

    def _merge_radicand(self, other):
        if self.radicand is None:
            return other.radicand
        if other.radicand is None or self.radicand == other.radicand:
            return self.radicand
        raise DomainError("cannot combine elements with different square roots")

    def _check_ctx(self, other):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise DomainError("mismatched field contexts")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ctx(other)
        rad = self._merge_radicand(other)
        num, den = _vadd(self.num, self.den, other.num, other.den)
        if self.ext_num is None and other.ext_num is None:
            return AlgebraicNumber._make(self.ctx, num, den)
        e1 = self.ext_num or (0,) * self.ctx.degree
        e2 = other.ext_num or (0,) * self.ctx.degree
        ext = _vadd(e1, self.ext_den, e2, other.ext_den)
        return AlgebraicNumber._make(self.ctx, num, den, *ext, rad)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return AlgebraicNumber._make(
            self.ctx, tuple(-c for c in self.num), self.den,
            None if self.ext_num is None else tuple(-c for c in self.ext_num),
            self.ext_den, self.radicand)

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
        rad = self._merge_radicand(other)
        ctx = self.ctx
        a, da = self.num, self.den
        b, db = self.ext_num, self.ext_den
        c, dc = other.num, other.den
        e, de = other.ext_num, other.ext_den
        num, den = _vmul(a, da, c, dc, ctx)
        if b is None and e is None:
            return AlgebraicNumber._make(ctx, num, den)
        ext_parts = []
        if e is not None:
            ext_parts.append(_vmul(a, da, e, de, ctx))
        if b is not None:
            ext_parts.append(_vmul(b, db, c, dc, ctx))
        ext = ext_parts[0]
        if len(ext_parts) == 2:
            ext = _vadd(*ext_parts[0], *ext_parts[1])
        if b is not None and e is not None:
            bd, dbd = _vmul(b, db, e, de, ctx)
            bdD = _vmul(bd, dbd, rad.num, rad.den, ctx)
            num, den = _vadd(num, den, *bdD)
        return AlgebraicNumber._make(ctx, num, den, *ext, rad)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self) -> "AlgebraicNumber":
        if self.is_zero:
            raise ArithmeticError("division by zero")
        ctx = self.ctx
        if self.ext_num is None:
            inv = _base_inverse(self.num, self.den, ctx)
            return AlgebraicNumber._make(ctx, *inv)
        # (a + b sqrt(D))^(-1) = (a - b sqrt(D)) / (a^2 - b^2 D)
        a2 = _vmul(self.num, self.den, self.num, self.den, ctx)
        b2 = _vmul(self.ext_num, self.ext_den, self.ext_num, self.ext_den, ctx)
        b2D = _vmul(*b2, self.radicand.num, self.radicand.den, ctx)
        norm = _vadd(*a2, *(tuple(-c for c in b2D[0]), b2D[1]))
        if not any(norm[0]):
            raise ArithmeticError("zero norm: radicand is a square in the base field")
        ninv = _base_inverse(*norm, ctx)
        num = _vmul(self.num, self.den, *ninv, ctx)
        ext = _vmul(tuple(-c for c in self.ext_num), self.ext_den, *ninv, ctx)
        return AlgebraicNumber._make(ctx, *num, *ext, self.radicand)

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
        if self.ext_num is None and not any(self.num[1:]):
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
            (" + sqrt ext>" if self.ext_num is not None else ">")


def _base_inverse(num, den, ctx):
    """Inverse of a base-field element via extended Euclid in Q[x]/(modulus).

    The remainders are kept as primitive integer polynomials (pseudo-division,
    then the content divided out); the cofactor t is an integer vector with
    one denominator, so that t * num == r (mod modulus) throughout."""
    if not any(num):
        raise ArithmeticError("division by zero")
    if ctx.degree == 1:
        return _normalize((den,), num[0])
    r_prev, r_cur = list(ctx.modulus), trim(num)
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
    tv, td = t_cur
    vec = tuple(c * den for c in tv) + (0,) * (ctx.degree - len(tv))
    return _normalize(vec, td * r_cur[0])


def _pseudo_divmod(a, b):
    """(s, q, r) with s * a == q * b + r over Z and deg r < deg b, where
    s = lead(b)^(deg a - deg b + 1) makes every division step exact."""
    db = len(b) - 1
    lead = b[-1]
    steps = len(a) - db
    scale = lead ** steps
    a = [c * scale for c in a]
    q = [0] * steps
    for k in range(steps - 1, -1, -1):
        c = q[k] = a[k + db] // lead
        if c:
            for j, bj in enumerate(b):
                a[k + j] -= c * bj
    return scale, q, trim(a[:db])


# -- spec-level operations --------------------------------------------------

def embed_cos(ctx: FieldContext, k: int) -> AlgebraicNumber:
    """The exact element 2cos(pi/k) for k | L: the Dickson polynomial
    D_(L/k) at the generator, reduced mod the modulus."""
    if k < 1 or ctx.L % k != 0:
        raise DomainError(f"k={k} does not divide L={ctx.L}")
    num = _reduce_mod(dickson_to_power([0] * (ctx.L // k) + [1]), ctx)
    return AlgebraicNumber(ctx, num, 1)


def is_rational(x: AlgebraicNumber) -> Optional[Fraction]:
    """The rational value of x when x is in Q, else None."""
    if x.ext_num is not None:
        return None
    if any(x.num[1:]):
        return None
    return Fraction(x.num[0] if x.num else 0, x.den)


def adjoin_sqrt(ctx: FieldContext, D: AlgebraicNumber) -> AlgebraicNumber:
    """Positive square root of D > 0.

    Returns a base-field element when D is detected to be a perfect square
    (rational squares exactly; K0 squares via a numeric candidate verified
    exactly); otherwise an extension element with radicand D.
    """
    if D.ctx != ctx:
        raise DomainError("radicand from a different field context")
    if D.ext_num is not None:
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
    unit = (1,) + (0,) * (ctx.degree - 1)
    zero = (0,) * ctx.degree
    return AlgebraicNumber._make(ctx, zero, 1, unit, 1, D)


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
    first linear dependence among the powers of x on the field basis."""
    ctx = x.ctx
    dim = ctx.degree * (2 if x.ext_num is not None else 1)

    def as_vec(el):
        v = [Fraction(c, el.den) for c in el.num]
        if dim == 2 * ctx.degree:
            if el.ext_num is not None:
                v += [Fraction(c, el.ext_den) for c in el.ext_num]
            else:
                v += [Fraction(0)] * ctx.degree
        return v

    # incremental echelon with combination tracking
    pivots = []  # (col, row_vec, combo)
    power = AlgebraicNumber.rational(ctx, 1)
    combo_len = dim + 1
    for k in range(dim + 1):
        vec = as_vec(power)
        combo = [Fraction(0)] * combo_len
        combo[k] = Fraction(1)
        for col, row, rc in pivots:
            f = vec[col]
            if f:
                vec = [a - f * b for a, b in zip(vec, row)]
                combo = [a - f * b for a, b in zip(combo, rc)]
        nz = next((i for i, c in enumerate(vec) if c), None)
        if nz is None:
            lead = combo[k]
            mono = tuple(c / lead for c in combo[:k + 1])
            return mono
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
    return {
        "L": x.ctx.L,
        "base": _pairs(x.num, x.den),
        "ext": None if x.ext_num is None else _pairs(x.ext_num, x.ext_den),
        "radicand": None if x.radicand is None else as_json_dict(x.radicand),
        "approx": x.approx(),
    }

