"""Exact field arithmetic: oracle comparisons against sympy and property
tests of the ring axioms."""

import functools
import sys
from fractions import Fraction
from math import cos, gcd, lcm, pi

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from tilinglinks import fields
from tilinglinks._polys import cyclotomic, dickson_to_power
from tilinglinks.errors import DomainError, VerificationError
from tilinglinks.fields import (AlgebraicNumber, adjoin_sqrt, as_json_dict,
                                embed_cos, is_algebraic_integer, is_rational,
                                make_context, minimal_polynomial)


def sympy_minpoly_coeffs(expr):
    x = sp.Symbol("x")
    poly = sp.Poly(sp.minimal_polynomial(expr, x), x)
    coeffs = [Fraction(str(c)) for c in reversed(poly.all_coeffs())]
    lead = coeffs[-1]
    return tuple(c / lead for c in coeffs)


# -- context construction ----------------------------------------------------

def test_degree_one_contexts():
    assert make_context(1).degree == 1
    assert make_context(2).degree == 1
    assert embed_cos(make_context(1), 1).approx() == -2.0
    assert embed_cos(make_context(2), 2).is_zero


def test_golden_ratio_modulus():
    ctx = make_context(5)
    assert ctx.modulus == (-1, -1, 1)  # x^2 - x - 1


def test_degree_twelve_totient():
    assert make_context(12).degree == 4  # phi(24)/2


@pytest.mark.parametrize("L", [3, 4, 5, 6, 7, 9, 12, 15, 20, 30])
def test_modulus_matches_sympy_minimal_polynomial(L):
    ctx = make_context(L)
    expected = sympy_minpoly_coeffs(2 * sp.cos(sp.pi / L))
    assert tuple(Fraction(c) for c in ctx.modulus) == expected


@pytest.mark.parametrize("n", list(range(1, 200))
                         + [2310, 2730, 3010, 4042, 4900])
def test_cyclotomic_matches_sympy(n):
    # every n below 200 (prime powers, and radicals with up to three primes
    # and either sign of mu(n)), radicals with four and five primes
    # (2310, 2730), and non-squarefree n of large degree
    x = sp.Symbol("x")
    want = sp.Poly(sp.cyclotomic_poly(n, x), x).all_coeffs()
    assert cyclotomic(n) == tuple(int(c) for c in reversed(want))


def test_generator_embedding_is_root():
    for L in (5, 7, 12):
        ctx = make_context(L)
        g = embed_cos(ctx, ctx.L).approx()
        assert abs(g - 2 * cos(pi / L)) < 1e-12
        val = sum(c * g**i for i, c in enumerate(ctx.modulus))
        assert abs(val) < 1e-9


@pytest.mark.parametrize("L,prec", [(1, 64), (2, 160), (5, 64), (12, 320),
                                    (91, 1280), (2068, 160), (2068, 640)])
def test_principal_value_is_first_conjugate(L, prec):
    # the principal value that `approx`/`sign` use is the first of the
    # conjugates 2cos(k pi/L) the square detection evaluates, and each of
    # them is within one unit of mpmath's
    import mpmath
    ks = make_context(L).conjugate_indices()
    assert ks[0] == 1
    assert fields._two_cos_pi_over(L, prec) == fields._two_cos_pi_over(L, prec, 1)
    with mpmath.workprec(prec + 20):
        for k in ks:
            scaled = mpmath.ldexp(2 * mpmath.cos(mpmath.pi * k / L), prec)
            assert abs(fields._two_cos_pi_over(L, prec, k) - scaled) <= 1, k


def _power_table_q(L, P):
    """The fixed-point scale `_power_table(L, P)` asks `_two_cos_pi_over`
    for: P plus its guard bits (degree phi(2L)/2 for L >= 3)."""
    d = fields._totient(2 * L) // 2
    return P + d + d.bit_length() + 8


def _assert_two_cos_within_one(Lks, P):
    """|G - 2cos(k pi/L) 2^q| <= 1 at the table's q for each (L, k),
    against mpmath at q + 200 bits; rounding to nearest leaves G within
    1/2 + 2^-24."""
    import mpmath
    for L, k in Lks:
        q = _power_table_q(L, P)
        with mpmath.workprec(q + 200):
            err = abs(fields._two_cos_pi_over(L, q, k)
                      - mpmath.ldexp(2 * mpmath.cos(mpmath.pi * k / L), q))
            assert err <= 0.5 + mpmath.mpf(2) ** -24, (L, k, P)


@pytest.mark.parametrize("P", [128, 256, 1024])
def test_two_cos_pi_over_matches_mpmath(P):
    Ls = sorted({lcm(m, n) for m in range(3, 51) for n in range(3, 51)})
    # and the conjugates k > 1 of every field the square detection reaches
    small = [make_context(L) for L in range(3, 61)]
    conjugates = [(c.L, k) for c in small
                  if c.degree <= fields._SQUARE_DETECT_MAX_DEGREE
                  for k in c.conjugate_indices()[1:]]
    assert len(conjugates) == 78
    _assert_two_cos_within_one([(L, 1) for L in Ls] + conjugates, P)


def test_two_cos_pi_over_matches_mpmath_at_the_cap():
    _assert_two_cos_within_one(((3, 1), (12, 1), (2068, 1)), fields._MAX_PREC)


@pytest.mark.parametrize("L", [60, 91, 1073])
def test_high_degree_modulus_matches_root_product(L):
    """The folded cyclotomic modulus against an independent oracle: the
    product of (x - 2cos(k pi/L)) over k coprime to 2L, expanded in mpmath
    with enough bits to round every coefficient unambiguously (degree 504
    at L = 1073, coefficients below 3^504 in size)."""
    import mpmath
    from math import gcd
    ctx = make_context(L)
    with mpmath.workprec(2 * ctx.degree + 200):
        poly = [mpmath.mpf(1)]
        for k in range(1, L):
            if gcd(k, 2 * L) == 1:
                root = 2 * mpmath.cos(mpmath.pi * k / L)
                poly = [(poly[i - 1] if i else 0)
                        - (root * poly[i] if i < len(poly) else 0)
                        for i in range(len(poly) + 1)]
        rounded = tuple(int(mpmath.nint(c)) for c in poly)
        assert all(abs(c - r) < mpmath.mpf("0.01")
                   for c, r in zip(poly, rounded))
    assert ctx.degree == len(rounded) - 1
    assert ctx.modulus == rounded


def test_bad_context_rejected():
    with pytest.raises(DomainError):
        make_context(0)


# -- embed_cos ---------------------------------------------------------------

def test_embed_cos_values():
    ctx = make_context(12)
    assert abs(embed_cos(ctx, 6).approx() - 3**0.5) < 1e-12
    assert abs(embed_cos(ctx, 4).approx() - 2**0.5) < 1e-12
    assert embed_cos(ctx, 2).is_zero
    assert embed_cos(ctx, 1) == AlgebraicNumber.rational(ctx, -2)


def test_embed_cos_requires_divisor():
    with pytest.raises(DomainError):
        embed_cos(make_context(12), 5)


def _embed_cos_recurrence(ctx, k):
    """The exact element 2cos(pi/k) for k | L, via the Chebyshev-type
    recurrence t0 = 2, t1 = g, t_{j+1} = g*t_j - t_{j-1} at j = L/k."""
    if k < 1 or ctx.L % k != 0:
        raise DomainError(f"k={k} does not divide L={ctx.L}")
    j = ctx.L // k
    two = AlgebraicNumber.rational(ctx, 2)
    if j == 0:
        return two
    g = embed_cos(ctx, ctx.L)
    t_prev, t_cur = two, g
    for _ in range(j - 1):
        t_prev, t_cur = t_cur, g * t_cur - t_prev
    return t_cur


def test_embed_cos_matches_recurrence():
    # every divisor of every L <= 200, and the Gram entries of three types
    # of degree 920-966
    pairs = [(L, k) for L in range(1, 201)
             for k in range(1, L + 1) if L % k == 0]
    pairs += [(lcm(m, n), k) for m, n in ((43, 46), (44, 47), (47, 50))
              for k in (m, n)]
    for L, k in pairs:
        ctx = make_context(L)
        assert embed_cos(ctx, k) == _embed_cos_recurrence(ctx, k), (L, k)


def _sympy_dickson_series(s):
    """s_0 + sum s_t D_t(x) with D_t(x) = 2 T_t(x/2), on the power basis."""
    x = sp.Symbol("x")
    expr = s[0] + sum(c * 2 * sp.chebyshevt(t, x / 2)
                      for t, c in enumerate(s) if t and c)
    want = [int(c) for c in reversed(sp.Poly(expr, x).all_coeffs())]
    return want + [0] * (len(s) - len(want))


def test_dickson_to_power_single_terms_match_sympy():
    for t in range(41):
        s = [0] * t + [1]
        assert dickson_to_power(s) == _sympy_dickson_series(s), t


@pytest.mark.parametrize("seed", range(4))
def test_dickson_to_power_dense_series_match_sympy(seed):
    import random
    rng = random.Random(seed)
    s = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(2, 30))]
    assert dickson_to_power(s) == _sympy_dickson_series(s)


# The Clenshaw recurrence that `dickson_to_power` ran before it summed the
# series term by term, kept as its reference.
def _clenshaw_dickson(s):
    """s_0 + sum s_t D_t(x) on the power basis by Clenshaw's recurrence
    (*Math. Comp.* 9, 1955): y_t = s_t + x y_(t+1) - y_(t+2), then
    s_0 + x y_1 - 2 y_2."""
    y1, y2 = [], []  # y_(t+1), y_(t+2)
    for c in reversed(s[1:]):
        y = [c] + y1
        for i, b in enumerate(y2):
            y[i] -= b
        y1, y2 = y, y1
    out = [s[0]] + y1
    for i, b in enumerate(y2):
        out[i] -= 2 * b
    return out


# the types of the benchmark's certify and export pools, and (49,47)
_POOL_TYPES = [(14, 33), (14, 44), (22, 42), (24, 34), (11, 31), (20, 31),
               (30, 31), (22, 43), (22, 49), (35, 38), (11, 36), (16, 25),
               (32, 44), (38, 39), (46, 50), (43, 46), (44, 47), (47, 50),
               (49, 47)]


@pytest.mark.parametrize("Ls", [range(1, 301),
                                sorted({lcm(m, n) for m, n in _POOL_TYPES}),
                                [1155, 2310]])
def test_dickson_fold_matches_clenshaw(Ls):
    # the folded cyclotomic polynomial of 2L at every L <= 300, with the
    # single term D_L, at the pool types' L (sparse series of even L), and
    # at L = 1155, 2310, whose series are dense
    for L in Ls:
        c = list(cyclotomic(2 * L))
        s = c[(len(c) - 1) // 2:]
        assert dickson_to_power(s) == _clenshaw_dickson(s), L
        if L <= 300:
            s = [0] * L + [1]
            assert dickson_to_power(s) == _clenshaw_dickson(s), L


def test_golden_identity():
    ctx = make_context(5)
    g = embed_cos(ctx, 5)
    assert g * g == g + 1


def test_elements_and_contexts_are_immutable_values():
    import copy
    import pickle
    ctx = make_context(12)
    root5 = adjoin_sqrt(ctx, AlgebraicNumber.rational(ctx, 5))
    x = embed_cos(ctx, 12) * root5
    y = AlgebraicNumber(ctx, x.num, x.den, x.radicand)
    assert x == y and hash(x) == hash(y) and x != root5
    assert x != (ctx, x.num, x.den, x.radicand)
    with pytest.raises(DomainError):
        embed_cos(ctx, 12) + root5
    for z in (x, ctx):
        assert pickle.loads(pickle.dumps(z)) == z
        assert copy.deepcopy(z) == z and copy.copy(z) == z
    for mutate in (lambda: setattr(x, "den", 2), lambda: delattr(x, "num"),
                   lambda: setattr(x, "other", 1), lambda: setattr(ctx, "L", 6)):
        with pytest.raises(AttributeError):
            mutate()
    with pytest.raises(TypeError):
        x + (1, 2)


# -- ring operations ---------------------------------------------------------

@st.composite
def field_elements(draw, L=None, nonzero=False):
    if L is None:
        L = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 12]))
    ctx = make_context(L)
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=ctx.degree,
                           max_size=ctx.degree))
    den = draw(st.integers(1, 6))
    x = AlgebraicNumber._make(ctx, tuple(coeffs), den)
    if nonzero and x.is_zero:
        x = x + 1
    return x


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_ring_axioms(data):
    L = data.draw(st.sampled_from([2, 3, 5, 6, 12]))
    x = data.draw(field_elements(L=L))
    y = data.draw(field_elements(L=L))
    z = data.draw(field_elements(L=L))
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_multiply_then_divide(data):
    L = data.draw(st.sampled_from([3, 5, 12]))
    x = data.draw(field_elements(L=L, nonzero=True))
    y = data.draw(field_elements(L=L))
    assert (x * y) / x == y


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_embedding_is_ring_homomorphism(data):
    L = data.draw(st.sampled_from([3, 5, 12]))
    x = data.draw(field_elements(L=L))
    y = data.draw(field_elements(L=L))
    ax, ay, axy, axpy = x.approx(), y.approx(), (x * y).approx(), (x + y).approx()
    scale = max(1.0, abs(axy), abs(axpy))
    assert abs(ax * ay - axy) < 1e-9 * scale
    assert abs(ax + ay - axpy) < 1e-9 * scale


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_inverse_times_element_is_one_high_degree(data):
    """x * x.inverse() == 1 for base elements and for pure elements
    u sqrt(2 + g); 2 + g = (2cos(pi/2L))^2 is not a square in K0."""
    L = data.draw(st.sampled_from([7, 15, 91]))
    ctx = make_context(L)
    one = AlgebraicNumber.rational(ctx, 1)
    vec = st.lists(st.integers(-50, 50), min_size=ctx.degree,
                   max_size=ctx.degree)
    a, b = data.draw(vec), data.draw(vec)
    den, ext_den = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 30))
    x = AlgebraicNumber._make(ctx, a, den)
    if not x.is_zero:
        assert x * x.inverse() == one
    D = embed_cos(ctx, ctx.L) + 2
    y = AlgebraicNumber._make(ctx, b, ext_den, D)
    if not y.is_zero:
        assert y * y.inverse() == one


def test_inverse_of_degree_920_discriminant():
    """D = cos^2(pi/47) + cos^2(pi/44) - 1 in Q(2cos(pi/2068)), degree 920:
    the Gram entries of the (47,44) presentation carry D^-1."""
    ctx = make_context(2068)
    assert ctx.degree == 920
    cm, cn = embed_cos(ctx, 47) / 2, embed_cos(ctx, 44) / 2
    D = cm * cm + cn * cn - 1
    assert D * D.inverse() == AlgebraicNumber.rational(ctx, 1)


# The extended Euclid that `_base_inverse` ran on (modulus, element) before
# it took the modulus out by one pseudo-division, kept as its reference.
def _euclid_inverse(num, den, ctx):
    """Inverse of num/den by extended Euclid on (modulus, num), primitive
    integer remainders, the cofactor of num an integer vector over one
    denominator."""
    from tilinglinks._polys import mul, trim
    from tilinglinks.fields import _normalize, _pseudo_divmod
    if ctx.degree == 1:
        return _normalize((den,), num[0])
    r_prev, r_cur = list(ctx.modulus), trim(num)
    g = gcd(*r_cur)
    r_cur = [c // g for c in r_cur]
    t_prev, t_cur = ((), 1), ((1,), g)
    while len(r_cur) > 1:
        scale, q, rem = _pseudo_divmod(r_prev, r_cur)
        g = gcd(*rem)
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


def _discriminant(m, n):
    """D = cos^2(pi/m) + cos^2(pi/n) - 1 in Q(2cos(pi/lcm(m, n)))."""
    ctx = make_context(lcm(m, n))
    cm, cn = embed_cos(ctx, m) / 2, embed_cos(ctx, n) / 2
    return cm * cm + cn * cn - 1


@pytest.mark.parametrize("m,n", _POOL_TYPES[:-1])
def test_inverse_of_discriminant_matches_euclid(m, n):
    # D, sparse of degree about 2 max(L/m, L/n), and D^2
    D = _discriminant(m, n)
    for x in (D, D * D):
        assert fields._base_inverse(x.num, x.den, x.ctx) == \
            _euclid_inverse(x.num, x.den, x.ctx)


def test_inverse_matches_euclid_on_rationals_and_pure_elements(monkeypatch):
    ctx = make_context(91)
    D = _discriminant(7, 13)
    g = embed_cos(ctx, ctx.L)
    xs = [AlgebraicNumber.rational(make_context(L), q)
          for L in (1, 2, 5, 91) for q in (1, -1, 7, Fraction(-3, 8))]
    xs += [embed_cos(make_context(1), 1), g, g - 2, 3 * g + 1]
    # pure elements: the inverse of u sqrt(D) inverts u D
    xs += [AlgebraicNumber._make(ctx, u.num, u.den, D)
           for u in (AlgebraicNumber.rational(ctx, 1), g, D, g * g - 5)]
    want = [x.inverse() for x in xs]
    monkeypatch.setattr(fields, "_base_inverse", _euclid_inverse)
    assert [x.inverse() for x in xs] == want


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_inverse_matches_euclid_on_random_elements(data):
    L = data.draw(st.sampled_from([7, 15, 91]))
    ctx = make_context(L)
    size = data.draw(st.integers(1, ctx.degree))
    num = data.draw(st.lists(st.integers(-50, 50), min_size=size,
                             max_size=size))
    num = tuple(num) + (0,) * (ctx.degree - size)
    den = data.draw(st.integers(1, 30))
    if any(num):
        assert fields._base_inverse(num, den, ctx) == \
            _euclid_inverse(num, den, ctx)


@pytest.mark.parametrize("a,b,want", [
    ([5], [1, 2, 3], (1, [], [5])),
    ([], [1, 2, 3], (1, [], [])),
    ([4, 0], [1, 2, 3], (1, [], [4])),
    ([1, 2], [1, 2, 3], (1, [], [1, 2])),
    ([1, 0, 0, 2], [1, 3], (27, [2, -6, 18], [25]))])
def test_pseudo_divmod(a, b, want):
    # s a == q b + r; a dividend of lower degree than b is its own
    # remainder, with the integer scale 1
    from tilinglinks._polys import mul
    s, q, r = fields._pseudo_divmod(a, b)
    assert (s, q, r) == want and type(s) is int
    qb = mul(q, b) + [0] * len(a)
    assert [s * c for c in a] == [
        x + (r[i] if i < len(r) else 0) for i, x in enumerate(qb[:len(a)])]


# -- the stored form: `num` up to its highest nonzero coefficient --------------

def _full(x):
    """x's coefficients as Fractions, padded to the field's degree."""
    d = x.ctx.degree
    assert len(x.num) <= d
    return [Fraction(c, x.den) for c in x.num] + [Fraction(0)] * (d - len(x.num))


def _ref_mul(u, v, ctx):
    """Product of two full-length Fraction vectors: the schoolbook
    convolution, then the remainder of the monic modulus term by term."""
    d = ctx.degree
    out = [Fraction(0)] * (2 * d - 1)
    for i in range(d):
        for j in range(d):
            out[i + j] += u[i] * v[j]
    for i in range(2 * d - 2, d - 1, -1):
        c = out[i]
        for j in range(d + 1):
            out[i - d + j] -= c * ctx.modulus[j]
    return out[:d]


def _ref_inverse(u, ctx):
    """The v with u v == 1, by Gauss-Jordan on the matrix of
    multiplication by u (column j is u g^j reduced)."""
    d = ctx.degree
    basis = [[Fraction(int(i == j)) for i in range(d)] for j in range(d)]
    cols = [_ref_mul(u, e, ctx) for e in basis]
    rows = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))]
            for i in range(d)]
    for c in range(d):
        p = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [row[d] for row in rows]


@st.composite
def stored_elements(draw, ctx):
    """An element of ctx of any length up to its degree, often with
    interior zeros, built from a zero-padded vector."""
    size = draw(st.integers(0, ctx.degree))
    coeffs = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, 7, 40]),
                           min_size=size, max_size=size))
    den = draw(st.integers(1, 6))
    return AlgebraicNumber._make(
        ctx, coeffs + [0] * (ctx.degree - size), den)


def _assert_stored(x):
    assert x.num == () or x.num[-1] != 0
    assert len(x.num) <= x.ctx.degree and x.den > 0
    if x.is_zero:
        assert x.num == () and x.den == 1
    assert AlgebraicNumber._make(
        x.ctx, x.num + (0,) * (x.ctx.degree - len(x.num)), x.den) == x


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_stored_form_matches_full_length_reference(data):
    # odd and even L; at even L the modulus is a polynomial in g^2
    ctx = make_context(data.draw(st.sampled_from([5, 12, 21, 44, 105])))
    x = data.draw(stored_elements(ctx))
    y = data.draw(stored_elements(ctx))
    u, v = _full(x), _full(y)
    results = [(x + y, [a + b for a, b in zip(u, v)]),
               (x - y, [a - b for a, b in zip(u, v)]),
               (y - x, [b - a for a, b in zip(u, v)]),
               (x * y, _ref_mul(u, v, ctx)),
               (x - x, [Fraction(0)] * ctx.degree)]
    if not x.is_zero:
        results.append((x.inverse(), _ref_inverse(u, ctx)))
    for z, want in results:
        _assert_stored(z)
        assert _full(z) == want
    for z in (x, y):
        _assert_stored(z)


@pytest.mark.parametrize("L", [5, 12, 21, 44, 105])
def test_writers_pad_to_the_degree(L):
    ctx = make_context(L)
    d, g = ctx.degree, embed_cos(ctx, ctx.L)
    zero = AlgebraicNumber.rational(ctx, 0)
    assert zero.num == () and zero.den == 1 and zero == g - g
    assert AlgebraicNumber.rational(ctx, Fraction(-3, 4)).num == (-3,)
    pure = g * AlgebraicNumber(ctx, (1,), 1, g + 3)
    for x in (zero, AlgebraicNumber.rational(ctx, 2), g, g * g - 1, pure):
        assert len(x.base_coeffs) == d
        assert x.ext_coeffs is None or len(x.ext_coeffs) == d
        j = as_json_dict(x)
        assert len(j["base"]) == d
        assert j["ext"] is None or len(j["ext"]) == d
    assert pure.ext_coeffs[:2] == (0, 1) and not any(pure.base_coeffs)


# -- the sparse kernels on operands with interior zeros ------------------------

def _naive_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _naive_divmod(a, b):
    """(q, r) with a == q b + r over Q and deg r < deg b."""
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            a[k + j] -= c * y
    return q, a[:len(b) - 1]


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_sparse_kernels_match_naive_on_interior_zeros(data):
    from tilinglinks._polys import mul, trim
    D = _discriminant(47, 44)
    assert D.ctx.degree == 920 and D.num.count(0) > 40
    even = st.lists(st.integers(-9, 9), min_size=1, max_size=12).map(
        lambda c: [x for v in c for x in (v, 0)][:-1])  # a polynomial in x^2
    b = data.draw(st.sampled_from([list(D.num), None]))
    if b is None:
        b = data.draw(even.filter(lambda c: c[-1] != 0))
    a = data.draw(st.sampled_from([list(D.ctx.modulus), None]))
    if a is None:
        a = data.draw(st.one_of(even, st.lists(st.integers(-9, 9),
                                               min_size=1, max_size=30)))
    assert mul(a, b) == _naive_mul(a, b) and mul(b, a) == _naive_mul(b, a)
    s, q, r = fields._pseudo_divmod(a, b)
    if len(a) < len(b):
        assert (s, q, r) == (1, [], trim(a))
        return
    assert s == b[-1] ** (len(a) - len(b) + 1)
    qb = mul(q, b)
    rhs = [x + (r[i] if i < len(r) else 0) for i, x in enumerate(qb)]
    assert [s * c for c in a] == rhs[:len(a)] and not any(rhs[len(a):])
    nq, nr = _naive_divmod(a, b)
    assert q == [s * c for c in nq] and r == trim([s * c for c in nr])


def test_add_zero_identity():
    ctx = make_context(7)
    g = embed_cos(ctx, ctx.L)
    assert g + 0 == g


def test_inverse_of_sqrt():
    ctx = make_context(6)
    s = adjoin_sqrt(ctx, AlgebraicNumber.rational(ctx, Fraction(1, 2)))
    assert s.inverse() * s == AlgebraicNumber.rational(ctx, 1)


def test_zero_inverse_raises():
    ctx = make_context(5)
    with pytest.raises(ArithmeticError):
        AlgebraicNumber.rational(ctx, 0).inverse()


def test_context_mixing_rejected():
    a = embed_cos(make_context(5), 5)
    b = embed_cos(make_context(7), 7)
    with pytest.raises(DomainError):
        a + b


def test_distinct_radicands_rejected():
    ctx = make_context(12)
    s2 = adjoin_sqrt(ctx, AlgebraicNumber.rational(ctx, Fraction(1, 2)))
    s3 = adjoin_sqrt(ctx, AlgebraicNumber.rational(ctx, Fraction(1, 3)))
    with pytest.raises(DomainError):
        s2 + s3
    with pytest.raises(DomainError):
        s2 * s3


def test_mixed_sums_rejected():
    """K0 and K0 sqrt(D) do not mix in a sum, in either order and through
    subtraction; a zero on either side is the identity of both."""
    ctx = make_context(12)
    g = embed_cos(ctx, ctx.L)
    zero = AlgebraicNumber.rational(ctx, 0)
    s = adjoin_sqrt(ctx, AlgebraicNumber.rational(ctx, Fraction(1, 2)))
    for mix in (lambda: g + s, lambda: s + g, lambda: s - 1, lambda: 1 - s,
                lambda: g * s + g, lambda: s * s + s):
        with pytest.raises(DomainError):
            mix()
    assert s + zero == zero + s == s - 0 == s
    assert (s * s + g).radicand is None and (g * s - s * g).is_zero


# -- adjoin_sqrt -------------------------------------------------------------

def test_sqrt_rational_perfect_square():
    ctx = make_context(12)
    q = AlgebraicNumber.rational(ctx, Fraction(1, 4))
    r = adjoin_sqrt(ctx, q)
    assert r.radicand is None
    assert r == AlgebraicNumber.rational(ctx, Fraction(1, 2))


def test_sqrt_one():
    ctx = make_context(5)
    one = AlgebraicNumber.rational(ctx, 1)
    assert adjoin_sqrt(ctx, one) == one


def test_sqrt_genuine_extension():
    ctx = make_context(6)
    r = adjoin_sqrt(ctx, AlgebraicNumber.rational(ctx, Fraction(1, 2)))
    assert r.radicand is not None
    assert abs(r.approx() - 0.7071067811865476) < 1e-12


def test_sqrt_detects_field_square():
    ctx = make_context(12)
    g = embed_cos(ctx, ctx.L)
    el = (g + 1) * (g + 1)
    r = adjoin_sqrt(ctx, el)
    assert r.radicand is None and r == g + 1


@pytest.mark.parametrize("L,coeffs", [
    (5, (Fraction(-3, 2), 1)),
    (7, (Fraction(1, 3), Fraction(-5, 4), 1)),
    (9, (2, 0, Fraction(-7, 5))),
    (15, (Fraction(5, 6), -1, 0, Fraction(1, 2))),
    (20, (-1, Fraction(2, 3), Fraction(1, 7), 0, -1)),
    (21, (Fraction(9, 2), 1, Fraction(-1, 3), 0, 0, Fraction(1, 8))),
    (24, (0, -3, 0, Fraction(1, 11), 0, 0, Fraction(-2, 9))),
    (30, (7, Fraction(1, 2), -2, 0, 0, 1, 0, Fraction(-1, 5))),
])
def test_sqrt_detects_field_square_of_mixed_element(L, coeffs):
    ctx = make_context(L)
    g = embed_cos(ctx, ctx.L)
    x, power = (AlgebraicNumber.rational(ctx, v) for v in (0, 1))
    for c in coeffs:
        x = x + c * power
        power = power * g
    assert is_rational(x * x) is None
    r = adjoin_sqrt(ctx, x * x)
    assert r.radicand is None and r.sign() > 0
    assert r == (x if x.sign() > 0 else -x)


@pytest.mark.parametrize("m,n,square", [(10, 6, True), (5, 4, False)])
def test_sqrt_of_discriminant(m, n, square):
    # D = cos^2(pi/m) + cos^2(pi/n) - 1 in Q(2cos(pi/lcm)), degree 8 for
    # both: (10,6)'s is a square there, (5,4)'s has a negative conjugate
    ctx = make_context(lcm(m, n))
    cm, cn = embed_cos(ctx, m) / 2, embed_cos(ctx, n) / 2
    D = cm * cm + cn * cn - 1
    assert ctx.degree == 8 and is_rational(D) is None
    r = adjoin_sqrt(ctx, D)
    assert (r.radicand is None) == square
    assert r * r == D and r.sign() > 0
    if square:
        g = embed_cos(ctx, ctx.L)
        g2 = g * g
        g4 = g2 * g2
        assert r == (-2 + 9 * g2 - 6 * g4 + g4 * g2) / 2


@pytest.mark.parametrize("L", [20, 24, 30])
def test_sqrt_of_totally_positive_non_square(L):
    # 3 + g > 1 at every conjugate, so all 128 sign patterns of the degree-8
    # square detection are tried and none verifies
    ctx = make_context(L)
    D = 3 + embed_cos(ctx, ctx.L)
    assert ctx.degree == 8
    r = adjoin_sqrt(ctx, D)
    assert r.radicand == D
    assert r * r == D and r.sign() > 0


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_sqrt_squares_to_radicand(data):
    L = data.draw(st.sampled_from([3, 5, 6]))
    ctx = make_context(L)
    x = data.draw(field_elements(L=L, nonzero=True))
    D = x * x + 1  # positive in every embedding
    if D.sign() <= 0:
        return
    r = adjoin_sqrt(ctx, D)
    assert r * r == D
    assert r.sign() > 0


def test_sqrt_rejects_nonpositive():
    ctx = make_context(5)
    with pytest.raises(DomainError):
        adjoin_sqrt(ctx, AlgebraicNumber.rational(ctx, -1))
    with pytest.raises(DomainError):
        adjoin_sqrt(ctx, AlgebraicNumber.rational(ctx, 0))


# -- minimal polynomials and integrality --------------------------------------

def test_minpoly_examples():
    ctx5 = make_context(5)
    assert minimal_polynomial(embed_cos(ctx5, 5)) == (
        Fraction(-1), Fraction(-1), Fraction(1))
    assert minimal_polynomial(AlgebraicNumber.rational(ctx5, 2)) == (
        Fraction(-2), Fraction(1))
    ctx12 = make_context(12)
    assert minimal_polynomial(embed_cos(ctx12, 4)) == (
        Fraction(-2), Fraction(0), Fraction(1))


@pytest.mark.parametrize("expr,L,builder", [
    (2 * sp.cos(sp.pi / 7), 7, lambda ctx: embed_cos(ctx, 7)),
    (sp.sqrt(3), 12, lambda ctx: embed_cos(ctx, 6)),
    (-sp.sqrt(6), 6, lambda ctx: -(embed_cos(ctx, 6) * 2) * adjoin_sqrt(
        ctx, AlgebraicNumber.rational(ctx, Fraction(1, 2)))),
    (2 * sp.cos(sp.pi / 12) + 1, 12,
     lambda ctx: embed_cos(ctx, ctx.L) + 1),
])
def test_minpoly_matches_sympy(expr, L, builder):
    ctx = make_context(L)
    assert minimal_polynomial(builder(ctx)) == sympy_minpoly_coeffs(expr)


@pytest.mark.parametrize("m", [6, 5])
def test_minpoly_of_pure_gram_entries_matches_sympy(m):
    """The face-6 entries -2cos(pi/m)/sqrt(D) of (m,m), D = 2cos^2(pi/m) - 1
    not a square in K0, are pure: their minimal polynomial is q(t^2), q
    that of their square in K0 (-sqrt(6) at (6,6))."""
    from tilinglinks.coxeter import build_hyperbolic_presentation
    p = build_hyperbolic_presentation(m, m)
    c = sp.cos(sp.pi / m)
    want = sympy_minpoly_coeffs(-2 * c / sp.sqrt(2 * c**2 - 1))
    for x in (p.gram[3][5], p.gram[4][5]):
        assert x.radicand is not None
        assert minimal_polynomial(x) == want


def test_minpoly_annihilates_element():
    ctx = make_context(12)
    x = embed_cos(ctx, 6) + embed_cos(ctx, ctx.L) / 3
    mp = minimal_polynomial(x)
    acc, power = (AlgebraicNumber.rational(ctx, v) for v in (0, 1))
    for c in mp:
        acc = acc + power * c
        power = power * x
    assert acc.is_zero


def test_algebraic_integer_examples():
    ctx5 = make_context(5)
    assert is_algebraic_integer(embed_cos(ctx5, 5))
    assert not is_algebraic_integer(
        AlgebraicNumber.rational(ctx5, Fraction(1, 2)))
    ctx12 = make_context(12)
    assert is_algebraic_integer(-2 * embed_cos(ctx12, 6))
    assert minimal_polynomial(-2 * embed_cos(ctx12, 6)) == (
        Fraction(-12), Fraction(0), Fraction(1))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_integral_elements_closed_under_ring_ops(data):
    L = data.draw(st.sampled_from([3, 5, 6]))
    ctx = make_context(L)
    # integer polynomials in the generator are algebraic integers
    def integral_elt():
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=ctx.degree,
                                    max_size=ctx.degree))
        return AlgebraicNumber._make(ctx, tuple(coeffs), 1)
    x, y = integral_elt(), integral_elt()
    assert is_algebraic_integer(x + y)
    assert is_algebraic_integer(x * y)


# -- rationality ---------------------------------------------------------------

def test_sign_and_approx_survive_catastrophic_cancellation():
    """Huge coefficients with a tiny value: q*g - p for a denominator-1e40
    convergent p/q of the generator.  The evaluation error bound must force
    precision escalation instead of trusting rounding noise."""
    import mpmath
    ctx = make_context(12)
    g = embed_cos(ctx, ctx.L)
    with mpmath.workprec(400):
        gval = 2 * mpmath.cos(mpmath.pi / 12)
        conv = Fraction(int(mpmath.floor(gval * 10**50 + mpmath.mpf("0.5"))),
                        10**50).limit_denominator(10**40)
        true_gap = gval * conv.denominator - conv.numerator
        # coefficients ~1e40 against a value ~1e-12: far beyond what the
        # default working precision could resolve without a bound check
        assert abs(true_gap) < 1e-9
        expected_sign = 1 if true_gap > 0 else -1
        expected_float = float(true_gap)
    y = g * conv.denominator - conv.numerator
    assert y.sign() == expected_sign
    assert abs(y.approx() - expected_float) <= 1e-15 * abs(expected_float)


def test_large_field_embedding_certified():
    # inverse coefficients in large cyclotomic fields are enormous; the
    # embedding must still come out right
    from math import cos, pi, sqrt
    from tilinglinks.coxeter import build_hyperbolic_presentation
    p = build_hyperbolic_presentation(23, 24)
    D = cos(pi / 23)**2 + cos(pi / 24)**2 - 1
    assert abs(p.gram[3][5].approx() + 2 * cos(pi / 23) / sqrt(D)) < 1e-12
    assert p.gram[3][5].sign() == -1


# -- fixed-point enclosure ------------------------------------------------------

# The mpmath Horner ladder that defined `approx` before the fixed-point
# enclosure, kept as its reference, with the generator value it evaluated at.
_LADDER_PREC = 160
_MAX_PREC = 1 << 22


@functools.lru_cache(maxsize=None)
def _principal_value(L, prec):
    """The generator 2cos(pi/L) under the principal embedding."""
    import mpmath
    with mpmath.workprec(prec + 20):
        return 2 * mpmath.cos(mpmath.pi * 1 / L)


def _ladder_approx(x):
    """The mpmath Horner ladder: evaluate at 160, 320, ... bits until the
    certified error is below |v| 2^-60, then float(v)."""
    import mpmath
    prec = _LADDER_PREC
    while True:
        v, err = _eval_certified(x, prec)
        with mpmath.workprec(prec):
            if mpmath.isfinite(err) and err < abs(v) * mpmath.mpf(2) ** -60:
                return float(v)
        prec *= 2
        if prec > _MAX_PREC:
            raise VerificationError("embedding did not stabilize")


def _eval_certified(x, prec):
    """(value, error bound) of x under the principal embedding at the given
    working precision."""
    import mpmath
    gval = _principal_value(x.ctx.L, prec)
    with mpmath.workprec(prec):
        eps = mpmath.mpf(2) ** (-prec + 8)
        v, mag = _eval_vec_bounded(x.num, x.den, gval)
        err = (mag + 1) * eps * (len(x.num) + 2)
        if x.radicand is not None:
            # x = u sqrt(radicand), u the value v within err
            rv, rerr = _eval_certified(x.radicand, prec)
            if rv <= 2 * rerr:
                if rv < -2 * rerr:
                    raise VerificationError(
                        "radicand negative in this embedding")
                return v, mpmath.inf  # cannot certify, force escalation
            root = mpmath.sqrt(rv)
            root_err = rerr / (2 * root) + root * eps
            v, err = v * root, abs(v) * root_err + err * (root + root_err)
            err += abs(v) * eps
        return v, err


def _eval_vec_bounded(num, den, gval):
    """Horner value together with a magnitude bound sum(|c_i| |g|^i)/den;
    the rounding error of the evaluation is about the bound times 2^-prec.
    Large coefficient vectors (e.g. inverses in high-degree fields) cancel
    massively, so the bound is essential for trusting a sign or a float.
    Horner starts at the highest nonzero coefficient: the zero padding above
    it would leave both sums at exactly zero."""
    import mpmath
    top = len(num)
    while top and not num[top - 1]:
        top -= 1
    acc = mpmath.mpf(0)
    mag = mpmath.mpf(0)
    ag = abs(gval)
    for c in reversed(num[:top]):
        acc = acc * gval + c
        mag = mag * ag + abs(c)
    return acc / den, mag / den


def _ladder_sign(x):
    """The mpmath Horner ladder's sign: the certified error must be below
    half the value."""
    import mpmath
    prec = 160
    while True:
        v, err = _eval_certified(x, prec)
        with mpmath.workprec(prec):
            if mpmath.isfinite(err) and abs(v) > 2 * err:
                return 1 if v > 0 else -1
        prec *= 2
        assert prec <= 1 << 16


def _power_table_errors(L, P):
    """T_i - g^i 2^P for the table at (L, P), against powers of g taken in
    mpmath at P + 3 degree bits (g^i < 2^degree, so the reference is exact
    to far below one unit)."""
    import mpmath
    d = make_context(L).degree
    table = fields._power_table(L, P)
    assert len(table) == d
    with mpmath.workprec(P + 3 * d):
        g = 2 * mpmath.cos(mpmath.pi / L)
        power = mpmath.ldexp(mpmath.mpf(1), P)
        errors = []
        for t in table:
            errors.append(mpmath.mpf(t) - power)
            power *= g
    return errors


@pytest.mark.parametrize("L", [12, 946, 2068, 2303])
def test_power_table_within_one(L):
    for P in (128, 256):
        assert max(abs(e) for e in _power_table_errors(L, P)) <= 1


def test_enclosure_holds_against_worst_table_errors():
    """An element whose coefficients line up with the table's largest
    errors: its enclosure must still contain the value, so the error term
    may not be smaller than sum |c_i|."""
    import mpmath
    L, P = 2068, 128
    errors = _power_table_errors(L, P)
    num = tuple((1 if e > 0 else -1) * 10**6 if abs(e) > 0.4 else 0
                for e in errors)
    assert sum(1 for c in num if c) > 100
    x = AlgebraicNumber._make(make_context(L), num, 7)
    lo, hi, D = fields._enclosure(x, P)
    with mpmath.workprec(4 * 920 + P):
        true = _eval_certified(x, 4 * 920 + P)[0]
        assert mpmath.mpf(lo) / D <= true <= mpmath.mpf(hi) / D
        # the table errors add up: the value sits in the outer half
        mid, half = mpmath.mpf(lo + hi) / (2 * D), mpmath.mpf(hi - lo) / (2 * D)
        assert abs(true - mid) > half / 4


def _certified_elements(m, n):
    """Gram entries, cosh distances, their radicands, cyclic products and
    det G' of the type (m, n), each distinct object once."""
    from tilinglinks.coxeter import build_presentation, enumerate_cyclic_products
    from tilinglinks.tracefields import build_worksheet
    p = build_presentation(m, n)
    out = {id(e): e for row in p.gram for e in row}
    for e in p.edges:
        for x in (e.cosh_dist, e.cosh_dist and e.cosh_dist.radicand):
            if x is not None:
                out[id(x)] = x
    for _, v in enumerate_cyclic_products(p):
        out[id(v)] = v
    det = build_worksheet(p).det
    out[id(det)] = det
    return [x for x in out.values() if not x.is_zero]


def _hyperbolic_types_up_to(bound):
    from tilinglinks.coxeter import geometry_of
    return [(m, n) for m in range(3, bound + 1) for n in range(3, bound + 1)
            if geometry_of(m, n) == "Hyperbolic"]


@pytest.mark.parametrize("m,n", _hyperbolic_types_up_to(12) + [(44, 47), (46, 50)])
def test_fixed_point_approx_and_sign_match_ladder(m, n):
    for x in _certified_elements(m, n):
        ref = _ladder_approx(x)
        assert x.approx() == ref
        assert x.sign() == _ladder_sign(x)


def _enclosures_from_128(x, k=1):
    """`fields._enclosures` as it was before it picked its first P from the
    coefficient sizes: every P = 128, 256, ... up to the cap."""
    P = 128
    while P <= fields._MAX_PREC:
        enc = fields._enclosure(x, P, k)
        if enc is not None:
            yield enc
        P *= 2
    raise VerificationError("cannot certify the embedding; value too close to zero")


@pytest.mark.parametrize("m,n", [(47, 44), (22, 43)])
def test_enclosure_ladder_start_keeps_every_value(m, n, monkeypatch):
    """Starting the ladder at the coefficient sizes gives the Gram entries
    and cyclic products the same doubles and signs as starting at P = 128,
    and the dense entries (D^-1 in the cosh distances, 635-639-bit
    coefficients at (47,44)) each take one enclosure, at the start."""
    from collections import Counter
    from tilinglinks.coxeter import build_presentation, enumerate_cyclic_products
    p = build_presentation(m, n)
    xs = {id(x): x for row in p.gram for x in row if not x.is_zero}
    xs.update((id(v), v) for _, v in enumerate_cyclic_products(p))
    xs = list(xs.values())  # each distinct object once
    dense = [x for x in xs if 2 * sum(1 for c in x.num if c) >= x.ctx.degree]
    assert len(dense) >= 4
    calls, enclosure = Counter(), fields._enclosure

    def counted(x, P, k=1):
        calls[id(x)] += 1
        return enclosure(x, P, k)

    monkeypatch.setattr(fields, "_enclosure", counted)
    approx = [x.approx() for x in xs]
    assert [calls[id(x)] for x in dense] == [1] * len(dense)
    want = [(f, x.sign()) for f, x in zip(approx, xs)]
    monkeypatch.setattr(fields, "_enclosures", _enclosures_from_128)
    calls.clear()
    assert [(x.approx(), x.sign()) for x in xs] == want
    assert min(calls[id(x)] for x in dense) > 2


def test_ambiguous_rounding_decided_by_the_enclosure():
    """4cos^2(pi/46), the (1,2) cyclic product of (46,50) printed by
    `tracefield 46 50`, lies 0.485 units in the last place above its double:
    close enough to the rounding midpoint that an enclosure widened by the
    ladder's 2^-59 straddled it, but both ends of the plain 128-bit
    enclosure round to the ladder's double."""
    from tilinglinks.coxeter import build_presentation, enumerate_cyclic_products
    x = dict(enumerate_cyclic_products(build_presentation(46, 50)))[(1, 2)]
    assert x == embed_cos(x.ctx, 46) * embed_cos(x.ctx, 46)
    lo, hi, D = fields._enclosure(x, 128)
    assert lo / D == hi / D == 3.9813718920726613
    assert x.approx() == _ladder_approx(x) == 3.9813718920726613


def test_sign_of_tiny_element_escalates():
    """g - p/q for two successive continued-fraction convergents p/q of
    g = 2cos(pi/7) past q = 2^80: the value is below 2^-140, so the 128-bit
    enclosure contains 0 and the sign needs a larger P."""
    import mpmath
    ctx = make_context(7)
    with mpmath.workprec(600):
        gval = 2 * mpmath.cos(mpmath.pi / 7)
        close = Fraction(int(mpmath.floor(mpmath.ldexp(gval, 400))), 1 << 400)
    convs, (p0, q0), (p1, q1), rest = [], (0, 1), (1, 0), close
    while len(convs) < 2:
        a = rest.numerator // rest.denominator
        (p0, q0), (p1, q1) = (p1, q1), (a * p1 + p0, a * q1 + q0)
        if q1 > 1 << 80:
            convs.append(Fraction(p1, q1))
        rest = 1 / (rest - a)
    signs = set()
    for conv in convs:
        y = embed_cos(ctx, ctx.L) - conv
        with mpmath.workprec(600):
            true = gval - mpmath.mpf(conv.numerator) / conv.denominator
            assert 0 < abs(true) < mpmath.mpf(2) ** -140
        lo, hi, _ = fields._enclosure(y, 128)
        assert lo <= 0 <= hi
        assert y.sign() == _ladder_sign(y) == (1 if true > 0 else -1)
        assert y.approx() == _ladder_approx(y) == float(true)
        # below the smallest subnormal: the double is a zero with the
        # value's sign, though both ends of the 128-bit enclosure round to 0
        z = y / 2**1100
        assert repr(z.approx()) == repr(_ladder_approx(z)) \
            == ("0.0" if true > 0 else "-0.0")
        signs.add(y.sign())
    assert signs == {-1, 1}


@pytest.mark.parametrize("value", [Fraction(10**400, 3), Fraction(1, 10**320),
                                   Fraction(-7, 10**400),
                                   Fraction(2**53 + 1, 2**53),
                                   Fraction(2**53 + 3, 2**53),
                                   Fraction(3, 2**1075)])
def test_approx_outside_the_normal_range_matches_ladder(value):
    """Past the largest double and below the smallest normal one the
    rounding of the enclosure (inf, a subnormal, -0.0) is the ladder's
    float(v) (inf, or 53 bits then a subnormal).  A rational exactly halfway
    between two doubles, normal or subnormal, rounds to the even one
    (1.0, 1.0000000000000004, 1e-323), though every enclosure straddles it."""
    x = AlgebraicNumber.rational(make_context(12), value)
    assert x.approx() == _ladder_approx(x)
    assert repr(x.approx()) == repr(_ladder_approx(x))  # the sign of -0.0


def test_approx_and_sign_need_no_mpmath(monkeypatch):
    """`approx` and `sign` are integer arithmetic alone, power tables
    included: with mpmath unimportable and the tables cleared, the certified
    elements of (46,50) give the same values.  They include 4cos^2(pi/46),
    whose double once came from the mpmath ladder."""
    xs = _certified_elements(46, 50)
    want = [(x.approx(), x.sign()) for x in xs]
    fields._power_table.cache_clear()
    monkeypatch.setitem(sys.modules, "mpmath", None)
    assert [(x.approx(), x.sign()) for x in xs] == want


@pytest.mark.parametrize("L", [12, 2068])
def test_undecidable_element_gives_up_at_the_cap(L):
    """c - sqrt(c^2) with c = g + 3, exactly zero, cannot be formed: a K0
    element and a pure one do not add.  g - p/q for a continued-fraction
    convergent p/q of g = 2cos(pi/L) past q = 2^8300 is nonzero but below
    2^-16600, so every enclosure up to the cap P = 2^14 contains 0: `sign`
    and `approx` must raise once P passes the cap."""
    import mpmath
    ctx = make_context(L)
    g = embed_cos(ctx, ctx.L)
    c, unit = g + 3, (1,) + (0,) * (ctx.degree - 1)
    with pytest.raises(DomainError):
        c - AlgebraicNumber._make(ctx, unit, 1, c * c)
    W = 17000
    with mpmath.workprec(W + 64):
        gval = 2 * mpmath.cos(mpmath.pi / L)
        # continued fraction of the W-bit truncation a / b of g
        a, b = int(mpmath.floor(mpmath.ldexp(gval, W))), 1 << W
        (p0, q0), (p1, q1) = (0, 1), (1, 0)
        while q1 <= 1 << 8300:
            t = a // b
            a, b = b, a - t * b
            (p0, q0), (p1, q1) = (p1, q1), (t * p1 + p0, t * q1 + q0)
        true = gval - mpmath.mpf(p1) / q1
        assert 0 < abs(true) < mpmath.mpf(2) ** -16600
    x = g - Fraction(p1, q1)
    assert fields._MAX_PREC == 1 << 14 and not x.is_zero
    with pytest.raises(VerificationError, match="too close to zero"):
        x.sign()
    with pytest.raises(VerificationError, match="too close to zero"):
        x.approx()


def test_negative_radicand_raises():
    ctx = make_context(12)
    unit = (1,) + (0,) * (ctx.degree - 1)
    for rad in (AlgebraicNumber.rational(ctx, -2),
                embed_cos(ctx, ctx.L) - 5):
        x = AlgebraicNumber._make(ctx, unit, 1, rad)
        with pytest.raises(VerificationError, match="radicand negative"):
            x.sign()
        with pytest.raises(VerificationError, match="radicand negative"):
            x.approx()


def test_is_rational_examples():
    ctx5 = make_context(5)
    c5 = embed_cos(ctx5, 5)
    assert is_rational(c5 * c5) is None          # 4cos^2(pi/5) = (3+sqrt5)/2
    assert abs((c5 * c5).approx() - (3 + 5**0.5) / 2) < 1e-12
    ctx6 = make_context(6)
    c6 = embed_cos(ctx6, 6)
    assert is_rational(c6 * c6) == 3             # 4cos^2(pi/6)
    assert is_rational(AlgebraicNumber.rational(ctx5, 0)) == 0


# -- serialization -------------------------------------------------------------

def from_json_dict(d):
    """The AlgebraicNumber that `as_json_dict` wrote as `d`: a pure one
    has a zero `base`, its coefficient as `ext` and its `radicand`."""
    ctx = make_context(d["L"])
    num, den = _frac_list_to_vec(d["base"], ctx.degree)
    if d["ext"] is None:
        return AlgebraicNumber._make(ctx, num, den)
    assert not any(num)
    u, u_den = _frac_list_to_vec(d["ext"], ctx.degree)
    return AlgebraicNumber._make(ctx, u, u_den, from_json_dict(d["radicand"]))


def _frac_list_to_vec(pairs, degree):
    fr = [Fraction(p, q) for p, q in pairs]
    fr += [Fraction(0)] * (degree - len(fr))
    dd = lcm(*(f.denominator for f in fr))
    return tuple(int(f * dd) for f in fr), dd


def test_json_roundtrip_with_extension():
    ctx = make_context(6)
    s = adjoin_sqrt(ctx, AlgebraicNumber.rational(ctx, Fraction(1, 2)))
    x = (embed_cos(ctx, 6) / 3 - 2) * s
    d = as_json_dict(x)
    assert d["L"] == 6 and isinstance(d["approx"], float)
    assert from_json_dict(d) == x


def test_json_shape():
    ctx = make_context(5)
    d = as_json_dict(embed_cos(ctx, 5) / 2)
    assert d["base"] == [[0, 1], [1, 2]]
    assert d["ext"] is None and d["radicand"] is None
