"""Coxeter presentations: Gram matrices against their closed forms,
singular-minor derivation of the ultraparallel entries, rank/signature, and
cyclic products."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from tilinglinks import coxeter, tracefields
from tilinglinks.arithmeticity import check_arithmetic
from tilinglinks.coxeter import (SPHERICAL_TYPES,
                                 build_hyperbolic_presentation,
                                 build_presentation,
                                 build_spherical_presentation,
                                 enumerate_cyclic_products, exact_det,
                                 face_lattice, geometry_of, rank_and_signature,
                                 solve_ultraparallel_by_minor)
from tilinglinks.errors import DomainError, GeometryError, VerificationError
from tilinglinks.fields import (AlgebraicNumber, adjoin_sqrt, embed_cos,
                                is_rational, make_context)
from tilinglinks.tracefields import build_worksheet

HYPERBOLIC_PAIRS_12 = [(m, n) for m in range(3, 13) for n in range(3, 13)
                       if Fraction(1, m) + Fraction(1, n) < Fraction(1, 2)]
UNORDERED_12 = sorted({(max(m, n), min(m, n)) for m, n in HYPERBOLIC_PAIRS_12})


def test_geometry_classification():
    assert geometry_of(3, 3) == "Spherical"
    assert geometry_of(5, 3) == "Spherical"
    assert geometry_of(4, 4) == "Euclidean"
    assert geometry_of(6, 3) == "Euclidean"
    assert geometry_of(6, 4) == "Hyperbolic"
    assert geometry_of(100, 3) == "Hyperbolic"
    with pytest.raises(DomainError):
        geometry_of(2, 8)


def test_spherical_types_are_exactly_the_three():
    sph = [(m, n) for m in range(3, 30) for n in range(3, 30)
           if geometry_of(m, n) == "Spherical"]
    assert {(max(t), min(t)) for t in sph} == {(3, 3), (4, 3), (5, 3)}
    euc = [(m, n) for m in range(3, 30) for n in range(3, 30)
           if geometry_of(m, n) == "Euclidean"]
    assert {(max(t), min(t)) for t in euc} == {(4, 4), (6, 3)}


def expected_gram_64():
    """Reference matrix for (6,4): a12=-sqrt3, a13=-sqrt2, a24=a35=-2,
    a46=-2sqrt3, a56=-2sqrt2, diagonal 2."""
    ctx = make_context(12)
    s3, s2 = embed_cos(ctx, 6), embed_cos(ctx, 4)
    two = AlgebraicNumber.rational(ctx, 2)
    zero = AlgebraicNumber.rational(ctx, 0)
    rows = [[two, -s3, -s2, zero, zero, zero],
            [-s3, two, zero, -two, zero, zero],
            [-s2, zero, two, zero, -two, zero],
            [zero, -two, zero, two, zero, -2 * s3],
            [zero, zero, -two, zero, two, -2 * s2],
            [zero, zero, zero, -2 * s3, -2 * s2, two]]
    return rows


def expected_gram_66():
    """Reference matrix for (6,6): a12=a13=-sqrt3, a46=a56=-sqrt6."""
    ctx = make_context(6)
    s3 = embed_cos(ctx, 6)
    sqrt6 = 2 * s3 * adjoin_sqrt(ctx, AlgebraicNumber.rational(ctx, Fraction(1, 2)))
    two = AlgebraicNumber.rational(ctx, 2)
    zero = AlgebraicNumber.rational(ctx, 0)
    rows = [[two, -s3, -s3, zero, zero, zero],
            [-s3, two, zero, -two, zero, zero],
            [-s3, zero, two, zero, -two, zero],
            [zero, -two, zero, two, zero, -sqrt6],
            [zero, zero, -two, zero, two, -sqrt6],
            [zero, zero, zero, -sqrt6, -sqrt6, two]]
    return rows


def test_gram_64_exact():
    p = build_hyperbolic_presentation(6, 4)
    expected = expected_gram_64()
    for i in range(6):
        for j in range(6):
            assert p.gram[i][j] == expected[i][j], (i, j)


def test_gram_66_exact():
    p = build_hyperbolic_presentation(6, 6)
    expected = expected_gram_66()
    for i in range(6):
        for j in range(6):
            assert p.gram[i][j] == expected[i][j], (i, j)


def test_gram_73_entries():
    p = build_hyperbolic_presentation(7, 3)
    ctx = p.ctx
    assert p.gram[0][1] == -embed_cos(ctx, 7)
    assert p.gram[0][2] == AlgebraicNumber.rational(ctx, -1)  # -2cos(pi/3)
    # C entries satisfy C^2 * D = cos^2 exactly
    cm = embed_cos(ctx, 7) / 2
    cn = embed_cos(ctx, 3) / 2
    D = cm * cm + cn * cn - 1
    C = p.gram[3][5] / -2
    assert C * C * D == cm * cm


def test_gram_diagonal_and_symmetry():
    for (m, n) in [(6, 4), (7, 3), (5, 5), (12, 12)]:
        p = build_hyperbolic_presentation(m, n)
        two = AlgebraicNumber.rational(p.ctx, 2)
        for i in range(6):
            assert p.gram[i][i] == two
            for j in range(6):
                assert p.gram[i][j] == p.gram[j][i]
        # zero exactly where no diagram edge
        edge_pairs = {(e.i - 1, e.j - 1) for e in p.edges}
        for i in range(6):
            for j in range(i + 1, 6):
                empty = (i, j) not in edge_pairs
                assert p.gram[i][j].is_zero == empty


def test_euclidean_rejected():
    for pair in [(4, 4), (6, 3), (3, 6)]:
        with pytest.raises(GeometryError):
            build_hyperbolic_presentation(*pair)
        with pytest.raises(GeometryError):
            build_presentation(*pair)


def test_spherical_presentations():
    p = build_spherical_presentation(5, 3)
    ctx = p.ctx
    assert p.size == 5
    assert p.gram[0][1] == -embed_cos(ctx, 5)
    assert p.gram[0][2] == AlgebraicNumber.rational(ctx, -1)
    assert p.gram[1][3] == AlgebraicNumber.rational(ctx, -2)
    assert p.gram[2][4] == AlgebraicNumber.rational(ctx, -2)
    assert p.gram[3][4].is_zero  # no edge between the two apex-side faces
    p33 = build_spherical_presentation(3, 3)
    assert p33.gram[0][1] == p33.gram[0][2] == AlgebraicNumber.rational(p33.ctx, -1)
    p43 = build_spherical_presentation(4, 3)
    assert p43.gram[0][1] == -embed_cos(p43.ctx, 4)
    with pytest.raises(GeometryError):
        build_spherical_presentation(6, 4)


def test_swap_symmetry_is_face_relabeling():
    perm = [0, 2, 1, 4, 3, 5]  # F2<->F3, F4<->F5
    for (m, n) in [(6, 4), (7, 3), (12, 5)]:
        a = build_hyperbolic_presentation(m, n)
        b = build_hyperbolic_presentation(n, m)
        for i in range(6):
            for j in range(6):
                assert a.gram[i][j] == b.gram[perm[i]][perm[j]]


# -- singular-minor derivation -------------------------------------------------

def test_minor_solution_64():
    c_mn, c_nm = solve_ultraparallel_by_minor(6, 4)
    p = build_hyperbolic_presentation(6, 4)
    assert p.gram[3][5] == -2 * c_mn
    assert p.gram[4][5] == -2 * c_nm
    assert abs(c_mn.approx() - 3**0.5) < 1e-12
    assert abs(c_nm.approx() - 2**0.5) < 1e-12


def test_minor_solution_66():
    c_mn, c_nm = solve_ultraparallel_by_minor(6, 6)
    assert c_mn == c_nm
    assert abs(c_mn.approx() - 6**0.5 / 2) < 1e-12


def test_minor_solution_54():
    c_mn, c_nm = solve_ultraparallel_by_minor(5, 4)
    p = build_hyperbolic_presentation(5, 4)
    assert p.gram[3][5] == -2 * c_mn and p.gram[4][5] == -2 * c_nm


def test_minor_witness_rejects_a_broken_border(monkeypatch):
    # the bordered expansion reads the face-6 row of each minor as
    # (0, 0, 0, -2x, 2); a nonzero G[F2][F6] breaks that, and the full
    # minor at x = 1 no longer equals C + A
    p = build_hyperbolic_presentation(7, 4)
    gram = [list(r) for r in p.gram]
    gram[1][5] = gram[5][1] = AlgebraicNumber.rational(p.ctx, -1)
    broken = p._replace(gram=tuple(tuple(r) for r in gram))
    monkeypatch.setattr(coxeter, "build_hyperbolic_presentation",
                        lambda m, n: broken)
    with pytest.raises(VerificationError, match="x = 1"):
        solve_ultraparallel_by_minor(7, 4)


def test_minor_rejects_non_hyperbolic():
    with pytest.raises(GeometryError):
        solve_ultraparallel_by_minor(4, 4)
    with pytest.raises(GeometryError):
        solve_ultraparallel_by_minor(5, 3)


# -- rank and signature ---------------------------------------------------------

def test_rank_signature_reference_cases():
    assert rank_and_signature(build_hyperbolic_presentation(6, 4)) == (4, 3, 1)
    assert rank_and_signature(build_hyperbolic_presentation(6, 6)) == (4, 3, 1)


def test_rank_signature_scaled_identity():
    ctx = make_context(2)
    for s in (3, 5):
        rows = [[AlgebraicNumber.rational(ctx, 2 if i == j else 0)
                 for j in range(s)] for i in range(s)]
        assert charpoly_inertia(rows) == (s, s, 0)


def test_rank_signature_takes_only_a_presentation():
    p = build_hyperbolic_presentation(6, 4)
    for rows in (p.gram, p._certified[0], [list(r) for r in p.gram]):
        with pytest.raises(TypeError, match="takes a CoxeterPresentation"):
            rank_and_signature(rows)


def test_rank_signature_k0_path_matches_generic_up_to_12():
    # the presentation goes through the K0-congruent Gram matrix, the raw
    # rows through the reference charpoly on the sqrt(D) entries
    for (m, n) in HYPERBOLIC_PAIRS_12:
        p = build_hyperbolic_presentation(m, n)
        assert rank_and_signature(p) == charpoly_inertia(p.gram), (m, n)


def test_jacobi_cross_check_matches_numpy_eigvalsh():
    # the numeric cross-check runs the cyclic Jacobi method in doubles;
    # LAPACK's eigvalsh on the same float Gram matrix is the reference
    import numpy as np
    for (m, n) in HYPERBOLIC_PAIRS_12 + sorted(SPHERICAL_TYPES):
        p = build_presentation(m, n)
        fl = p.gram_float()
        ev = coxeter._jacobi_eigenvalues(fl.tolist())
        got = sorted(float(v) for v in ev)
        want = np.linalg.eigvalsh(fl)
        assert np.max(np.abs(np.array(got) - want)) < 1e-12, (m, n)


@pytest.mark.parametrize("fake", [
    lambda a: [1.0] * len(a),  # positive definite
    # 1e-3 lies beyond the zero threshold 1e-9: one zero too few
    lambda a: [1.0, 1.0, 1.0, -1.0, 1e-3, 0.0][:len(a)],
])
def test_rank_signature_rejects_disagreeing_eigenvalues(monkeypatch, fake):
    # fresh copies: the certification, cross-check included, runs once per
    # presentation
    monkeypatch.setattr(coxeter, "_jacobi_eigenvalues", fake)
    for p in (build_hyperbolic_presentation(6, 4)._replace(),
              build_spherical_presentation(5, 3)):
        with pytest.raises(VerificationError, match="numeric eigenvalues"):
            rank_and_signature(p)


def test_rank_signature_jacobi_no_convergence(monkeypatch):
    # one sweep leaves the (6,4) Gram matrix far from diagonal
    monkeypatch.setattr(coxeter, "_JACOBI_SWEEPS", 1)
    with pytest.raises(VerificationError, match="no convergence"):
        rank_and_signature(build_hyperbolic_presentation(6, 4)._replace())


def test_k0_certification_rejects_wrong_scaled_entry(monkeypatch):
    p = build_hyperbolic_presentation(7, 4)
    # (4,6) carrying the (5,6) cosh value: the K0 path must refuse it
    # rather than report the tampered matrix's signature
    gram = [list(r) for r in p.gram]
    gram[3][5] = gram[5][3] = gram[4][5]
    swapped = p._replace(gram=tuple(tuple(r) for r in gram))
    with pytest.raises(VerificationError):
        rank_and_signature(swapped)
    with pytest.raises(VerificationError):
        enumerate_cyclic_products(swapped)
    # the two consumers of the gate refuse it as well
    from tilinglinks.lorentz import realize
    with pytest.raises(VerificationError):
        check_arithmetic(swapped)
    with pytest.raises(VerificationError):
        realize(swapped)

    # a cos(pi/m) off by 1e-6 in the entries (1,2), (2,1): the pattern
    # check reads a from them and meets the true -a at (4,6)
    wrong = p.gram[0][1] - 2 * Fraction(1, 10**6)
    with pytest.raises(VerificationError, match="entry \\(4,6\\) is off"):
        rank_and_signature(_with_k0_gram(p, _set(0, 1, lambda g, ctx: wrong)))
    _patch_wrong_cos_m(monkeypatch)
    with pytest.raises(VerificationError):
        solve_ultraparallel_by_minor(7, 4)


def _patch_wrong_cos_m(monkeypatch):
    """Make _hyperbolic_cosh_data(7, 4) report a cos(pi/m) off by 1e-6."""
    c = coxeter._hyperbolic_cosh_data(7, 4)
    wrong = c.cm + AlgebraicNumber.rational(c.ctx, Fraction(1, 10**6))
    monkeypatch.setattr(coxeter, "_hyperbolic_cosh_data",
                        lambda m, n: c._replace(cm=wrong))


def test_k0_certification_runs_once_per_presentation(monkeypatch):
    p = build_hyperbolic_presentation(7, 4)._replace()
    check_arithmetic(p)
    # p keeps its certificate; a copy without it certifies again and meets
    # a certification that refuses
    def refuse(q):
        raise VerificationError("certified again")
    monkeypatch.setattr(coxeter, "_certify", refuse)
    assert rank_and_signature(p) == (4, 3, 1)
    assert len(enumerate_cyclic_products(p)) == len(p._cycles)
    with pytest.raises(VerificationError, match="certified again"):
        rank_and_signature(p._replace())


def test_validate_presentation_all_families():
    for (m, n) in [(6, 4), (9, 5), (5, 3), (4, 3), (3, 3), (22, 49)]:
        p = build_presentation(m, n)
        assert rank_and_signature(p) == (4, 3, 1)


# field degrees 120 to 432, and 1012 for (49, 47)
_LARGE_TYPES = [(14, 33), (44, 14), (22, 42), (34, 24), (11, 31), (31, 20),
                (30, 31), (43, 22), (22, 49), (38, 35), (49, 47)]
_SPHERICAL_BOTH_WAYS = sorted(SPHERICAL_TYPES | {(n, m) for m, n in SPHERICAL_TYPES})


def test_diagram_certificate_matches_charpoly_on_the_k0_rows():
    # Faddeev-LeVerrier and Descartes on the same exact rows are the
    # reference
    for (m, n) in HYPERBOLIC_PAIRS_12 + _LARGE_TYPES:
        rows, inertia = coxeter._certify(build_hyperbolic_presentation(m, n))
        assert inertia == charpoly_inertia(rows) == (4, 3, 1), (m, n)
    for (m, n) in _SPHERICAL_BOTH_WAYS:
        p = build_spherical_presentation(m, n)
        rows, inertia = coxeter._certify(p)
        assert rows == p.gram
        assert inertia == charpoly_inertia(p.gram) == (4, 3, 1), (m, n)


def _with_k0_gram(p, edit):
    """A fresh copy of p whose K0 Gram, as the certification scales it, is
    p's with `edit` applied to its rows: face 6's entries in K0 are divided
    back by sqrt(D), and (6,6) by D; an entry the edit put over a radicand
    is kept as it is."""
    rows = [list(r) for r in p._certified[0]]
    edit(rows, p.ctx)
    if p.family == "hyperbolic":
        c = coxeter._hyperbolic_cosh_data(p.m, p.n)
        Dinv = c.D.inverse()
        for i in range(5):
            for x, y in ((i, 5), (5, i)):
                if rows[x][y].radicand is None:
                    rows[x][y] = rows[x][y] * c.root * Dinv
        rows[5][5] = rows[5][5] * Dinv
    return p._replace(gram=tuple(tuple(r) for r in rows))


def _set(i, j, value):
    def edit(rows, ctx):
        rows[i][j] = rows[j][i] = value(rows, ctx)
    return edit


def _over_sqrt3(rows, ctx):
    """The (4,6) entry -a sqrt(3): over a radicand other than D."""
    return rows[3][5] * adjoin_sqrt(ctx, AlgebraicNumber.rational(ctx, 3))


# a wrong a at (4,6); an entry off the zero pattern; g66 off 2D by 1e-9;
# an ideal entry -2 off by 1e-6 on the spherical family; a (4,6) entry over
# another radicand
_TAMPERED = [
    ((7, 4), _set(3, 5, lambda g, ctx: g[0][2]), "entry \\(4,6\\) is off"),
    ((7, 4), _set(0, 3, lambda g, ctx: AlgebraicNumber.rational(ctx, -1)),
     "entry \\(1,4\\) is off"),
    ((7, 4), _set(5, 5, lambda g, ctx: g[5][5] + Fraction(1, 10**9)),
     "kernel vector k2"),
    ((5, 3), _set(2, 4, lambda g, ctx: g[2][4] + Fraction(1, 10**6)),
     "entry \\(3,5\\) is off"),
    ((7, 4), _set(3, 5, _over_sqrt3), "entry \\(4,6\\) is off"),
]


@pytest.mark.parametrize("mn,edit,msg", _TAMPERED)
def test_diagram_certificate_rejects_a_tampered_gram(mn, edit, msg):
    q = _with_k0_gram(build_presentation(*mn), edit)
    with pytest.raises(VerificationError, match=msg):
        rank_and_signature(q)


def test_diagram_certificate_rejects_a_zero_minor(monkeypatch):
    p = build_hyperbolic_presentation(9, 5)._replace()
    a, b = -p.gram[0][1], -p.gram[0][2]
    d3 = 8 - 2 * (a * a + b * b)
    real = AlgebraicNumber.sign
    monkeypatch.setattr(AlgebraicNumber, "sign",
                        lambda x: 0 if x == d3 else real(x))
    with pytest.raises(VerificationError, match="leading minor D3 "):
        rank_and_signature(p)


def test_presentation_gate_never_runs_the_charpoly(monkeypatch):
    from tilinglinks.lorentz import realize

    def refuse(rows):
        raise AssertionError("a determinant ran on a presentation")
    monkeypatch.setattr(coxeter, "exact_det", refuse)
    for (m, n) in [(6, 4), (5, 3), (4, 3)]:
        p = build_presentation(m, n)._replace()
        realize(p)
        assert rank_and_signature(p) == (4, 3, 1)
    # the patch takes effect: the minor solve runs the determinant
    with pytest.raises(AssertionError, match="determinant ran"):
        solve_ultraparallel_by_minor(6, 4)


def test_float_gram_evaluates_each_entry_once(monkeypatch):
    """`realize` and text `gram` read one float Gram per presentation:
    `approx` runs once per distinct Gram entry object (8 of them at
    (49,47)), where `gram_float`, the Jacobi cross-check and the printed
    rows each evaluated all 36 entries.  Text `gram` also prints the two
    cosh distances, each with the value of their one radicand D, which it
    evaluates once."""
    import contextlib
    import io
    from collections import Counter
    from tilinglinks import cli
    from tilinglinks.lorentz import realize
    calls = Counter()
    real = AlgebraicNumber.approx

    def counting(x):
        calls[id(x)] += 1
        return real(x)

    monkeypatch.setattr(AlgebraicNumber, "approx", counting)
    p = build_hyperbolic_presentation(49, 47)._replace()
    entries = {id(e) for row in p.gram for e in row}
    realize(p)
    assert len(entries) == 8 and calls == Counter(dict.fromkeys(entries, 1))

    calls.clear()
    p = p._replace()
    monkeypatch.setattr(coxeter, "build_presentation", lambda m, n: p)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gram", "49", "47"]) == 0
    cosh = [e.cosh_dist for e in p.edges if e.cosh_dist is not None]
    radicand = cosh[0].radicand
    assert cosh[1].radicand is radicand
    assert calls == Counter({**dict.fromkeys(entries, 1),
                             id(cosh[0]): 1, id(cosh[1]): 1, id(radicand): 1})


# -- the exact kernel against the references it replaced ----------------------

def faddeev_leverrier_charpoly(rows):
    """Reference: [1, c1, ..., cs] of det(lambda*I - rows) by
    Faddeev-LeVerrier (divides by k at step k)."""
    s = len(rows)
    zero = AlgebraicNumber.rational(rows[0][0].ctx, 0)

    def mat_mul(X, Y):
        out = []
        for i in range(s):
            row = []
            for j in range(s):
                acc = zero
                for k in range(s):
                    a, b = X[i][k], Y[k][j]
                    if not (a.is_zero or b.is_zero):
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return out

    def trace(X):
        acc = zero
        for i in range(s):
            acc = acc + X[i][i]
        return acc

    coeffs = [AlgebraicNumber.rational(rows[0][0].ctx, 1)]
    M = [list(r) for r in rows]
    coeffs.append(-trace(M))
    for k in range(2, s + 1):
        for i in range(s):
            M[i][i] = M[i][i] + coeffs[-1]
        M = mat_mul([list(r) for r in rows], M)
        coeffs.append(-(trace(M) / k))
    return coeffs


def charpoly_inertia(rows):
    """Reference: (rank, n_positive, n_negative) of the symmetric exact
    rows.  The rank is s minus the trailing zero coefficients of the
    `faddeev_leverrier_charpoly`; its roots are real, so Descartes' rule of
    signs counts the positive ones on the polynomial and the negative ones
    on its reflection lambda -> -lambda exactly."""
    s = len(rows)
    coeffs = faddeev_leverrier_charpoly(rows)  # lambda^s .. constant term
    rank = s
    while rank and coeffs[rank].is_zero:
        rank -= 1
    kept = [(c.sign(), rank - i) for i, c in enumerate(coeffs[:rank + 1])
            if not c.is_zero]

    def changes(signs):
        return sum(x != y for x, y in zip(signs, signs[1:]))

    pos = changes([x for x, _ in kept])
    neg = changes([x * (-1) ** k for x, k in kept])
    assert pos + neg == rank, "Descartes counts inconsistent with the rank"
    return rank, pos, neg


def subset_dp_det(rows):
    """Reference: the determinant as a dynamic program over the sets of
    columns used by the first r rows."""
    s = len(rows)
    ctx = rows[0][0].ctx
    table = {0: AlgebraicNumber.rational(ctx, 1)}
    for r in range(s):
        nxt = {}
        for mask, val in table.items():
            if val.is_zero:
                continue
            sign_flip = 0
            for c in range(s):
                bit = 1 << c
                if mask & bit:
                    sign_flip += 1
                    continue
                a = rows[r][c]
                if a.is_zero:
                    continue
                term = val * a if sign_flip % 2 == 0 else -(val * a)
                key = mask | bit
                nxt[key] = nxt[key] + term if key in nxt else term
        table = nxt
        if not table:
            return AlgebraicNumber.rational(ctx, 0)
    return table.get((1 << s) - 1, AlgebraicNumber.rational(ctx, 0))


@lru_cache(maxsize=None)
def kernel_grams():
    """(label, rows): the K0-congruent and the raw (sqrt(D)) Gram matrix of
    every ordered hyperbolic type with m,n <= 12, and the spherical Grams."""
    out = []
    for (m, n) in HYPERBOLIC_PAIRS_12:
        p = build_hyperbolic_presentation(m, n)
        out.append((f"({m},{n}) K0", p._certified[0]))
        out.append((f"({m},{n}) raw", p.gram))
    for (m, n) in sorted(SPHERICAL_TYPES):
        out.append((f"({m},{n}) spherical",
                    build_spherical_presentation(m, n).gram))
    return out


def test_charpoly_matches_faddeev_leverrier():
    # det = (-1)^s times the constant term of the characteristic polynomial;
    # the rank-4 Grams are singular, so their F1..F4 blocks (determinant
    # -4a^2 on a hyperbolic type) give the cofactor signs a nonzero value
    blocks = [(f"{label} F1..F4", [row[:4] for row in rows[:4]])
              for label, rows in kernel_grams()]
    for label, block in blocks:
        assert not exact_det(block).is_zero, label
    for label, rows in kernel_grams() + blocks:
        c = faddeev_leverrier_charpoly(rows)[-1]
        assert exact_det(rows) == (-c if len(rows) % 2 else c), label


def test_exact_det_matches_subset_dp_on_principal_minors():
    # a rank-4 Gram has only singular 5x5 minors; with both ultraparallel
    # entries set to -2, as in the minor solve's probes, most are not
    probes = []
    for (m, n) in UNORDERED_12:
        p = build_hyperbolic_presentation(m, n)
        rows = [list(r) for r in p.gram]
        for i in (3, 4):
            rows[i][5] = rows[5][i] = AlgebraicNumber.rational(p.ctx, -2)
        probes.append((f"({m},{n}) probe", rows))
    for label, rows in kernel_grams() + probes:
        for k in (4, 5):
            for idx in combinations(range(len(rows)), k):
                sub = [[rows[i][j] for j in idx] for i in idx]
                assert exact_det(sub) == subset_dp_det(sub), (label, idx)


SMALL_RATIONALS = st.one_of(
    st.just(0),
    st.fractions(min_value=-20, max_value=20, max_denominator=12))


@st.composite
def symmetric_rational_matrices(draw):
    s = draw(st.integers(1, 6))
    a = [[Fraction(0)] * s for _ in range(s)]
    for i in range(s):
        for j in range(i, s):
            a[i][j] = a[j][i] = Fraction(draw(SMALL_RATIONALS))
    return a


@settings(max_examples=60, deadline=None)
@given(symmetric_rational_matrices())
def test_charpoly_and_det_match_sympy(a):
    ctx = make_context(2)
    rows = [[AlgebraicNumber.rational(ctx, x) for x in row] for row in a]
    lam = sp.Symbol("lam")
    want = sp.Matrix(a).charpoly(lam).all_coeffs()
    got = [is_rational(c) for c in faddeev_leverrier_charpoly(rows)]
    assert got == [Fraction(int(c.p), int(c.q)) for c in want]
    det = sp.Matrix(a).det()
    assert is_rational(exact_det(rows)) == Fraction(int(det.p), int(det.q))


def test_exact_det_matches_numeric():
    import numpy as np
    p = build_hyperbolic_presentation(7, 4)
    sub = [row[:4] for row in p.gram[:4]]
    d = exact_det(sub)
    nd = np.linalg.det(np.array([[e.approx() for e in r] for r in sub]))
    assert abs(d.approx() - nd) < 1e-8


# -- cyclic products -------------------------------------------------------------

def test_cyclic_products_64():
    p = build_hyperbolic_presentation(6, 4)
    prods = dict(enumerate_cyclic_products(p))
    assert is_rational(prods[(1, 2, 4, 6, 5, 3)]) == 96
    assert is_rational(prods[(1, 2)]) == 3
    assert is_rational(prods[(1, 3)]) == 2
    assert is_rational(prods[(4, 6)]) == 12
    assert is_rational(prods[(5, 6)]) == 8
    assert len(prods) == 7  # six edge squares plus the single 6-cycle


def test_cyclic_products_66():
    prods = dict(enumerate_cyclic_products(build_hyperbolic_presentation(6, 6)))
    assert is_rational(prods[(1, 2, 4, 6, 5, 3)]) == 72


def test_cyclic_products_spherical_53():
    prods = dict(enumerate_cyclic_products(build_spherical_presentation(5, 3)))
    b = prods[(1, 2)]
    assert is_rational(b) is None
    assert abs(b.approx() - 4 * (0.25 * (1 + 5**0.5))**2) < 1e-12  # 4cos^2(pi/5)
    assert all(len(faces) == 2 for faces in prods)  # the diagram is a path


def path_product_reference(p):
    """Reference: every cyclic product multiplied out on the Gram matrix as
    given (the sqrt(D) entries of face 6 included), 2-cycles first, then
    simple cycles by length and faces."""
    s = p.size
    adj = [[not p.gram[i][j].is_zero and i != j for j in range(s)]
           for i in range(s)]
    out = [((i + 1, j + 1), p.gram[i][j] * p.gram[j][i])
           for i in range(s) for j in range(i + 1, s) if adj[i][j]]
    cycles = []

    def extend(path, visited):
        last = path[-1]
        for nxt in range(path[0] + 1, s):
            if nxt in visited or not adj[last][nxt]:
                continue
            if len(path) >= 2 and adj[nxt][path[0]] and path[1] < nxt:
                cycle = path + [nxt]
                val = p.gram[cycle[-1]][cycle[0]]
                for a, b in zip(cycle, cycle[1:]):
                    val = val * p.gram[a][b]
                cycles.append((tuple(c + 1 for c in cycle), val))
            extend(path + [nxt], visited | {nxt})

    for start in range(s):
        extend([start], {start})
    cycles.sort(key=lambda t: (len(t[0]), t[0]))
    return out + cycles


def test_cyclic_products_match_path_product_reference():
    # hyperbolic products run on the K0-congruent Gram, the reference on the
    # sqrt(D) entries; spherical ones share the plain path
    types = [build_hyperbolic_presentation(m, n)
             for (m, n) in HYPERBOLIC_PAIRS_12 + [(22, 43)]]
    types += [build_spherical_presentation(m, n)
              for (m, n) in sorted(SPHERICAL_TYPES)]
    for p in types:
        assert enumerate_cyclic_products(p) == path_product_reference(p), \
            (p.m, p.n)


# the types of the benchmark's certify and export pools, both orientations
_POOL_TYPES = [(14, 33), (14, 44), (22, 42), (24, 34), (11, 31), (20, 31),
               (30, 31), (22, 43), (22, 49), (35, 38), (11, 36), (16, 25),
               (32, 44), (38, 39), (46, 50), (43, 46), (44, 47), (47, 50)]
_WALK_TYPES = sorted({t for m, n in _POOL_TYPES for t in ((m, n), (n, m))}) \
    + [(49, 47), (6, 4), (4, 6), (6, 6), (10, 6), (6, 10)]


def reference_walk(p, faces):
    """Reference: the product of the certified K0 Gram's entries along the
    walk `faces` (0-based), left to right, then D^-1 once per visit to
    face 6."""
    g = p._certified[0]
    val = g[faces[0]][faces[1]]
    for a, b in zip(faces[1:], faces[2:]):
        val = val * g[a][b]
    for _ in range(faces.count(5)):
        val = val * coxeter._hyperbolic_cosh_data(p.m, p.n).D.inverse()
    return val


@pytest.mark.parametrize("m,n", _WALK_TYPES)
def test_walk_products_match_the_left_to_right_reference(m, n):
    # the cyclic products and the worksheet coefficients take face 6's D^-1
    # with its entering edge, the reference once at the end
    p = build_hyperbolic_presentation(m, n)
    for faces, val in enumerate_cyclic_products(p):
        assert val == reference_walk(p, [f - 1 for f in faces + faces[:1]]), faces
    ref, worksheets = {}, {}
    for strategy, seed in [("bfs", 0)] + [("random", s) for s in range(12)]:
        # the seeds on one spanning tree share its worksheet
        paths = tuple(tracefields._tree_paths(
            p, random.Random(seed) if strategy == "random" else None))
        if paths not in worksheets:
            worksheets[paths] = build_worksheet(p, strategy, seed)
        w = worksheets[paths]
        assert w.paths == tuple(tuple(f + 1 for f in path) for path in paths)
        for path, c in zip(paths[1:4], w.coeffs[1:]):
            if path not in ref:
                ref[path] = reference_walk(p, path)
            assert c == ref[path], (strategy, seed, path)
    # seeds 0, 5, 7, 9 and 11 route F4 through face 6
    assert any(5 in paths[3] for paths in worksheets)


def test_certificate_makes_no_dense_product(monkeypatch):
    # the build's (4,6) and (5,6) scale to -2cos(pi/m) and -2cos(pi/n) with
    # no product; multiplying each u sqrt(D) by sqrt(D) took products with
    # the dense u = -2cos D^-1, of 460 nonzero coefficients at (47,50)
    from tilinglinks import fields
    p = build_hyperbolic_presentation(47, 50)._replace()
    sizes = []
    real = fields._vmul

    def counting(a, da, b, db, ctx):
        sizes.append(max(sum(map(bool, a)), sum(map(bool, b))))
        return real(a, da, b, db, ctx)

    monkeypatch.setattr(fields, "_vmul", counting)
    assert coxeter._certify(p)[1] == (4, 3, 1)
    assert sizes and max(sizes) <= 100


@pytest.mark.parametrize(
    "m,n", UNORDERED_12 + [(31, 11), (47, 49), (49, 47), (46, 47)])
def test_minor_equals_closed_form_up_to_12(m, n):
    c_mn, c_nm = solve_ultraparallel_by_minor(m, n)
    p = build_hyperbolic_presentation(m, n)
    assert p.gram[3][5] == -2 * c_mn
    assert p.gram[4][5] == -2 * c_nm


def test_offdiagonal_entry_range():
    # under the real embedding: angle entries in [-2, 0], ultraparallel
    # entries strictly below -2
    for (m, n) in [(6, 4), (7, 3), (11, 12)]:
        p = build_hyperbolic_presentation(m, n)
        ultra = {(e.i - 1, e.j - 1) for e in p.edges
                 if e.kind == "ultraparallel"}
        for i in range(6):
            for j in range(i + 1, 6):
                v = p.gram[i][j].approx()
                if (i, j) in ultra:
                    assert v < -2
                else:
                    assert -2 <= v <= 0


@pytest.mark.parametrize("m,n", [(4, 4), (6, 3), (3, 6)])
def test_face_lattice_parabolic_triangle(m, n):
    # on the Euclidean diagrams 1/m + 1/n + 1/2 = 1: F1 F2 F3 is a second
    # cusp, and the finite-volume check still holds
    p = coxeter._presentation(m, n, "euclidean", make_context(m * n))
    assert [(v.kind, v.faces) for v in face_lattice(p)] == [
        ("ideal", (0, 1, 2)), ("finite", (0, 1, 4)), ("finite", (0, 2, 3)),
        ("finite", (0, 3, 4)), ("ideal", (1, 2, 3, 4))]


def test_face_lattice_rejects_a_face_without_edges():
    # F7 is at right angles to every face: F1 F2 F3 has two faces at right
    # angles to all three, so no truncated vertex, and F1-F2 gains a third
    # end, F7
    p = build_hyperbolic_presentation(6, 4)
    with pytest.raises(VerificationError, match="^edge F1-F2 has 3 ends"):
        face_lattice(p._replace(faces=p.faces + ("F7",)))
