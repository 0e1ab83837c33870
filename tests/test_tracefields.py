"""Path-vector worksheets, the determinant invariants, and squarefree
reduction of the invariant trace field."""

from fractions import Fraction

import pytest

from tilinglinks.coxeter import (SPHERICAL_TYPES, build_hyperbolic_presentation,
                                 build_spherical_presentation, exact_det,
                                 geometry_of)
from tilinglinks.errors import DomainError
from tilinglinks.fields import (AlgebraicNumber, embed_cos, is_rational,
                                make_context)
from tilinglinks.tracefields import (build_worksheet, field_label,
                                     invariant_trace_field, squarefree_part,
                                     trace_field_json_dict)


def test_worksheet_64_reference_values():
    p = build_hyperbolic_presentation(6, 4)
    w = build_worksheet(p)
    assert w.basis == (1, 2, 3, 4)
    approx = [round(c.approx(), 9) for c in w.coeffs[:4]]
    assert approx == [2.0, round(-3**0.5, 9), round(-2**0.5, 9),
                      round(2 * 3**0.5, 9)]
    expected = [[8, 6, 4, 0], [6, 6, 0, 12], [4, 0, 4, 0], [0, 12, 0, 24]]
    for i in range(4):
        for j in range(4):
            assert is_rational(w.gprime[i][j]) == expected[i][j]
    assert is_rational(w.det) == -3456


def test_worksheet_66():
    w = build_worksheet(build_hyperbolic_presentation(6, 6))
    expected = [[8, 6, 6, 0], [6, 6, 0, 12], [6, 0, 6, 0], [0, 12, 0, 24]]
    for i in range(4):
        for j in range(4):
            assert is_rational(w.gprime[i][j]) == expected[i][j]
    assert is_rational(w.det) == -5184


def test_worksheet_structure_invariants():
    for (m, n) in [(6, 4), (7, 3), (9, 9)]:
        p = build_hyperbolic_presentation(m, n)
        w = build_worksheet(p)
        assert w.coeffs[0] == AlgebraicNumber.rational(p.ctx, 2)  # c1 = a11
        for i, bi in enumerate(w.basis):
            ci = w.coeffs[bi - 1]
            assert w.gprime[i][i] == 2 * ci * ci
            for j in range(4):
                assert w.gprime[i][j] == w.gprime[j][i]
        assert w.det.sign() < 0  # signature (3,1) on a spanning set


def test_worksheet_basis_block():
    # the fixed basis F1..F4: its Gram block has determinant
    # -16cos^2(pi/m) in both families, and det G' is that block's
    # determinant times the squares of the basis faces' path coefficients
    ps = [build_spherical_presentation(m, n) for m, n in SPHERICAL_TYPES]
    ps += [build_hyperbolic_presentation(m, n)
           for m in range(3, 13) for n in range(3, 13)
           if geometry_of(m, n) == "Hyperbolic"]
    assert len(ps) == 3 + 92
    for p in ps:
        block = [row[:4] for row in p.gram[:4]]
        a = embed_cos(p.ctx, p.m)
        assert exact_det(block) == -4 * a * a, (p.m, p.n)
        w = build_worksheet(p)
        assert w.basis == (1, 2, 3, 4)
        scale = AlgebraicNumber.rational(p.ctx, 1)
        for b in w.basis:
            scale = scale * w.coeffs[b - 1] * w.coeffs[b - 1]
        assert w.det == exact_det(block) * scale, (p.m, p.n)


@pytest.mark.parametrize("m,n", [(6, 4), (6, 6), (46, 47), (49, 47)])
def test_worksheets_stay_in_k0(m, n):
    # no basis path ends at face 6, so on every tree, at every degree, the
    # four coefficients and det G' lie in K0, and det G' is the basis
    # block's determinant times the squared coefficients
    p = build_hyperbolic_presentation(m, n)
    block = exact_det([row[:4] for row in p.gram[:4]])
    want = {}  # by coefficients: seeds that share a basis tree repeat them
    for strategy, seed in [("bfs", 0)] + [("random", s) for s in range(12)]:
        w = build_worksheet(p, strategy, seed)
        assert len(w.coeffs) == 4
        assert all(x.radicand is None for x in w.coeffs + (w.det,))
        if w.coeffs not in want:
            c = w.coeffs[0] * w.coeffs[1] * w.coeffs[2] * w.coeffs[3]
            want[w.coeffs] = block * c * c
        assert w.det == want[w.coeffs], (strategy, seed)


def test_diagonal_determinant_trivial_case():
    ctx = make_context(2)
    diag = [[AlgebraicNumber.rational(ctx, (i + 1) if i == j else 0)
             for j in range(4)] for i in range(4)]
    assert is_rational(exact_det(diag)) == 24


def test_invariant_field_64_66():
    r64 = invariant_trace_field(build_hyperbolic_presentation(6, 4))
    assert r64.adjoint_rational is True
    assert r64.invariant_field.d == -6
    assert r64.invariant_field.label == "Q(i*sqrt(6))"
    r66 = invariant_trace_field(build_hyperbolic_presentation(6, 6))
    assert r66.invariant_field.d == -1
    assert r66.invariant_field.label == "Q(i)"


def test_symbolic_result_for_nonarithmetic():
    r = invariant_trace_field(build_hyperbolic_presentation(7, 3))
    assert r.adjoint_rational is False
    assert r.invariant_field.kind == "symbolic"
    assert len(r.adjoint_generators) > 0
    assert all(is_rational(g) is None for g in r.adjoint_generators)


def test_path_choice_invariance():
    p64 = build_hyperbolic_presentation(6, 4)
    dets = set()
    for seed in (1, 2, 3, 4, 5, 6):
        r = invariant_trace_field(p64, strategy="random", seed=seed)
        assert r.invariant_field.d == -6
        dets.add(is_rational(r.discriminant_det))
    # determinants may differ across path choices but only by square factors
    base = Fraction(-3456)
    for d in dets:
        ratio = d / base
        assert ratio > 0
        num_den = ratio.numerator * ratio.denominator
        import math
        s = math.isqrt(num_den)
        assert s * s == num_den


# the two spanning trees of the six-face diagram (1-based paths from F1)
VIA_F2 = ((1,), (1, 2), (1, 3), (1, 2, 4), (1, 2, 4, 6, 5), (1, 2, 4, 6))
VIA_F3 = ((1,), (1, 2), (1, 3), (1, 3, 5, 6, 4), (1, 3, 5), (1, 3, 5, 6))


@pytest.mark.parametrize("m,n", [(6, 4), (6, 6)])
def test_tree_paths_pinned(m, n):
    # seeded paths captured from the separate randomized-DFS builder that
    # the one spanning-tree builder replaced
    p = build_hyperbolic_presentation(m, n)
    assert build_worksheet(p).paths == (
        (1,), (1, 2), (1, 3), (1, 2, 4), (1, 3, 5), (1, 2, 4, 6))
    for seed in range(12):
        want = VIA_F3 if seed in (0, 5, 7, 9, 11) else VIA_F2
        assert build_worksheet(p, "random", seed).paths == want, seed


def test_disconnected_diagram_rejected():
    p = build_hyperbolic_presentation(6, 4)
    zero = AlgebraicNumber.rational(p.ctx, 0)
    gram = [list(r) for r in p.gram]
    for i in range(5):  # cut face 6 off
        gram[i][5] = gram[5][i] = zero
    cut = p._replace(gram=tuple(tuple(r) for r in gram))
    for strategy in ("bfs", "random"):
        with pytest.raises(DomainError, match="disconnected"):
            build_worksheet(cut, strategy)


def test_random_paths_actually_vary():
    p = build_hyperbolic_presentation(6, 4)
    seen = {build_worksheet(p, "random", s).paths for s in range(12)}
    assert len(seen) > 1


def test_squarefree_part():
    assert squarefree_part(Fraction(-3456)) == (Fraction(24), -6)
    assert squarefree_part(Fraction(-5184)) == (Fraction(72), -1)
    assert squarefree_part(Fraction(-4)) == (Fraction(2), -1)
    assert squarefree_part(Fraction(18)) == (Fraction(3), 2)
    assert squarefree_part(Fraction(1, 2)) == (Fraction(1, 2), 2)
    with pytest.raises(DomainError):
        squarefree_part(Fraction(0))


def test_field_labels():
    assert field_label(-1) == "Q(i)"
    assert field_label(-6) == "Q(i*sqrt(6))"
    assert field_label(1) == "Q"


def test_unknown_strategy_rejected():
    with pytest.raises(DomainError):
        build_worksheet(build_hyperbolic_presentation(6, 4), "zigzag")


def test_json_shape():
    r = invariant_trace_field(build_hyperbolic_presentation(6, 4))
    d = trace_field_json_dict(r)
    assert d["kP_rational"] is True
    assert d["field"] == "Q(i*sqrt(6))"
    assert d["det"]["approx"] == -3456.0


def test_swap_invariance_of_field():
    a = invariant_trace_field(build_hyperbolic_presentation(6, 4))
    b = invariant_trace_field(build_hyperbolic_presentation(4, 6))
    assert a.invariant_field == b.invariant_field
