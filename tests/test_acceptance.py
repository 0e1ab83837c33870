"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated runtime budget and tolerances."""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from math import cos, pi, tan

from tilinglinks.arithmeticity import (arithmetic_sweep, check_arithmetic)
from tilinglinks.classify import (NOT_APPLICABLE, arithmetic_status,
                                  commensurable, minimal_orbifold_degree,
                                  valid_types)
from tilinglinks.coxeter import (build_hyperbolic_presentation,
                                 build_presentation,
                                 build_spherical_presentation,
                                 enumerate_cyclic_products,
                                 rank_and_signature,
                                 solve_ultraparallel_by_minor)
from tilinglinks.fields import (AlgebraicNumber, adjoin_sqrt, embed_cos,
                                is_rational, make_context)
from tilinglinks.lorentz import (build_drum, build_platonic_cell, mdot,
                                 realize, realized_angles,
                                 tiling_angle_oracle, tiling_angles,
                                 verify_basins, verify_gluing_angles)
from tilinglinks.tracefields import build_worksheet, invariant_trace_field

from test_lorentz import edge_midpoint, horoball_distance

HYPERBOLIC_12 = sorted({(max(m, n), min(m, n))
                        for m in range(3, 13) for n in range(3, 13)
                        if Fraction(1, m) + Fraction(1, n) < Fraction(1, 2)})
SEED = 0


@contextmanager
def criterion(num, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num}: PASS - {description} ({dt:.2f}s)")


def expected_gram_64():
    ctx = make_context(12)
    s3, s2 = embed_cos(ctx, 6), embed_cos(ctx, 4)
    two, zero = AlgebraicNumber.rational(ctx, 2), AlgebraicNumber.rational(ctx, 0)
    return [[two, -s3, -s2, zero, zero, zero],
            [-s3, two, zero, -two, zero, zero],
            [-s2, zero, two, zero, -two, zero],
            [zero, -two, zero, two, zero, -2 * s3],
            [zero, zero, -two, zero, two, -2 * s2],
            [zero, zero, zero, -2 * s3, -2 * s2, two]]


def expected_gram_66():
    ctx = make_context(6)
    s3 = embed_cos(ctx, 6)
    sqrt6 = 2 * s3 * adjoin_sqrt(ctx, AlgebraicNumber.rational(ctx, Fraction(1, 2)))
    two, zero = AlgebraicNumber.rational(ctx, 2), AlgebraicNumber.rational(ctx, 0)
    return [[two, -s3, -s3, zero, zero, zero],
            [-s3, two, zero, -two, zero, zero],
            [-s3, zero, two, zero, -two, zero],
            [zero, -two, zero, two, zero, -sqrt6],
            [zero, zero, -two, zero, two, -sqrt6],
            [zero, zero, zero, -sqrt6, -sqrt6, two]]


def test_criterion_1_gram_reproduction():
    with criterion(1, "Gram matrices for (6,4) and (6,6) match their "
                      "closed forms entrywise, exactly"):
        t0 = time.perf_counter()
        for (m, n), expected in (((6, 4), expected_gram_64()),
                                 ((6, 6), expected_gram_66())):
            p = build_hyperbolic_presentation(m, n)
            for i in range(6):
                for j in range(6):
                    assert p.gram[i][j] == expected[i][j], (m, n, i, j)
        # the CLI front end serves the same exact data
        from tilinglinks.cli import main
        import io, contextlib
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["gram", "6", "4", "--format", "json"]) == 0
        doc = json.loads(buf.getvalue())
        from tilinglinks.fields import as_json_dict
        expected_a46 = as_json_dict(expected_gram_64()[3][5])
        assert doc["gram"][3][5]["base"] == expected_a46["base"]
        assert doc["gram"][3][5]["base"] == [[4, 1], [0, 1], [-2, 1], [0, 1]]
        assert time.perf_counter() - t0 < 1.0, "runtime budget 1 s exceeded"


def test_criterion_2_minor_determinant_equals_closed_form():
    with criterion(2, "singular-minor solution equals the closed-form "
                      "cosh values exactly for all hyperbolic m,n <= 12"):
        t0 = time.perf_counter()
        for (m, n) in HYPERBOLIC_12:
            c_mn, c_nm = solve_ultraparallel_by_minor(m, n)
            p = build_hyperbolic_presentation(m, n)
            assert p.gram[3][5] == -2 * c_mn, (m, n)
            assert p.gram[4][5] == -2 * c_nm, (m, n)
            # ordered coverage via the exact swap relabeling
            q = build_hyperbolic_presentation(n, m)
            perm = [0, 2, 1, 4, 3, 5]
            for i in range(6):
                for j in range(6):
                    assert p.gram[i][j] == q.gram[perm[i]][perm[j]]
        assert time.perf_counter() - t0 < 30.0, "runtime budget 30 s exceeded"


def test_criterion_3_vinberg_constants_and_sweep():
    with criterion(3, "cyclic products 96 and 72 exact; sweep to 50 marks "
                      "exactly (6,4), (4,6), (6,6) arithmetic"):
        t0 = time.perf_counter()
        prods64 = dict(enumerate_cyclic_products(build_hyperbolic_presentation(6, 4)))
        assert is_rational(prods64[(1, 2, 4, 6, 5, 3)]) == 96
        prods66 = dict(enumerate_cyclic_products(build_hyperbolic_presentation(6, 6)))
        assert is_rational(prods66[(1, 2, 4, 6, 5, 3)]) == 72
        rows = arithmetic_sweep(50, 50)
        marked = {(r.m, r.n) for r in rows if r.arithmetic}
        assert marked == {(6, 4), (4, 6), (6, 6)}
        # the two full certificates behind the sweep verdicts
        assert check_arithmetic(build_hyperbolic_presentation(6, 4)).arithmetic
        assert check_arithmetic(build_hyperbolic_presentation(6, 6)).arithmetic
        assert time.perf_counter() - t0 < 300.0, "runtime budget 5 min exceeded"


def test_criterion_4_trace_fields():
    with criterion(4, "det G' = -3456 -> Q(i*sqrt(6)) and -5184 -> Q(i), "
                      "exactly; squarefree field invariant under 3 "
                      "randomized path strategies"):
        r64 = invariant_trace_field(build_hyperbolic_presentation(6, 4))
        assert is_rational(r64.discriminant_det) == -3456
        assert r64.invariant_field.d == -6
        r66 = invariant_trace_field(build_hyperbolic_presentation(6, 6))
        assert is_rational(r66.discriminant_det) == -5184
        assert r66.invariant_field.d == -1
        for (m, n), d in (((6, 4), -6), ((6, 6), -1)):
            p = build_hyperbolic_presentation(m, n)
            paths_seen = set()
            for seed in range(8):  # at least 3 genuinely distinct strategies
                res = invariant_trace_field(p, strategy="random", seed=seed)
                assert res.invariant_field.d == d
                paths_seen.add(build_worksheet(p, "random", seed).paths)
            assert len(paths_seen) >= 2, "random strategies did not vary"


def test_criterion_5_spherical_5_3_non_arithmetic():
    with criterion(5, "[5,3,5,3] certificate: non-arithmetic with the "
                      "2-cycle witness 4cos^2(pi/5), irrational exactly"):
        cert = check_arithmetic(build_spherical_presentation(5, 3))
        assert cert.arithmetic is False
        item = cert.failing_item
        assert item is not None and item.faces == (1, 2)
        witness = item.value
        assert is_rational(witness) is None  # exact irrationality
        ctx = witness.ctx
        c5 = embed_cos(ctx, 5)  # 2cos(pi/5)
        assert witness == c5 * c5  # witness is (2cos(pi/5))^2 = 4cos^2(pi/5)
        assert abs(witness.approx() - (3 + 5**0.5) / 2) < 1e-12


def test_criterion_6_rank_signature_all_families():
    with criterion(6, "every generated Gram matrix (hyperbolic and spherical "
                      "families, m,n <= 12) has exact rank 4, signature (3,1)"):
        pairs = list(HYPERBOLIC_12) + [(3, 3), (4, 3), (5, 3)]
        for (m, n) in pairs:
            p = build_presentation(m, n)
            # rank exact; Descartes signature cross-checked numerically inside
            assert rank_and_signature(p) == (4, 3, 1), (m, n)


def test_criterion_7_commensurability_classification():
    with criterion(7, "commensurability matches the two-clause relation on "
                      "all valid types <= 12 and is an equivalence relation"):
        types = valid_types(12)
        qi = {(3, 3), (4, 4), (6, 6)}
        rel = {}
        for a in types:
            for b in types:
                verdict, reason = commensurable(a, b)
                rel[(a, b)] = verdict
                expected = (a == b) or (a in qi and b in qi)
                assert verdict == expected, (a, b)
                if not verdict:
                    sa, sb = arithmetic_status(*a), arithmetic_status(*b)
                    if sa.arithmetic and sb.arithmetic:
                        assert "trace fields differ" in reason
                    elif not sa.arithmetic and not sb.arithmetic:
                        assert "cell types differ" in reason
                    else:
                        assert "arithmeticity differs" in reason
        for a in types:
            assert rel[(a, a)]
            for b in types:
                assert rel[(a, b)] == rel[(b, a)]
                for c in types:
                    if rel[(a, b)] and rel[(b, c)]:
                        assert rel[(a, c)]


def test_criterion_8_geometry():
    with criterion(8, "dihedral labels, midpoint-tangent horoballs, basin "
                      "checks (1e4 samples/cell), and 2*pi gluing sums"):
        t0 = time.perf_counter()
        # (a) realized dihedral angles match the diagram labels
        for (m, n) in HYPERBOLIC_12 + [(3, 3), (4, 3), (5, 3)]:
            p = build_presentation(m, n)
            r = realize(p)
            labels = {(e.i, e.j): e for e in p.edges}
            for i, j, kind, value in realized_angles(r):
                e = labels.get((i, j))
                if e is None:  # no diagram edge means a right angle
                    assert kind == "angle" and abs(value - pi / 2) < 1e-9
                elif e.kind == "angle":
                    assert kind == "angle" and abs(value - pi / e.order) < 1e-9
                elif e.kind == "ideal":
                    assert kind == "ideal"
                else:
                    assert kind == "ultraparallel"
                    assert abs(value - e.cosh_dist.approx()) < 1e-9
        # (b) horoballs pairwise tangent at edge midpoints
        for kind in ("tetrahedron", "octahedron"):
            cell = build_platonic_cell(kind)
            for (i, j) in cell.adjacency:
                mid = edge_midpoint(cell, i, j)
                assert abs(mdot(mid, mid) + 1) < 1e-9
                assert abs(horoball_distance(mid, cell.horoballs[i])) < 1e-9
                assert abs(horoball_distance(mid, cell.horoballs[j])) < 1e-9
        # (c) basin verification, 10^4 samples per cell, fixed seed
        cells = [build_platonic_cell("tetrahedron"),
                 build_platonic_cell("octahedron"),
                 build_drum(6, 6, side=6).cell,
                 build_drum(6, 4, side=4).cell,
                 build_drum(6, 4, side=6).cell]
        for cell in cells:
            rep = verify_basins(cell, samples=10000, seed=SEED)
            assert rep.violations == 0, cell.kind
            assert rep.samples == 10000
        # (d) gluing angle sums
        for (m, n) in HYPERBOLIC_12:
            assert verify_gluing_angles(m, n), (m, n)
        assert time.perf_counter() - t0 < 120.0, "runtime budget 2 min exceeded"


def test_criterion_9_minimal_orbifold_degrees():
    with criterion(9, "minimal-orbifold degree 1 for non-arithmetic m != n, "
                      "2 for m = n, over m,n <= 12"):
        for (m, n) in HYPERBOLIC_12:
            deg = minimal_orbifold_degree(m, n)
            if (m, n) in {(6, 4), (6, 6)}:
                assert deg == NOT_APPLICABLE
            elif m != n:
                assert deg == 1, (m, n)
            else:
                assert deg == 2, (m, n)


def test_criterion_10_tiling_angle_oracle():
    with criterion(10, "polygon-construction oracle satisfies "
                       "tan(alpha_m/2)cos(pi/n) = cos(pi/m) within 1e-12; "
                       "alpha_6 = pi/2 exactly for (6,6)"):
        for (m, n) in HYPERBOLIC_12:
            alpha = tiling_angle_oracle(m, n)
            assert abs(tan(alpha / 2) * cos(pi / n) - cos(pi / m)) < 1e-12, (m, n)
            am, an = tiling_angles(m, n)
            assert abs(alpha - am) < 1e-10
        assert tiling_angles(6, 6)[0] == pi / 2
