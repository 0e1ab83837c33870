"""Hyperboloid-model geometry: the horoball distance formula against an
independent upper-half-space oracle, realizations, drums, Platonic cells,
and basin verification."""

from math import cos, log, pi, sin, sqrt

import numpy as np
import pytest

from tilinglinks import coxeter
from tilinglinks.coxeter import (SPHERICAL_TYPES, build_hyperbolic_presentation,
                                 build_presentation,
                                 build_spherical_presentation, face_lattice,
                                 geometry_of)
from tilinglinks.errors import DomainError, GeometryError, VerificationError
from tilinglinks.lorentz import (HALTON_PERIOD, J, TOL, WALL_SKIP_TOL,
                                 CanonicalCheckReport, _halton,
                                 _halton_residues, _interior_points,
                                 build_drum, build_platonic_cell,
                                 classify_point, drum_symmetries_ok, mdot,
                                 polygon_edge_and_angle,
                                 realize, realized_angles, tiling_angle_oracle,
                                 tiling_angles, verify_basins,
                                 verify_gluing_angles)

RNG = np.random.default_rng(20240817)


def horoball_distance(x, w):
    """Distance from unit point x to the horoball of w (negative inside)."""
    return float(np.log(-mdot(x, w)))


def edge_midpoint(cell, i, j):
    """Midpoint of the edge (i, j): the unit point (w_i + w_j)/sqrt(-2<wi,wj>)."""
    w = cell.horoballs
    return (w[i] + w[j]) / sqrt(-2 * mdot(w[i], w[j]))


def random_unit_point(rng=RNG, spread=0.4):
    p = rng.normal(size=3) * spread
    if p @ p > 0.9:
        p *= 0.9 / sqrt(p @ p)
    r2 = p @ p
    return np.array([*(2 * p / (1 - r2)), (1 + r2) / (1 - r2)])


# -- independent upper-half-space oracle -------------------------------------

def to_uhs(x):
    """Hyperboloid -> upper half space with infinity at the null direction
    (0, 0, 1, 1)."""
    s = x[3] - x[2]
    return np.array([x[0] / s, x[1] / s]), 1.0 / s


def lift_from_uhs(u, h):
    s = 1.0 / h
    x0, x1 = u[0] * s, u[1] * s
    sm = (x0 * x0 + x1 * x1 + 1) / s
    return np.array([x0, x1, (sm - s) / 2, (sm + s) / 2])


def uhs_point_distance(u1, h1, u2, h2):
    return np.arccosh(1 + ((np.linalg.norm(u1 - u2)) ** 2 + (h1 - h2) ** 2)
                      / (2 * h1 * h2))


def horoball_distance_uhs(x, w):
    """Distance from x to the horoball of w computed entirely in the upper
    half-space model: locate the horosphere as a Euclidean sphere tangent at
    the ideal point, send that point to infinity by inversion, and read off
    log of a height ratio."""
    zeta, _ = to_uhs(w)
    u, h = to_uhs(x)

    def boundary_gap(height):
        return mdot(lift_from_uhs(zeta, height), w) + 1

    lo, hi = 1e-8, 1e8
    assert boundary_gap(lo) * boundary_gap(hi) < 0
    for _ in range(200):
        mid = sqrt(lo * hi)
        if boundary_gap(lo) * boundary_gap(mid) <= 0:
            hi = mid
        else:
            lo = mid
    top = sqrt(lo * hi)  # Euclidean diameter of the horoball at zeta
    du = u - zeta
    h_image = h / (du @ du + h * h)   # invert in the unit sphere at (zeta, 0)
    return log((1.0 / top) / h_image)


def test_model_map_preserves_distance():
    for _ in range(6):
        x, y = random_unit_point(), random_unit_point()
        d_hyperboloid = np.arccosh(-mdot(x, y))
        d_uhs = uhs_point_distance(*to_uhs(x), *to_uhs(y))
        assert abs(d_hyperboloid - d_uhs) < 1e-9


def test_horoball_distance_formula_against_uhs_oracle():
    for _ in range(10):
        x = random_unit_point()
        v = RNG.normal(size=3)
        v /= np.linalg.norm(v)
        w = np.array([*v, 1.0]) * float(np.exp(RNG.normal()))
        d_formula = horoball_distance(x, w)
        d_oracle = horoball_distance_uhs(x, w)
        assert abs(d_formula - d_oracle) < 1e-7


# -- realizations -------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(6, 4), (6, 6), (7, 3), (12, 11), (5, 3), (3, 3)])
def test_realize_roundtrip(m, n):
    p = build_presentation(m, n)
    r = realize(p)
    err = np.max(np.abs(r.recomputed_gram() - p.gram_float()))
    assert err < 1e-9


def test_realized_angles_64():
    r = realize(build_hyperbolic_presentation(6, 4))
    angles = {(i, j): (kind, v) for i, j, kind, v in realized_angles(r)}
    assert abs(angles[(1, 2)][1] - pi / 6) < 1e-9
    assert abs(angles[(1, 3)][1] - pi / 4) < 1e-9
    assert angles[(2, 4)][0] == "ideal"
    assert abs(angles[(4, 6)][1] - 3**0.5) < 1e-9  # cosh distance
    assert abs(angles[(5, 6)][1] - 2**0.5) < 1e-9


def test_realized_angles_53_no_ultraparallel():
    r = realize(build_spherical_presentation(5, 3))
    kinds = {k for _, _, k, _ in realized_angles(r)}
    assert "ultraparallel" not in kinds
    angles = {(i, j): v for i, j, k, v in realized_angles(r) if k == "angle"}
    assert abs(angles[(1, 2)] - pi / 5) < 1e-9
    assert abs(angles[(1, 3)] - pi / 3) < 1e-9


def test_vertex_census_hyperbolic():
    # one ideal vertex: the two infinity edges share a null direction
    # (e2 + e4 and e3 + e5 are proportional null vectors), plus the
    # truncated apex against F6 and six finite corners
    r = realize(build_hyperbolic_presentation(6, 4))
    kinds = sorted(v.kind for v in r.vertices)
    assert kinds.count("ideal") == 1
    assert kinds.count("ultra_ideal") == 1
    assert kinds.count("finite") == 6
    ideal_inc = next(inc for v, inc in zip(r.vertices, r.incidence)
                     if v.kind == "ideal")
    assert ideal_inc == (1, 2, 3, 4)  # cusp link is the rectangle F2 F3 F4 F5
    ultra_inc = next(inc for v, inc in zip(r.vertices, r.incidence)
                     if v.kind == "ultra_ideal")
    assert 5 in ultra_inc  # truncation face F6


def test_vertex_census_spherical():
    r = realize(build_spherical_presentation(5, 3))
    kinds = sorted(v.kind for v in r.vertices)
    assert kinds.count("ideal") == 1
    assert kinds.count("ultra_ideal") == 0  # finite apexes
    assert kinds.count("finite") == 4


def test_ideal_vertices_are_null():
    for (m, n) in [(6, 4), (8, 5)]:
        r = realize(build_hyperbolic_presentation(m, n))
        for v in r.vertices:
            q = mdot(np.asarray(v.coords), np.asarray(v.coords))
            if v.kind == "ideal":
                assert abs(q) < 1e-9
            elif v.kind == "ultra_ideal":
                assert q > 1e-9


LATTICE_TYPES = ([(m, n) for m in range(3, 13) for n in range(3, 13)
                  if geometry_of(m, n) == "Hyperbolic"]
                 + [(49, 47), (22, 43)]
                 + sorted(SPHERICAL_TYPES | {(n, m) for m, n in SPHERICAL_TYPES}))


@pytest.mark.parametrize("m,n", LATTICE_TYPES)
def test_lattice_vertices_realized(m, n):
    # hyperbolic: six finite corners, the cusp F2 F3 F4 F5 and the apex
    # F1 F2 F3 cut off by F6; spherical: four finite corners and the cusp
    p = build_presentation(m, n)
    lattice = face_lattice(p)
    kinds = [v.kind for v in lattice]
    hyperbolic = p.family == "hyperbolic"
    assert kinds.count("finite") == (6 if hyperbolic else 4)
    assert [v.faces for v in lattice if v.kind == "ideal"] == [(1, 2, 3, 4)]
    assert [(v.faces, v.truncation) for v in lattice
            if v.kind == "ultra_ideal"] == ([((0, 1, 2, 5), 5)]
                                            if hyperbolic else [])
    r = realize(p)
    assert [v.kind for v in r.vertices] == kinds
    assert r.incidence == tuple(v.faces for v in lattice)
    for v, x in zip(lattice, r.vertices):
        sides = r.normals @ J @ np.asarray(x.coords)
        for f in range(p.size):
            if f == v.truncation:  # the vertex is the pole of this face
                assert sides[f] > TOL
            elif f in v.faces:
                assert abs(sides[f]) <= TOL
            else:
                assert sides[f] <= TOL


# every edge of the hyperbolic diagram; of the spherical one, the ideal
# edges (a dropped angle edge leaves a right angle, F1 F2 F3 stays a finite
# vertex, and the diagram keeps finite volume)
@pytest.mark.parametrize("m,n,k", [(6, 4, k) for k in range(6)]
                         + [(5, 3, 2), (5, 3, 3)])
def test_dropped_edge_fails_finite_volume(m, n, k):
    p = build_presentation(m, n)
    q = p._replace(edges=p.edges[:k] + p.edges[k + 1:])
    with pytest.raises(VerificationError, match=r"^edge F\d-F\d has \d ends"):
        face_lattice(q)
    with pytest.raises(VerificationError, match="does not have finite volume"):
        realize(q)


# each lattice vertex the normals contradict: by its kind, by a face it
# should lie inside of, and by faces it should lie on (the five faces of
# the spherical polyhedron have no common point)
@pytest.mark.parametrize("m,n,old,new", [
    (6, 4, ("ideal", (1, 2, 3, 4)), ("finite", (1, 2, 3, 4))),
    (6, 4, ("finite", (0, 1, 4)), ("ultra_ideal", (0, 1, 3))),
    (5, 3, ("finite", (0, 1, 2)), ("finite", (0, 1, 2, 3, 4))),
])
def test_realize_rejects_a_misplaced_vertex(m, n, old, new, monkeypatch):
    p = build_presentation(m, n)
    lattice = tuple(v._replace(kind=new[0], faces=new[1])
                    if (v.kind, v.faces) == old else v for v in face_lattice(p))
    assert lattice != face_lattice(p)
    # realize reads the lattice through the coxeter module when it runs
    monkeypatch.setattr(coxeter, "face_lattice", lambda _: lattice)
    with pytest.raises(VerificationError, match="misplace"):
        realize(p)


def test_realization_keeps_float_gram():
    p = build_hyperbolic_presentation(6, 4)
    assert np.array_equal(realize(p).gram, p.gram_float())


def random_lorentz_transform(seed):
    """Random orthochronous Lorentz matrix by Gram-Schmidt for the form."""
    rng = np.random.default_rng(seed)
    while True:
        B = rng.normal(size=(4, 4))
        cols = []
        t = B[:, 0]
        if mdot(t, t) >= -1e-6:
            continue
        t = t / sqrt(-mdot(t, t))
        if t[3] < 0:
            t = -t
        cols.append(t)
        ok = True
        for k in range(1, 4):
            v = B[:, k]
            v = v + mdot(v, cols[0]) * cols[0]  # timelike: add projection
            for u in cols[1:]:
                v = v - mdot(v, u) * u
            qq = mdot(v, v)
            if qq <= 1e-9:
                ok = False
                break
            cols.append(v / sqrt(qq))
        if ok:
            return np.column_stack([cols[1], cols[2], cols[3], cols[0]])


def test_isometry_invariance():
    p = build_hyperbolic_presentation(6, 4)
    r = realize(p)
    T = random_lorentz_transform(11)
    assert np.max(np.abs(T.T @ J @ T - J)) < 1e-9
    moved = r._replace(normals=(T @ r.normals.T).T)
    before = sorted((i, j, k, round(v, 9))
                    for i, j, k, v in realized_angles(r))
    after = sorted((i, j, k, round(v, 9))
                   for i, j, k, v in realized_angles(moved))
    assert len(before) == len(after)
    for (bi, bj, bk, bv), (ai, aj, ak, av) in zip(before, after):
        assert (bi, bj, bk) == (ai, aj, ak)
        assert abs(bv - av) < 1e-9


# -- tiling angles -------------------------------------------------------------

def test_tiling_angles_66_exact():
    am, an = tiling_angles(6, 6)
    assert am == pi / 2 and an == pi / 2


def test_tiling_angles_64():
    am, an = tiling_angles(6, 4)
    assert abs(am - 2 * np.arctan(cos(pi / 6) / cos(pi / 4))) < 1e-15
    assert abs(am + an - pi) < 1e-15


def test_tiling_angles_swap():
    am, an = tiling_angles(7, 3)
    bm, bn = tiling_angles(3, 7)
    assert (am, an) == (bn, bm)


def test_tiling_angles_rejects_non_hyperbolic():
    with pytest.raises(GeometryError):
        tiling_angles(4, 4)
    with pytest.raises(GeometryError):
        tiling_angle_oracle(5, 3)


@pytest.mark.parametrize("m,n", [(6, 4), (7, 3), (5, 5), (12, 11), (9, 4)])
def test_oracle_agrees_with_closed_form(m, n):
    alpha = tiling_angle_oracle(m, n)
    am, _ = tiling_angles(m, n)
    assert abs(alpha - am) < 1e-12
    # the defining identity, from the oracle value alone
    assert abs(np.tan(alpha / 2) * cos(pi / n) - cos(pi / m)) < 1e-12


def test_polygon_construction_consistency():
    edge, angle = polygon_edge_and_angle(7, 0.8)
    assert abs(angle - 0.8) < 1e-9
    assert edge > 0


# -- drums ---------------------------------------------------------------------

def test_drum_66():
    d = build_drum(6, 6)
    assert abs(d.base_lateral - pi / 4) < 1e-12
    assert abs(d.lateral_lateral - pi / 2) < 1e-12
    assert len(d.cell.vertices) == 12
    for v in d.cell.vertices:
        assert classify_point(v) == "ideal"


def test_drum_64_both_sides():
    am, an = tiling_angles(6, 4)
    d4 = build_drum(6, 4, side=4)
    # the realizable drum uses the opposite polygon's angle at the bases:
    # base-lateral alpha_m/2, lateral-lateral alpha_n = pi - alpha_m
    assert abs(d4.base_lateral - am / 2) < 1e-12
    assert abs(d4.lateral_lateral - an) < 1e-12
    d6 = build_drum(6, 4, side=6)
    assert abs(d6.base_lateral - an / 2) < 1e-12
    assert abs(d6.lateral_lateral - am) < 1e-12


def test_drum_vertex_links_euclidean():
    for (m, n, side) in [(6, 4, 4), (6, 4, 6), (7, 3, 3), (7, 3, 7), (9, 9, 9)]:
        d = build_drum(m, n, side=side)
        assert abs(2 * d.base_lateral + d.lateral_lateral - pi) < 1e-12


def test_drum_symmetries():
    for (m, n, side) in [(6, 4, 4), (6, 6, 6), (7, 3, 7)]:
        d = build_drum(m, n, side=side)
        assert len(d.cell.isometries) == 4 * side
        assert drum_symmetries_ok(d)


def test_drum_symmetries_reject_perturbed_isometry():
    d = build_drum(6, 4, side=4)
    bent = list(d.cell.isometries)
    bent[3] = bent[3] @ np.diag([1.0, 1.0, 1.0 + 1e-6, 1.0])
    broken = d._replace(cell=d.cell._replace(isometries=tuple(bent)))
    assert drum_symmetries_ok(d)
    assert not drum_symmetries_ok(broken)


def test_drum_requires_hyperbolic():
    with pytest.raises(GeometryError):
        build_drum(4, 4)
    with pytest.raises(GeometryError):
        build_drum(6, 4, side=5)


def test_drum_bases_regular_ideal():
    # all vertices ideal, top ring on the base plane, and (with the common
    # horoball normalization) equal adjacent pairings = regular spacing
    d = build_drum(7, 3, side=7)
    top = d.cell.vertices[:7]
    base_normal = d.cell.normals[7]
    for v in top:
        assert abs(mdot(v, v)) < 1e-9
        assert abs(mdot(v, base_normal)) < 1e-9
    pairings = [mdot(top[k], top[(k + 1) % 7]) for k in range(7)]
    assert np.allclose(pairings, pairings[0], atol=1e-9)
    assert pairings[0] < 0


# -- Platonic cells -------------------------------------------------------------

def test_platonic_dihedrals():
    t = build_platonic_cell("tetrahedron")
    o = build_platonic_cell("octahedron")

    def dihedrals(cell):
        out = set()
        for i in range(len(cell.normals)):
            for j in range(i + 1, len(cell.normals)):
                c = -mdot(cell.normals[i], cell.normals[j])
                if abs(c) < 1 - 1e-9:
                    out.add(round(float(np.arccos(c)), 9))
        return out

    assert dihedrals(t) == {round(pi / 3, 9)}
    assert dihedrals(o) == {round(pi / 2, 9)}


def test_horoball_tangency_at_midpoints():
    for kind in ("tetrahedron", "octahedron"):
        cell = build_platonic_cell(kind)
        for (i, j) in cell.adjacency:
            p = edge_midpoint(cell, i, j)
            assert abs(mdot(p, p) + 1) < 1e-9
            assert abs(horoball_distance(p, cell.horoballs[i])) < 1e-9
            assert abs(horoball_distance(p, cell.horoballs[j])) < 1e-9


def test_midpoint_is_foot_of_perpendicular():
    """The tangency point is the edge midpoint in the triangle sense: the
    closest point of the edge to the horoball at the opposite vertex of an
    adjacent face, found here by direct numerical minimization."""
    cell = build_platonic_cell("tetrahedron")
    w = cell.horoballs
    i, j, k = 0, 1, 2  # face (0,1,2), edge (0,1), opposite vertex 2

    def edge_point(s):
        v = np.exp(s) * w[i] + np.exp(-s) * w[j]
        return v / sqrt(-mdot(v, v))

    ss = np.linspace(-3, 3, 20001)
    dists = [horoball_distance(edge_point(s), w[k]) for s in ss]
    s_best = ss[int(np.argmin(dists))]
    foot = edge_point(s_best)
    assert np.linalg.norm(foot - edge_midpoint(cell, i, j)) < 1e-3
    # polish by ternary search for a sharp comparison
    lo, hi = s_best - 0.01, s_best + 0.01
    for _ in range(100):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if horoball_distance(edge_point(m1), w[k]) < \
                horoball_distance(edge_point(m2), w[k]):
            hi = m2
        else:
            lo = m1
    foot = edge_point(0.5 * (lo + hi))
    # comparison-based minimization of a quadratic minimum localizes the
    # argmin only to about sqrt(machine eps); the 1e-9 tangency claim itself
    # is checked exactly at the midpoint in the tangency test above
    assert np.linalg.norm(foot - edge_midpoint(cell, i, j)) < 5e-8


def test_nonadjacent_horoballs_disjoint():
    o = build_platonic_cell("octahedron")
    adj = set(o.adjacency)
    for i in range(6):
        for j in range(i + 1, 6):
            gap = -mdot(o.horoballs[i], o.horoballs[j]) / 2
            if (i, j) in adj:
                assert abs(gap - 1) < 1e-12  # tangent
            else:
                assert gap > 1 + 1e-9        # disjoint (antipodal pair)


# -- basins ---------------------------------------------------------------------

def test_center_equidistant():
    center = np.array([0.0, 0.0, 0.0, 1.0])
    for cell in (build_platonic_cell("tetrahedron"),
                 build_platonic_cell("octahedron"),
                 build_drum(6, 4, side=4).cell):
        ds = [horoball_distance(center, w) for w in cell.horoballs]
        assert max(ds) - min(ds) < 1e-9


@pytest.mark.parametrize("make_cell", [
    lambda: build_platonic_cell("tetrahedron"),
    lambda: build_platonic_cell("octahedron"),
    lambda: build_drum(6, 6, side=6).cell,
    lambda: build_drum(6, 4, side=4).cell,
    lambda: build_drum(6, 4, side=6).cell,
])
def test_basins_no_violations(make_cell):
    rep = verify_basins(make_cell(), samples=2500, seed=0)
    assert rep.violations == 0
    assert rep.samples == 2500


@pytest.mark.parametrize("samples", [0, -3])
def test_basins_reject_nonpositive_samples(samples):
    with pytest.raises(DomainError):
        verify_basins(build_platonic_cell("tetrahedron"), samples=samples)


def test_basin_report_reproducible():
    cell = build_platonic_cell("octahedron")
    assert verify_basins(cell, 800, seed=5) == verify_basins(cell, 800, seed=5)
    r1 = verify_basins(cell, 800, seed=5)
    r2 = verify_basins(cell, 800, seed=6)
    assert r1.seed != r2.seed


def _reference_halton(count, start, base):
    """Radical inverses, one digit of every index per step."""
    idx = np.arange(start, start + count, dtype=np.int64)
    out = np.zeros(count)
    f = 1.0
    while idx.any():
        f /= base
        out += f * (idx % base)
        idx //= base
    return out


@pytest.mark.parametrize("start", [1, 2, 16383, 16384, 1 + 3 * 1_000_003,
                                   1 + 999 * 1_000_003, 2**40 + 17])
def test_halton_matches_digit_loop(start):
    for count in (1, 7, 8192, 40000):
        for base in (2, 3, 5):
            got = _halton(start, np.arange(count), base)
            assert got.tobytes() == _reference_halton(count, start, base).tobytes()


def full_scan_interior_points(cell, start, count):
    """_interior_points as a filter over every index of the window, kept as
    its reference: the sampler before it skipped the grid boxes that miss
    the cell."""
    # _halton is checked digit for digit against _reference_halton
    pts = np.stack([_halton(start, np.arange(count), 2),
                    _halton(start, np.arange(count), 3),
                    _halton(start, np.arange(count), 5)], axis=1) * 2 - 1
    r2 = np.einsum("ij,ij->i", pts, pts)
    pts = pts[r2 < 0.96]
    r2 = np.einsum("ij,ij->i", pts, pts)
    X = np.hstack([2 * pts / (1 - r2)[:, None],
                   ((1 + r2) / (1 - r2))[:, None]])
    return X[np.all(X @ J @ cell.normals.T < -1e-12, axis=1)]


def reference_basins(cell, samples, seed):
    """The basin sampler as a per-sample loop (an argsort and a sign test
    against every vertex for each point), kept as the reference for
    verify_basins."""
    w = cell.horoballs
    signs = np.sign(np.round(cell.vertices @ J @ cell.reflections.T, 12))
    kept = viol = near_wall = ambiguous = 0
    max_margin = 0.0
    start = 1 + seed * 1_000_003
    batch = max(4 * samples, 20000)
    while kept + near_wall + ambiguous < samples:
        X = full_scan_interior_points(cell, start, batch)
        start += batch
        prox = -(X @ J @ w.T)
        side = X @ J @ cell.reflections.T
        for row in range(len(X)):
            if kept + near_wall + ambiguous >= samples:
                break
            p = prox[row]
            order = np.argsort(p)
            gap = np.log(p[order[1]]) - np.log(p[order[0]])
            if gap < WALL_SKIP_TOL:
                near_wall += 1
                max_margin = max(max_margin, gap)
                continue
            # vertex i's basin: the same sign as i on every plane off i
            inside = np.all((signs * side[row] >= 0) | (signs == 0), axis=1)
            cands = np.flatnonzero(inside)
            if len(cands) != 1:
                ambiguous += 1
                continue
            kept += 1
            if cands[0] != order[0]:
                viol += 1
    return CanonicalCheckReport(cell.kind, samples, viol,
                                near_wall + ambiguous, WALL_SKIP_TOL, seed,
                                float(max_margin), near_wall, ambiguous)


def octahedron_one_plane():
    # one symmetry plane cannot single out one of six basins
    full = build_platonic_cell("octahedron")
    return full._replace(reflections=full.reflections[:1])


def octahedron_rolled_horoballs():
    # each horoball moved to the next vertex: every kept sample violates
    full = build_platonic_cell("octahedron")
    return full._replace(horoballs=np.roll(full.horoballs, 1, axis=0))


def octahedron_twin_horoballs():
    # horoball 1 replaced by horoball 0 moved about 1e-9 farther out: the
    # samples nearest to both lie within WALL_SKIP_TOL of a wall
    full = build_platonic_cell("octahedron")
    w = full.horoballs.copy()
    w[1] = w[0] * (1 + 1e-9)
    return full._replace(horoballs=w)


REFERENCE_CELLS = {
    "tetrahedron": lambda: build_platonic_cell("tetrahedron"),
    "octahedron": lambda: build_platonic_cell("octahedron"),
    # built by hand so that every count of the report is nonzero somewhere
    "octahedron, one plane": octahedron_one_plane,
    "octahedron, rolled horoballs": octahedron_rolled_horoballs,
    "octahedron, twin horoballs": octahedron_twin_horoballs,
    **{f"({m},{n}) drum({side})":
       (lambda m=m, n=n, side=side: build_drum(m, n, side=side).cell)
       for m, n in [(5, 7), (5, 10), (7, 9), (50, 49)] for side in (m, n)},
}


@pytest.mark.parametrize("samples", [1, 37, 2500, 20000])
@pytest.mark.parametrize("name", sorted(REFERENCE_CELLS))
def test_basins_match_per_sample_reference(name, samples):
    # 20000 samples take several BASIN_BATCH passes
    cell = REFERENCE_CELLS[name]()
    for seed in (0, 3, 999):
        assert verify_basins(cell, samples, seed) \
            == reference_basins(cell, samples, seed), (name, samples, seed)


@pytest.mark.parametrize("start", [1, 1 + 3 * 1_000_003, 2**40 + 17,
                                   2**70 + 5])
@pytest.mark.parametrize("name", sorted(REFERENCE_CELLS))
def test_interior_points_match_full_scan(name, start):
    # windows shorter than, just over and several times HALTON_PERIOD
    cell = REFERENCE_CELLS[name]()
    for count in (1, 777, HALTON_PERIOD + 5, 5 * HALTON_PERIOD - 3):
        assert _interior_points(cell, start, count).tobytes() \
            == full_scan_interior_points(cell, start, count).tobytes(), count


def test_interior_points_follow_changed_normals():
    # the residue table is cached by the normals, not by the cell's kind
    octahedron = build_platonic_cell("octahedron")
    tetrahedron = build_platonic_cell("tetrahedron")
    first = _interior_points(octahedron, 1, 50000)
    assert len(first) > 0
    swapped = octahedron._replace(normals=tetrahedron.normals)
    got = _interior_points(swapped, 1, 50000)
    assert got.tobytes() == full_scan_interior_points(swapped, 1, 50000).tobytes()
    assert got.tobytes() == _interior_points(tetrahedron, 1, 50000).tobytes()
    assert got.tobytes() != first.tobytes()
    # <X, e'> = (<X, e> - X4) / 2 < <X, e> / 2: more points pass face 0
    normals = octahedron.normals.copy()
    normals[0] = normals[0] * 0.5 + np.array([0.0, 0.0, 0.0, 0.5])
    moved = octahedron._replace(normals=normals)
    got = _interior_points(moved, 1, 50000)
    assert got.tobytes() == full_scan_interior_points(moved, 1, 50000).tobytes()
    assert len(got) > len(first)
    # face 0 reversed (e4 < 0): the region beyond it, where the box minimum
    # of f_e can sit at the vertex of a convex quadratic
    normals = octahedron.normals.copy()
    normals[0] = -normals[0]
    beyond = octahedron._replace(normals=normals)
    got = _interior_points(beyond, 1, 50000)
    assert got.tobytes() == full_scan_interior_points(beyond, 1, 50000).tobytes()
    assert len(got) > 0


def test_residue_table_keeps_box_of_interior_minimum():
    # one face with e4 < 0: its side {f_e < 0} is the ball of radius
    # r = 1/|e4| about p* = e'/e4, just outside the unit ball.  The box
    # holding q, deep in that cap, has p*'s first two coordinates inside it,
    # where the minimum of f_e sits; its ends alone would drop the box.
    r = 0.03
    direction = np.array([1 / 32, 0.0, 1.0])
    p_star = direction / np.linalg.norm(direction) * sqrt(1 + r * r)
    e = np.array([*(-p_star / r), -1 / r])
    assert abs(mdot(e, e) - 1) < 1e-9
    q = p_star * (1 - 0.8 * r / np.linalg.norm(p_star))
    assert q @ q < 0.96 and 2 * e[:3] @ q - e[3] * (1 + q @ q) < 0
    # the residue of q's box: the one index below HALTON_PERIOD in that box
    grid = np.array([32, 27, 25])
    pts = np.stack([_halton(0, np.arange(HALTON_PERIOD), base)
                    for base in (2, 3, 5)], axis=1) * 2 - 1
    boxes = np.floor((pts + 1) / 2 * grid)
    index = np.flatnonzero((boxes == np.floor((q + 1) / 2 * grid)).all(axis=1))
    assert len(index) == 1
    assert index[0] in _halton_residues(e[None, :].tobytes())


@pytest.mark.parametrize("make_cell", [
    lambda: build_platonic_cell("tetrahedron"),
    lambda: build_platonic_cell("octahedron"),
    lambda: build_drum(6, 6, side=6).cell,
    lambda: build_drum(6, 4, side=4).cell,
    lambda: build_drum(6, 4, side=6).cell,
])
def test_basin_report_pinned_seed_0(make_cell):
    # the acceptance cells at 10^4 samples, as reported before the sampler
    # was vectorized
    cell = make_cell()
    assert verify_basins(cell, samples=10000, seed=0) == CanonicalCheckReport(
        cell.kind, samples=10000, violations=0, skipped=0,
        tolerance=WALL_SKIP_TOL, seed=0, max_margin_at_walls=0.0,
        skipped_near_wall=0, skipped_ambiguous=0)


def test_basins_partial_reflections_skip_as_ambiguous():
    rep = verify_basins(octahedron_one_plane(), samples=500, seed=0)
    assert rep.skipped_ambiguous > 0
    assert rep.skipped_near_wall + rep.skipped_ambiguous == rep.skipped
    assert rep.json_dict()["skipped_ambiguous"] == rep.skipped_ambiguous
    assert not rep.passed


def test_basins_count_violations_and_wall_skips():
    rolled = verify_basins(octahedron_rolled_horoballs(), samples=500)
    assert rolled.violations == 500 and not rolled.passed
    twin = verify_basins(octahedron_twin_horoballs(), samples=500)
    assert twin.skipped_near_wall > 0 and twin.skipped_ambiguous == 0
    assert 0 < twin.max_margin_at_walls < WALL_SKIP_TOL
    assert twin.json_dict()["skipped_near_wall"] == twin.skipped
    assert not twin.passed


def octahedron_without_interior():
    # faces 0 and 1 bound opposite half-spaces: the residue table still
    # keeps boxes that meet each face alone, but no point passes both
    full = build_platonic_cell("octahedron")
    normals = full.normals.copy()
    normals[1] = -normals[0]
    return full._replace(normals=normals)


def test_basins_cell_without_interior_raises():
    import time
    cell = octahedron_without_interior()
    assert len(_halton_residues(cell.normals.tobytes())) > 0
    t0 = time.perf_counter()
    with pytest.raises(VerificationError, match="no interior point"):
        verify_basins(cell, samples=10, seed=0)
    assert time.perf_counter() - t0 < 1.0


def test_basin_report_passed_needs_evidence():
    ok = verify_basins(build_platonic_cell("tetrahedron"), samples=200)
    assert ok.passed
    assert not ok._replace(violations=1).passed
    # every sample skipped: nothing kept
    assert not ok._replace(skipped=200, skipped_near_wall=200).passed
    # 1 % of the samples skipped is allowed, one more is not
    assert ok._replace(skipped=2, skipped_near_wall=2).passed
    assert not ok._replace(skipped=3, skipped_ambiguous=3).passed


def test_basin_walls_lie_in_symmetry_planes():
    """Bisector crossings between adjacent basins sit on reflection planes."""
    cell = build_platonic_cell("octahedron")
    w = cell.horoballs
    rng = np.random.default_rng(3)
    found = 0
    for _ in range(200):
        a = random_unit_point(rng, 0.3)
        b = random_unit_point(rng, 0.3)
        da = np.array([-mdot(a, wi) for wi in w])
        db = np.array([-mdot(b, wi) for wi in w])
        ia, ib = int(np.argmin(da)), int(np.argmin(db))
        if ia == ib:
            continue

        def top_gap(t):
            x = (1 - t) * a + t * b
            x = x / sqrt(-mdot(x, x))
            d = np.array([-mdot(x, wi) for wi in w])
            return d[ia] - d[ib], x

        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            g, _ = top_gap(mid)
            if g < 0:
                lo = mid
            else:
                hi = mid
        _, crossing = top_gap(0.5 * (lo + hi))
        dist_to_planes = min(abs(mdot(crossing, u)) for u in cell.reflections)
        assert dist_to_planes < 1e-8
        found += 1
    assert found > 10


def test_gluing_angles():
    assert verify_gluing_angles(6, 6)
    assert verify_gluing_angles(6, 4)
    assert verify_gluing_angles(7, 3)
    for m in range(3, 13):
        for n in range(3, 13):
            if 1 / m + 1 / n < 0.5:
                assert verify_gluing_angles(m, n)
