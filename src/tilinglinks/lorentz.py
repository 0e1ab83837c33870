"""Numerical hyperboloid-model geometry: polyhedron realizations, regular
ideal drums and Platonic cells, horoball data, and canonical-decomposition
spot checks.

Conventions.  R^4 carries the bilinear form <x,y> = x1 y1 + x2 y2 + x3 y3
- x4 y4; hyperbolic space is the sheet q(x) = -1, x4 > 0.  A plane is the
orthogonal complement of a unit spacelike normal e (q(e) = 1); for outward
normals of adjacent faces the interior dihedral angle satisfies
cos(angle) = -<e_i, e_j>, and disjoint planes have cosh(dist) = -<e_i, e_j>.
A horoball is encoded by a future null vector w scaled so its boundary is
{x : <x, w> = -1}; then d(x, H_w) = log(-<x, w>) for unit x (signed inside).
The formula is validated against an independent upper-half-space computation
in the test suite.

The vertex kinds and incidences of a realization come from the exact face
lattice (`coxeter.face_lattice`); everything else this module computes is
floating point at tolerance 1e-9.  Geometry objects are immutable after
construction, and the sampling verifier only reads shared state, so all of
this is safe under concurrent use.
"""

from __future__ import annotations

from functools import lru_cache
from math import atan, cos, pi, sin, sqrt, tan
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .errors import DomainError, GeometryError, VerificationError

TOL = 1e-9
WALL_SKIP_TOL = 1e-8
J = np.diag([1.0, 1.0, 1.0, -1.0])

if TYPE_CHECKING:
    from .coxeter import CoxeterPresentation


def mdot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] - u[3] * v[3]


def classify_point(v):
    """'finite' (q<0), 'ideal' (q~0) or 'ultra_ideal' (q>0) after unit-norm
    scaling."""
    v = np.asarray(v, float)
    nv = v / np.linalg.norm(v)
    q = mdot(nv, nv)
    if q < -TOL:
        return "finite"
    if q > TOL:
        return "ultra_ideal"
    return "ideal"


class LorentzVector(NamedTuple):
    coords: tuple[float, float, float, float]
    kind: str


# -- tiling angles -----------------------------------------------------------

def tiling_angles(m: int, n: int) -> tuple[float, float]:
    """Interior angles (alpha_m, alpha_n) of the two regular polygons in the
    [m,n,m,n] tiling: equal edge lengths and alpha_m + alpha_n = pi force
    tan(alpha_m / 2) = cos(pi/m) / cos(pi/n)."""
    from .coxeter import geometry_of
    if geometry_of(m, n) != "Hyperbolic":
        raise GeometryError(f"({m},{n}) is not hyperbolic")
    if m == n:
        return pi / 2, pi / 2
    if m < n:  # evaluate on the normalized order so swapping is exact
        an, am = tiling_angles(n, m)
        return am, an
    am = 2 * atan(cos(pi / m) / cos(pi / n))
    return am, pi - am


def regular_polygon_vertices(p: int, alpha: float) -> np.ndarray:
    """Vertices of the regular hyperbolic p-gon with interior angle alpha,
    centered on the axis in the x1x2-plane."""
    prod = cos(pi / p) / tan(alpha / 2) / sin(pi / p)  # cot(pi/p) cot(alpha/2)
    if prod <= 1:
        raise GeometryError("no hyperbolic polygon with this angle")
    R = np.arccosh(prod)
    return np.array([[np.sinh(R) * cos(2 * pi * k / p),
                      np.sinh(R) * sin(2 * pi * k / p), 0.0, np.cosh(R)]
                     for k in range(p)])


def polygon_edge_and_angle(p: int, alpha: float) -> tuple[float, float]:
    """Edge length and measured vertex angle of the constructed p-gon."""
    vs = regular_polygon_vertices(p, alpha)
    edge = np.arccosh(-mdot(vs[0], vs[1]))

    def unit_tangent(x, y):
        u = y + mdot(x, y) * x
        return u / sqrt(mdot(u, u))

    t1 = unit_tangent(vs[0], vs[1])
    t2 = unit_tangent(vs[0], vs[-1])
    ang = np.arccos(np.clip(mdot(t1, t2), -1, 1))
    return float(edge), float(ang)


def tiling_angle_oracle(m: int, n: int) -> float:
    """Independent derivation of alpha_m: bisect for the angle at which the
    constructed regular m-gon and n-gon (angles summing to pi) share an edge
    length.  Uses polygon construction only, not the closed form."""
    from .coxeter import geometry_of
    if geometry_of(m, n) != "Hyperbolic":
        raise GeometryError(f"({m},{n}) is not hyperbolic")
    lo = 2 * pi / n + 1e-12   # n-gon with angle pi-a exists iff a > 2*pi/n
    hi = pi - 2 * pi / m - 1e-12

    def gap(a):
        em, am_meas = polygon_edge_and_angle(m, a)
        en, _ = polygon_edge_and_angle(n, pi - a)
        return em - en

    # edge of the m-gon shrinks as its angle grows, edge of the n-gon grows
    for _ in range(80):  # far past float resolution of the bracket
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    _, measured = polygon_edge_and_angle(m, alpha)
    if abs(measured - alpha) > 1e-9:
        raise VerificationError("constructed polygon angle drifted")
    return alpha


# -- polyhedron realization --------------------------------------------------

class PolyhedronRealization(NamedTuple):
    presentation: CoxeterPresentation
    normals: np.ndarray                 # one outward unit normal per face
    vertices: tuple[LorentzVector, ...]
    incidence: tuple[tuple[int, ...], ...]  # faces through each vertex
    gram: np.ndarray                    # the presentation's Gram, in floats

    def recomputed_gram(self) -> np.ndarray:
        E = self.normals
        return 2 * (E @ J @ E.T)


def realize(p: CoxeterPresentation) -> PolyhedronRealization:
    """Factor gram/2 = N J N^T through the nonzero eigenpairs; rows of N are
    the face normals.  Each vertex of `face_lattice` is placed as the null
    vector of its faces' rows; its float kind must be its exact kind, and it
    must lie on its faces and inside the others to within TOL."""
    from .coxeter import face_lattice, rank_and_signature
    rank_and_signature(p)
    G = p.gram_float()
    A = G / 2
    s = A.shape[0]
    evals, evecs = np.linalg.eigh(A)
    order = np.argsort(evals)
    neg, zero, pos = order[0], order[1:s - 3], order[s - 3:]
    if evals[neg] >= -TOL or any(abs(evals[z]) > 1e-7 for z in zero) \
            or any(evals[q] <= TOL for q in pos):
        raise GeometryError("gram/2 does not have signature (3,1) plus kernel")
    cols = list(pos) + [neg]
    N = np.zeros((s, 4))
    for out_col, col in enumerate(cols):
        N[:, out_col] = evecs[:, col] * sqrt(abs(evals[col]))
    # interior reference point: least-squares solve <x, e_i> = -1
    x0, *_ = np.linalg.lstsq(N @ J, -np.ones(s), rcond=None)
    if mdot(x0, x0) >= 0 or any((N @ J @ x0) > -1e-9):
        raise VerificationError("no interior reference point found")
    if x0[3] < 0:  # fix global time orientation (T J T = J keeps products)
        N[:, 3] *= -1
    err = np.max(np.abs(2 * (N @ J @ N.T) - G))
    if err > 1e-8:
        raise VerificationError(f"normals fail to reproduce the Gram matrix ({err})")

    lattice = face_lattice(p)
    verts = []
    for v in lattice:
        span = [f for f in v.faces if f != v.truncation]
        x = np.linalg.svd(N[span] @ J)[2][-1]  # spans the rows' null space
        # future pointing; an ultra-ideal vertex is its truncation's pole
        if (x[3] if v.truncation is None else mdot(x, N[v.truncation])) < 0:
            x = -x
        sides = N @ J @ x
        if (classify_point(x) != v.kind or np.abs(sides[span]).max() > TOL
                or any(sides[f] > TOL for f in range(s) if f != v.truncation)):
            raise VerificationError(f"the realized normals misplace the {v.kind} "
                                    f"vertex on faces {[f + 1 for f in v.faces]}")
        verts.append(LorentzVector(tuple(float(c) for c in x), v.kind))
    return PolyhedronRealization(p, N, tuple(verts),
                                 tuple(v.faces for v in lattice), G)


def realized_angles(r: PolyhedronRealization):
    """(i, j, kind, value): dihedral angles of intersecting face pairs
    (right angles included) and cosh-distances of ultraparallel pairs, from
    the realized normals."""
    out = []
    s = len(r.normals)
    for i in range(s):
        for j in range(i + 1, s):
            c = -mdot(r.normals[i], r.normals[j])
            if c < 1 - 1e-9:
                out.append((i + 1, j + 1, "angle", float(np.arccos(np.clip(c, -1, 1)))))
            elif abs(c - 1) <= 1e-9:
                out.append((i + 1, j + 1, "ideal", 0.0))
            else:
                out.append((i + 1, j + 1, "ultraparallel", float(c)))
    return out


# -- ideal cells: drums and Platonic solids ---------------------------------

class IdealCell(NamedTuple):
    """A regular ideal cell with equivariant horoballs.

    vertices are null rows; horoballs are the same rows rescaled to the
    chosen cusp normalization; reflections are unit spacelike normals of the
    symmetry planes used to cut basins; adjacency lists the edges.
    """
    kind: str
    vertices: np.ndarray
    normals: np.ndarray
    horoballs: np.ndarray
    reflections: np.ndarray
    adjacency: tuple[tuple[int, int], ...]
    isometries: tuple[np.ndarray, ...] = ()


class DrumGeometry(NamedTuple):
    cell: IdealCell
    m: int
    n: int
    side: int                      # number of base edges
    tiling_angles: tuple[float, float]
    base_lateral: float
    lateral_lateral: float


def build_drum(m: int, n: int, side: Optional[int] = None) -> DrumGeometry:
    """Regular ideal drum over the side-gon of the hyperbolic [m,n,m,n]
    tiling.

    The lateral-lateral dihedral equals the tiling angle of the drum's own
    polygon and the base-lateral dihedral is half the opposite polygon's
    angle; with alpha_side in (2*pi/side, pi - 2*pi/side) this is the unique
    regular ideal drum, and that window is exactly the hyperbolic range.
    """
    am, an = tiling_angles(m, n)
    side = n if side is None else side
    if side == n:
        alpha_self, alpha_other = an, am
    elif side == m:
        alpha_self, alpha_other = am, an
    else:
        raise GeometryError(f"side must be {m} or {n}")
    th = 2 * pi / side
    t2 = (cos(th) + cos(alpha_self)) / (1 - cos(th))
    if t2 <= 0:
        raise GeometryError("drum does not exist: lateral tilt is imaginary")
    t, r = sqrt(t2), sqrt(1 + t2)
    beta = alpha_other / 2     # = (pi - alpha_self)/2, base-lateral dihedral
    c = cos(beta) / t
    a = sqrt(1 + c * c)
    lateral = np.array([[r * cos((k + 0.5) * th), r * sin((k + 0.5) * th), 0.0, t]
                        for k in range(side)])
    bases = np.array([[0.0, 0.0, a, c], [0.0, 0.0, -a, c]])
    normals = np.vstack([lateral, bases])

    verts = []
    for b in bases:
        for k in range(side):
            M = np.array([b @ J, lateral[k - 1] @ J, lateral[k] @ J])
            _, _, vt = np.linalg.svd(M)
            v = vt[-1]
            if v[3] < 0:
                v = -v
            q = mdot(v, v)
            if abs(q) > 1e-9 * (v @ v):
                raise VerificationError("drum vertex is not ideal")
            verts.append(v / v[3])
    verts = np.array(verts)

    adjacency = []
    for k in range(side):  # base edges
        adjacency.append((k, (k + 1) % side))
        adjacency.append((side + k, side + (k + 1) % side))
    for k in range(side):  # vertical edges
        adjacency.append((k, side + k))

    reflections = []
    for k in range(side):
        phi = pi * k / side
        reflections.append(np.array([-sin(phi), cos(phi), 0.0, 0.0]))
    reflections.append(np.array([0.0, 0.0, 1.0, 0.0]))

    isometries = []
    for k in range(side):
        for refl in (False, True):
            for flip in (1.0, -1.0):
                g = np.zeros((4, 4))
                ang = 2 * pi * k / side
                cA, sA = cos(ang), sin(ang)
                if refl:
                    g[:2, :2] = [[cA, sA], [sA, -cA]]
                else:
                    g[:2, :2] = [[cA, -sA], [sA, cA]]
                g[2, 2] = flip
                g[3, 3] = 1.0
                isometries.append(g)

    cell = IdealCell(f"drum({side})", verts, normals, verts.copy(),
                     np.array(reflections), tuple(adjacency),
                     tuple(isometries))
    bl = float(np.arccos(-mdot(bases[0], lateral[0])))
    ll = float(np.arccos(-mdot(lateral[0], lateral[1])))
    return DrumGeometry(cell, m, n, side, (am, an), bl, ll)


def build_platonic_cell(kind: str) -> IdealCell:
    """Regular ideal tetrahedron or octahedron with horoballs expanded to be
    pairwise tangent at edge midpoints (<w_i, w_j> = -2 on edges)."""
    if kind == "tetrahedron":
        dirs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                        float) / sqrt(3)
        verts = np.hstack([dirs, np.ones((4, 1))])
        face_triples = [tuple(j for j in range(4) if j != i) for i in range(4)]
        adjacency = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    elif kind == "octahedron":
        dirs = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                         [0, 0, 1], [0, 0, -1]], float)
        verts = np.hstack([dirs, np.ones((6, 1))])
        face_triples = [(0 if sx > 0 else 1, 2 if sy > 0 else 3, 4 if sz > 0 else 5)
                        for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
        adjacency = [(i, j) for i in range(6) for j in range(i + 1, 6)
                     if abs(dirs[i] @ dirs[j]) < 1e-12]
    else:
        raise GeometryError(f"unknown cell kind {kind!r}")

    i0, j0 = adjacency[0]
    lam = sqrt(2 / -mdot(verts[i0], verts[j0]))
    horo = verts * lam
    for (i, j) in adjacency:
        if abs(mdot(horo[i], horo[j]) + 2) > 1e-12:
            raise VerificationError("edge orbit is not equinormalized")

    normals = []
    center = np.array([0.0, 0.0, 0.0, 1.0])
    for tri in face_triples:
        M = np.array([verts[i] @ J for i in tri])
        _, _, vt = np.linalg.svd(M)
        nrm = vt[-1]
        nrm = nrm / sqrt(abs(mdot(nrm, nrm)))
        if mdot(center, nrm) > 0:
            nrm = -nrm
        normals.append(nrm)

    # vertex-pair bisectors; for these cells each one is a symmetry plane
    refl = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            u = horo[i] - horo[j]
            u = u / sqrt(mdot(u, u))
            if not any(abs(abs(mdot(u, v))) > 1 - 1e-9 for v in refl):
                refl.append(u)
    for u in refl:
        R = np.eye(4) - 2 * np.outer(u, J @ u)  # x -> x - 2<x,u>u
        image = (R @ verts.T).T
        for v in image:
            if not any(np.linalg.norm(v / v[3] - w / w[3]) < 1e-9 for w in verts):
                raise VerificationError("bisector plane is not a cell symmetry")

    return IdealCell(kind, verts, np.array(normals), horo,
                     np.array(refl), tuple(adjacency))


# -- sampling verification ---------------------------------------------------

# Candidate Halton indices evaluated per pass of the basin sampler, about:
# a pass's arrays are at most about (BASIN_BATCH x vertices), so memory does
# not grow with the sample count.
BASIN_BATCH = 8192
# A basin check passes only if at most this fraction of its samples was
# skipped (near a wall or with an ambiguous sign pattern).
MAX_SKIP_FRACTION = 0.01
# Size bound of the per-base table of low-digit radical inverses.
HALTON_TABLE = 1 << 14
# (base, digits) of each ball coordinate's grid: 32 x 27 x 25 boxes, one per
# residue of the Halton index mod HALTON_PERIOD (see _halton_residues).
HALTON_GRID = ((2, 5), (3, 3), (5, 2))
HALTON_PERIOD = 2**5 * 3**3 * 5**2


@lru_cache(maxsize=None)
def _halton_low_digits(base):
    """(table, span, f): the radical inverses of 0..span-1, where
    span = base**t is the largest power of `base` up to HALTON_TABLE, and
    f = base**-t, the digit weight they end on.  Built digit by digit,
    lowest first, like the high digits in _halton, so a table entry is the
    exact partial sum _halton continues."""
    span = base
    while span * base <= HALTON_TABLE:
        span *= base
    idx = np.arange(span)
    out = np.zeros(span)
    f = 1.0
    while idx.any():
        f /= base
        idx, digit = np.divmod(idx, base)
        out += f * digit
    out.flags.writeable = False  # shared by every caller through the cache
    return out, span, f


def _halton(start, offsets, base):
    """Radical inverses in `base` of the indices start + offsets, for an
    int `start` of any size and sorted non-negative int64 `offsets`.

    Each is the sum over its digits, lowest first, of digit * base**-k with
    the weight formed by repeated division.  The low digits come from a
    table; the high ones are the same over each run of indices that agree
    past the table's `span`, so they are added run by run.
    """
    table, span, f_low = _halton_low_digits(base)
    high, low = divmod(start, span)
    run, pos = np.divmod(offsets + low, span)
    out = table[pos]
    runs, begins = np.unique(run, return_index=True)
    for k, b, e in zip(runs.tolist(), begins.tolist(),
                       [*begins[1:].tolist(), len(run)]):
        x, f = high + k, f_low
        while x:
            f /= base
            x, digit = divmod(x, base)
            out[b:e] += f * digit
    return out


def _digit_reversal(base, digits):
    """rev[r] = r with its `digits` base-`base` digits in reverse order."""
    idx = np.arange(base ** digits)
    rev = np.zeros_like(idx)
    for _ in range(digits):
        idx, digit = np.divmod(idx, base)
        rev = rev * base + digit
    return rev


@lru_cache(maxsize=32)
def _halton_residues(normals_bytes):
    """Sorted residues mod HALTON_PERIOD of the Halton indices whose point
    can pass _interior_points' filter for the cell with these face normals
    (the float64 bytes of `cell.normals`, rows of 4).

    Digit reversal: phi_b(i) lies in [j/b^t, (j+1)/b^t) exactly when
    i mod b^t = rev_t(j).  So each box of the HALTON_GRID in ball
    coordinates x = 2 phi - 1 is the set of indices with one residue mod
    each b^t, i.e. (Chinese remainder theorem) one residue mod
    HALTON_PERIOD.  A box is dropped only when every point of it provably
    fails the filter: min |p|^2 >= 0.96 over it, or, for some face normal
    e = (e', e4), f_e(p) = 2 e'.p - e4 (1 + |p|^2) is positive all over it.
    f_e carries the sign of <X, e> for the point X of p, since
    <X, e> = f_e(p) / (1 - |p|^2).  f_e is a sum of one quadratic per
    coordinate, so its minimum over a box is exact: per axis, the least of
    the two ends and the clipped vertex.

    Margins, against float rounding: the drawn coordinate 2 fl(phi) - 1 is
    within 1e-15 of the exact one, so boxes are padded by 1e-9.  The filter
    evaluates |p|^2 to about 1e-16, so the radius test keeps a box up to
    0.96 + 1e-9.  It evaluates <X, e> with |X| < 49 (where |p|^2 < 0.96)
    to within about 1e-12 (1 + sum |e_k|); a box is dropped for face e only
    when min f_e >= 1e-9 (1 + sum |e_k|), where <X, e> >= f_e is at least
    that large, so such a point fails the filter in floats too.
    """
    normals = np.frombuffer(normals_bytes).reshape(-1, 4)
    axes = []
    for base, digits in HALTON_GRID:
        n = base ** digits
        j = np.arange(n + 1) * 2 / n - 1  # the n + 1 box ends on this axis
        axes.append((j[:-1] - 1e-9, j[1:] + 1e-9))

    def box_sum(per_axis):
        a, b, c = per_axis
        return a[:, None, None] + b[None, :, None] + c[None, None, :]

    keep = box_sum([np.where((lo <= 0) & (hi >= 0), 0.0,
                             np.minimum(lo * lo, hi * hi))
                    for lo, hi in axes]) < 0.96 + 1e-9
    for e in normals:
        e4 = e[3]
        mins = []
        for ek, (lo, hi) in zip(e[:3], axes):
            def g(p):
                return (2 * ek - e4 * p) * p
            m = np.minimum(g(lo), g(hi))
            if e4 < 0:  # convex: the vertex ek / e4 may lie inside
                m = np.minimum(m, g(np.clip(ek / e4, lo, hi)))
            mins.append(m)
        keep &= box_sum(mins) - e4 < 1e-9 * (1 + np.abs(e).sum())
    idx = np.arange(HALTON_PERIOD)
    box = tuple(_digit_reversal(base, digits)[idx % base ** digits]
                for base, digits in HALTON_GRID)
    out = np.flatnonzero(keep[box])
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def _interior_points(cell, start, count):
    """Unit hyperboloid points for the Halton indices start..start+count-1
    that fall inside the cell, in index order.

    Only the indices whose residue mod HALTON_PERIOD is in the cell's
    _halton_residues are drawn; every other index provably fails the
    filter, so the points are those of filtering the whole range.
    """
    residues = _halton_residues(cell.normals.tobytes())
    first = np.sort((residues - start % HALTON_PERIOD) % HALTON_PERIOD)
    periods = np.arange(-(-count // HALTON_PERIOD)) * HALTON_PERIOD
    offsets = (periods[:, None] + first).ravel()
    offsets = offsets[:np.searchsorted(offsets, count)]
    pts = np.stack([_halton(start, offsets, base)
                    for base, _ in HALTON_GRID], axis=1) * 2 - 1
    r2 = np.einsum("ij,ij->i", pts, pts)
    pts = pts[r2 < 0.96]
    r2 = np.einsum("ij,ij->i", pts, pts)
    X = np.hstack([2 * pts / (1 - r2)[:, None],
                   ((1 + r2) / (1 - r2))[:, None]])
    return X[np.all(X @ J @ cell.normals.T < -1e-12, axis=1)]


class CanonicalCheckReport(NamedTuple):
    cell: str
    samples: int
    violations: int
    skipped: int
    tolerance: float
    seed: int
    max_margin_at_walls: float
    skipped_near_wall: int
    skipped_ambiguous: int

    @property
    def passed(self) -> bool:
        """No violation, at least one kept sample, and at most
        MAX_SKIP_FRACTION of the samples skipped."""
        return (self.violations == 0 and self.samples > self.skipped
                and self.skipped <= MAX_SKIP_FRACTION * self.samples)

    def json_dict(self):
        return {"cell": self.cell, "samples": self.samples,
                "violations": self.violations, "skipped": self.skipped,
                "skipped_near_wall": self.skipped_near_wall,
                "skipped_ambiguous": self.skipped_ambiguous,
                "tolerance": self.tolerance, "seed": self.seed,
                "max_margin_at_walls": self.max_margin_at_walls}


def verify_basins(cell: IdealCell, samples: int = 10000,
                  seed: int = 0) -> CanonicalCheckReport:
    """Check that the nearest horoball agrees with the basin cut out by the
    symmetry planes, over quasi-random interior points.

    Points come from a Halton sequence in the ball model's cube [-1, 1]^3,
    filtered to the cell's interior; `seed` offsets the sequence.  The first
    `samples` interior points are used.  The sequence is walked in windows
    sized so that each evaluates about BASIN_BATCH candidate indices: those
    whose grid box can meet the cell (_halton_residues).  A sample is
    skipped, and counted by reason, when its top-two horoball distance gap
    is below WALL_SKIP_TOL (`skipped_near_wall`; `max_margin_at_walls` is
    the largest such gap) or when its reflection signs place it in no basin
    or in more than one (`skipped_ambiguous`).  Every other sample is kept,
    and is a violation when its basin is not its nearest horoball.  A
    window that keeps no interior point raises VerificationError: about
    BASIN_BATCH candidates all outside means a cell without an interior the
    sampler can reach, so the walk would never end.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if seed < 0:  # a negative Halton index never runs out of digits
        raise DomainError(f"seed must be >= 0, got {seed}")
    w = cell.horoballs
    signs = np.sign(np.round(cell.vertices @ J @ cell.reflections.T, 12))
    # a point lies in vertex i's basin iff no plane separates their signs.
    # The separating planes are counted in float32 so that the products run
    # in BLAS; a count is a sum of at most (number of planes) ones, far
    # below 2**24, so every partial sum is exact in any order.
    pos = (signs > 0).T.astype(np.float32)
    neg = (signs < 0).T.astype(np.float32)
    done = viol = near_wall = ambiguous = 0
    max_margin = 0.0
    start = 1 + seed * 1_000_003
    per_period = len(_halton_residues(cell.normals.tobytes()))
    window = max(1, HALTON_PERIOD * BASIN_BATCH // max(1, per_period))
    while done < samples:
        X = _interior_points(cell, start, window)[:samples - done]
        if not len(X):
            raise VerificationError(
                f"no interior point of {cell.kind} among the Halton indices "
                f"{start}..{start + window - 1}")
        start += window
        done += len(X)
        XJ = X @ J                     # exact: J is diag(1, 1, 1, -1)
        prox = -(XJ @ w.T)             # -<x, w_i>, monotone in distance
        # the two smallest values; where their gap is kept, the nearest
        # horoball is unique
        top2 = np.partition(prox, 1, axis=1)
        gap = np.log(top2[:, 1]) - np.log(top2[:, 0])
        wall = gap < WALL_SKIP_TOL
        side = XJ @ cell.reflections.T
        basin = ((side < 0).astype(np.float32) @ pos
                 + (side > 0).astype(np.float32) @ neg) == 0
        single = basin.sum(axis=1) == 1
        ok = single & ~wall
        near_wall += int(wall.sum())
        ambiguous += int((~single & ~wall).sum())
        viol += int((basin[ok].argmax(axis=1)
                     != prox[ok].argmin(axis=1)).sum())
        if wall.any():
            max_margin = max(max_margin, float(gap[wall].max()))
    return CanonicalCheckReport(cell.kind, samples, viol,
                                near_wall + ambiguous, WALL_SKIP_TOL, seed,
                                max_margin, near_wall, ambiguous)


def drum_symmetries_ok(d: DrumGeometry) -> bool:
    """All 4n candidate isometries permute the vertex set within 10 TOL."""
    V = d.cell.vertices
    for g in d.cell.isometries:
        img = (g @ V.T).T
        dist = np.linalg.norm(img[:, None, :] - V[None, :, :], axis=2)
        if not np.all(np.any(dist < TOL * 10, axis=1)):
            return False
    return True


def verify_gluing_angles(m: int, n: int) -> bool:
    """Edge-class angle sums of the drum decomposition equal 2*pi.

    At crossing edges the four base-lateral wedges of the two drum types sum
    to pi per side of the checkerboard surfaces and double to 2*pi; around
    vertical edges the two lateral-lateral contributions per type double to
    2*pi as well.  Angles are measured from the constructed drums.
    """
    dm = build_drum(m, n, side=m)
    dn = build_drum(m, n, side=n)
    crossing = 2 * (2 * dm.base_lateral + 2 * dn.base_lateral)
    vertical = 2 * (dm.lateral_lateral + dn.lateral_lateral)
    return abs(crossing - 2 * pi) < TOL and abs(vertical - 2 * pi) < TOL
