"""Coxeter diagrams and exact Gram matrices for right-angled tiling links.

For a vertex pattern [m,n,m,n] on a higher-genus surface, the reflection
quotient is bounded by six planes: F1 carries both angle edges (labels m and
n to F2 and F3), F4 and F5 meet F2 and F3 at ideal vertices, and F6 is the
truncation plane, ultraparallel to F4 and F5 at exact cosh-distances.  The
spherical patterns [3,3], [4,3], [5,3] use the five-plane analogue with
finite apexes and no truncation plane.

Gram convention: diagonal entries are exactly 2; an angle pi/k contributes
-2cos(pi/k), a shared ideal vertex contributes -2, and an ultraparallel pair
at distance l contributes -2cosh(l).

Everything in this module is pure; presentations and field contexts memoize
derived values with `cached_property`, and a concurrent first use may compute
such a value twice, with the same result.  The records are immutable
NamedTuples; `_replace` makes a modified copy, with a fresh cache.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from math import copysign, hypot, lcm, sqrt
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError, GeometryError, VerificationError
from .fields import (AlgebraicNumber, FieldContext, _json_dict, adjoin_sqrt,
                     embed_cos, make_context)

SPHERICAL_TYPES = {(3, 3), (4, 3), (5, 3)}
EUCLIDEAN_TYPES = {(4, 4), (6, 3)}
_JACOBI_SWEEPS = 50  # convergence is quadratic: the Grams here take 5-7


def geometry_of(m: int, n: int) -> str:
    """Spherical / Euclidean / Hyperbolic according to 1/m + 1/n vs 1/2,
    i.e. 2(m + n) vs m*n."""
    if not (isinstance(m, int) and isinstance(n, int)) or m < 3 or n < 3:
        raise DomainError(f"tiling parameters must be integers >= 3, got ({m}, {n})")
    lhs, rhs = 2 * (m + n), m * n
    if lhs > rhs:
        return "Spherical"
    if lhs == rhs:
        return "Euclidean"
    return "Hyperbolic"


class TilingType(NamedTuple):
    m: int
    n: int
    geometry: str

    @staticmethod
    def of(m: int, n: int) -> "TilingType":
        return TilingType(m, n, geometry_of(m, n))


class Edge(NamedTuple):
    """Labeled Coxeter-diagram edge between faces i and j (1-based)."""
    i: int
    j: int
    kind: str  # "angle" | "ideal" | "ultraparallel"
    order: Optional[int] = None                 # angle pi/order
    cosh_dist: Optional[AlgebraicNumber] = None  # exact cosh of the distance


class _PresentationFields(NamedTuple):
    m: int
    n: int
    family: str  # "hyperbolic" | "spherical"
    faces: tuple[str, ...]
    edges: tuple[Edge, ...]
    gram: tuple[tuple[AlgebraicNumber, ...], ...]
    ctx: FieldContext


class CoxeterPresentation(_PresentationFields):
    """A Coxeter diagram and its exact Gram matrix; the subclass keeps a
    `__dict__` for the cached `_certified`, `_cycles` and `_float_gram`."""

    @property
    def size(self) -> int:
        return len(self.faces)

    def gram_float(self) -> "numpy.ndarray":
        import numpy as np  # float geometry only: keeps numpy off exact paths
        return np.array(self._float_gram)

    @cached_property
    def _certified(self):
        """`_certify(self)`, once: the only way to the K0 Gram and inertia."""
        return _certify(self)

    @cached_property
    def _cycles(self):
        return _cyclic_products(self)

    @cached_property
    def _float_gram(self) -> tuple[tuple[float, ...], ...]:
        """The rows of `gram` as the `approx` doubles, each distinct entry
        object evaluated once: (i,j) and (j,i) are one object, and so are
        the diagonal 2s and the zeros."""
        memo = {}

        def value(e):
            v = memo.get(id(e))
            if v is None:
                v = memo[id(e)] = e.approx()
            return v

        return tuple(tuple(map(value, row)) for row in self.gram)


def _presentation(m, n, family, ctx, extra=()):
    """The presentation on the diagram both families share -- F1 meets F2
    and F3 at angles pi/m and pi/n, F2-F4 and F3-F5 are ideal -- plus the
    `extra` (edge, Gram entry) pairs, with faces F1 up to the highest one
    an edge names."""
    shared = (Edge(1, 2, "angle", order=m), Edge(1, 3, "angle", order=n),
              Edge(2, 4, "ideal"), Edge(3, 5, "ideal"))
    pairs = tuple((e, -embed_cos(ctx, e.order) if e.kind == "angle"
                   else AlgebraicNumber.rational(ctx, -2))
                  for e in shared) + extra
    edges = tuple(e for e, _ in pairs)
    size = max(e.j for e in edges)
    two = AlgebraicNumber.rational(ctx, 2)
    zero = AlgebraicNumber.rational(ctx, 0)
    g = [[two if i == j else zero for j in range(size)] for i in range(size)]
    for e, val in pairs:
        g[e.i - 1][e.j - 1] = g[e.j - 1][e.i - 1] = val
    faces = tuple(f"F{i}" for i in range(1, size + 1))
    return CoxeterPresentation(m, n, family, faces, edges,
                               tuple(tuple(row) for row in g), ctx)


class _CoshData(NamedTuple):
    """The exact values behind the face-6 entries of the hyperbolic type
    (m, n), with D = cos^2(pi/m) + cos^2(pi/n) - 1 > 0."""
    ctx: FieldContext
    cm: AlgebraicNumber       # cos(pi/m)
    cn: AlgebraicNumber       # cos(pi/n)
    D: AlgebraicNumber
    root: AlgebraicNumber     # sqrt(D) > 0
    hm: AlgebraicNumber       # cos(pi/m) D^-1
    hn: AlgebraicNumber       # cos(pi/n) D^-1
    cosh_mn: AlgebraicNumber  # cosh l_46 = cos(pi/m) / sqrt(D) = hm sqrt(D)
    cosh_nm: AlgebraicNumber  # cosh l_56 = cos(pi/n) / sqrt(D) = hn sqrt(D)
    g46: AlgebraicNumber      # the Gram entry (4,6), -2 cosh l_46
    g56: AlgebraicNumber      # the Gram entry (5,6), -2 cosh l_56


@lru_cache(maxsize=None)
def _hyperbolic_cosh_data(m, n) -> _CoshData:
    """The `_CoshData` of (m, n).  The build places g46 = -2 hm sqrt(D) and
    g56 = -2 hn sqrt(D) in its Gram; hm and hn, the K0 quotients formed on
    the way to the cosh values, are kept, so that neither D^-1 nor D is
    multiplied back in: g46 sqrt(D) = -2 hm D is -2cos(pi/m) by hm D =
    cos(pi/m), which `_certify` takes with no product, and the D^-1 of a
    walk through face 6 from face 4 comes with -2 hm (`_walk_product`)."""
    ctx = make_context(lcm(m, n))
    cm = embed_cos(ctx, m) / 2
    cn = embed_cos(ctx, n) / 2
    D = cm * cm + cn * cn - 1
    if D.sign() <= 0:
        raise GeometryError(f"({m},{n}) is not hyperbolic: discriminant <= 0")
    Dinv = D.inverse()
    root = adjoin_sqrt(ctx, D)
    hm, hn = cm * Dinv, cn * Dinv
    cosh_mn, cosh_nm = hm * root, hn * root
    return _CoshData(ctx, cm, cn, D, root, hm, hn, cosh_mn, cosh_nm,
                     -2 * cosh_mn, -2 * cosh_nm)


@lru_cache(maxsize=None)
def build_hyperbolic_presentation(m: int, n: int) -> CoxeterPresentation:
    """Six-face presentation for the hyperbolic pattern [m,n,m,n]."""
    if geometry_of(m, n) != "Hyperbolic":
        raise GeometryError(f"({m},{n}) is not a hyperbolic tiling type")
    c = _hyperbolic_cosh_data(m, n)
    return _presentation(m, n, "hyperbolic", c.ctx, (
        (Edge(4, 6, "ultraparallel", cosh_dist=c.cosh_mn), c.g46),
        (Edge(5, 6, "ultraparallel", cosh_dist=c.cosh_nm), c.g56)))


def build_spherical_presentation(m: int, n: int) -> CoxeterPresentation:
    """Five-face presentation for the spherical patterns (finite apexes)."""
    if geometry_of(m, n) != "Spherical":
        raise GeometryError(f"({m},{n}) is not a spherical tiling type")
    return _presentation(m, n, "spherical", make_context(lcm(m, n)))


def build_presentation(m: int, n: int) -> CoxeterPresentation:
    geo = geometry_of(m, n)
    if geo == "Hyperbolic":
        return build_hyperbolic_presentation(m, n)
    if geo == "Spherical":
        return build_spherical_presentation(m, n)
    raise GeometryError(
        f"({m},{n}) is Euclidean; no Coxeter polyhedron is associated here "
        "(the classifier handles Euclidean types by lookup)")


# -- exact determinant -------------------------------------------------------

def exact_det(rows: Sequence[Sequence[AlgebraicNumber]]) -> AlgebraicNumber:
    """Determinant over the exact field by cofactor expansion along the
    first row, skipping its zero entries.  Only the minor solve runs it, on
    sparse minors of at most 5x5."""
    top = rows[0]
    if len(rows) == 1:
        return top[0]
    det = AlgebraicNumber.rational(top[0].ctx, 0)
    for j, x in enumerate(top):
        if not x.is_zero:
            term = x * exact_det([r[:j] + r[j + 1:] for r in rows[1:]])
            det = det - term if j % 2 else det + term
    return det


def solve_ultraparallel_by_minor(m: int, n: int):
    """Solve for the two unknown ultraparallel entries from singular minors.

    The rank-4 constraint forces the 5x5 minor omitting row/column 5 (resp. 4)
    to be singular.  Its row and column of face 6 are (0, 0, 0, -2x, 2), x
    the unknown cosh-distance, so the bordered expansion gives A*x^2 + C
    with C = 2 det G[F1..F4] (F5 for F4 in the other minor) and
    A = -4 det G[F1..F3]: x^2 = -C/A.  The full minor at x = 1, which must
    equal C + A, witnesses that expansion.  The closed form x = c/sqrt(D),
    c = cos(pi/m) (resp. n), is certified by the cross-multiplied identity
    -C*D == A*c^2 and c > 0, all inside K0, and the cached closed-form
    values are returned.
    """
    gram = build_hyperbolic_presentation(m, n).gram
    c = _hyperbolic_cosh_data(m, n)

    def minor(keep):
        return [[gram[r][c] for c in keep] for r in keep]

    A = -4 * exact_det(minor((0, 1, 2)))
    if A.is_zero:
        raise VerificationError("minor determinant does not depend on the unknown")
    for face, cosval in ((3, c.cm), (4, c.cn)):
        C = 2 * exact_det(minor((0, 1, 2, face)))
        # the full minor with the surviving ultraparallel entry at x = 1
        rows = minor((0, 1, 2, face, 5))
        rows[3][4] = rows[4][3] = AlgebraicNumber.rational(c.ctx, -2)
        if exact_det(rows) != C + A:
            raise VerificationError(
                "minor determinant at x = 1 disagrees with its bordered expansion")
        # x^2 = -C/A against (c/sqrt(D))^2 = c^2/D, both sides times A*D
        if -C * c.D != A * cosval * cosval:
            raise VerificationError(
                "closed-form cosh value does not satisfy the singular-minor equation")
        # sqrt(D) > 0, so c/sqrt(D) has the sign of c
        if cosval.sign() <= 0:
            raise VerificationError("cosh candidate not positive")
    return c.cosh_mn, c.cosh_nm


# -- rank and signature ------------------------------------------------------

def rank_and_signature(p: CoxeterPresentation) -> tuple[int, int, int]:
    """(rank, n_positive, n_negative) of p's Gram matrix: the inertia that
    `_certify` proved from the diagram, once per presentation, and
    cross-checked numerically.  It is (4, 3, 1) on both families: the
    leading-minor signs 1, 1, 4 - a^2, -8D, -4a^2 change sign exactly once,
    and a zero minor raises first."""
    if not isinstance(p, CoxeterPresentation):
        raise TypeError("rank_and_signature takes a CoxeterPresentation, "
                        f"not {type(p).__name__}")
    return p._certified[1]


def _check_numeric(floats, rank, pos, neg):
    """(rank, pos, neg), the certificate's exact inertia, once the cyclic
    Jacobi method's float eigenvalues of the float Gram `floats`, counted
    against +-1e-9, agree with it; VerificationError when they do not, or
    when the iteration does not converge."""
    s = len(floats)
    ev = _jacobi_eigenvalues(floats)
    num = (sum(1 for v in ev if v > 1e-9), sum(1 for v in ev if v < -1e-9),
           sum(1 for v in ev if abs(v) <= 1e-9))
    if num != (pos, neg, s - rank):
        raise VerificationError(
            f"exact signature ({pos},{neg},{s - rank}) disagrees with "
            f"numeric eigenvalues {num}")
    return rank, pos, neg


def _jacobi_eigenvalues(a):
    """Eigenvalues of the symmetric float matrix with rows `a` by the cyclic
    Jacobi method (Golub & Van Loan, Matrix Computations, 8.5; the rotation
    in Rutishauser's form): sweeps of plane rotations, each zeroing one
    off-diagonal pair, until the Frobenius norm of the off-diagonal part,
    which bounds the error of every diagonal entry as an eigenvalue, is at
    most 2^-53 of the whole matrix's.  VerificationError when
    `_JACOBI_SWEEPS` sweeps do not get there."""
    a = [list(row) for row in a]
    n = len(a)
    tol = 2.0 ** -53 * sqrt(sum(v * v for row in a for v in row))
    for _ in range(_JACOBI_SWEEPS):
        if sqrt(sum(a[i][j] ** 2 for i in range(n)
                    for j in range(n) if i != j)) <= tol:
            return [a[i][i] for i in range(n)]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2 * apq)
                t = copysign(1.0, theta) / (abs(theta) + hypot(theta, 1.0))
                c = 1 / hypot(t, 1.0)
                s = t * c
                tau = s / (1 + c)
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for r in range(n):
                    if r != p and r != q:
                        arp, arq = a[r][p], a[r][q]
                        a[r][p] = a[p][r] = arp - s * (arq + tau * arp)
                        a[r][q] = a[q][r] = arq + s * (arp - tau * arq)
    raise VerificationError(
        "numeric eigenvalue cross-check failed: no convergence in "
        f"{_JACOBI_SWEEPS} Jacobi sweeps")


def _certify(p: CoxeterPresentation):
    """(g, (rank, n_positive, n_negative)) of p's K0 Gram g, handed out once
    all of these hold; VerificationError names the first that fails.

    g is `gram` of a spherical presentation and S*G*S, S = diag(1,...,1,
    sqrt D), of a hyperbolic one.  S*G*S is congruent to G, so it has the
    same rank and inertia (Sylvester's law).  Its face-6 entries take no
    product: p's entry must equal the build's own element, found by a plain
    equality.  The build's (4,6) is -2h sqrt(D) with h = cos(pi/m) D^-1, so
    times sqrt(D) it is -2h D = -2cos(pi/m) by h D = cos(pi/m) (likewise
    (5,6) with n, and the build's zeros stay zero).  Any other entry, over
    any radicand, is off the pattern, and the scan below reports it at its
    place.  With a = -g12 = 2cos(pi/m), b = -g13 = 2cos(pi/n) and
    B = g[F1..F4]:
      - every entry but g66 follows the diagram's pattern in a and b; so
        the scaled (4,6) and (5,6) are -a and -b, and g lies in K0;
      - g k = 0 for k1 = (0, b, -a, b, -a, 0) (spherical: without F6) and
        k2 = (2a, 4 - b^2, ab, 4 - a^2 - b^2, 0, -2a), which holds iff
        g66 = 2D, 4D = a^2 + b^2 - 4: rank <= 4;
      - B's leading minors are 2, 4 - a^2, 8 - 2a^2 - 2b^2 = -8D and
        det B = -4a^2 != 0: rank 4 and G = B + 0 up to congruence, whose
        negative eigenvalues Jacobi's rule counts as the sign changes of
        1, 2, 4 - a^2, -8D, -4a^2;
      - `_check_numeric` agrees on the original Gram's `_float_gram`.
    """
    rows = [list(r) for r in p.gram]
    two, zero = (AlgebraicNumber.rational(p.ctx, v) for v in (2, 0))
    if p.family == "hyperbolic":
        c = _hyperbolic_cosh_data(p.m, p.n)
        built = (zero, zero, zero, c.g46, c.g56)
        k0 = (zero, zero, zero, -2 * c.cm, -2 * c.cn)  # built[i] sqrt(D)
        # an entry other than the build's becomes None, which the pattern
        # scan below reports at its place
        for i in range(5):
            rows[i][5] = k0[i] if p.gram[i][5] == built[i] else None
            rows[5][i] = k0[i] if p.gram[5][i] == built[i] else None
        rows[5][5] = p.gram[5][5] * c.D
    g = tuple(tuple(r) for r in rows)
    s = len(g)
    a, b = -g[0][1], -g[0][2]
    # the diagram's pattern in a and b; g66 is left to the kernel vector k2
    off = {(0, 1): -a, (0, 2): -b, (1, 3): -two, (2, 4): -two,
           (3, 5): -a, (4, 5): -b}
    for i in range(s):
        for j in range(s):
            if (i, j) != (5, 5) and g[i][j] != (
                    two if i == j else off.get((min(i, j), max(i, j)), zero)):
                raise VerificationError(f"Gram entry ({i + 1},{j + 1}) is off "
                                        "the diagram's pattern")
    aa, bb = a * a, b * b
    kernel = [(zero, b, -a, b, -a, zero)[:s]]
    if s == 6:
        kernel.append((2 * a, 4 - bb, a * b, 4 - aa - bb, zero, -2 * a))
    for k, vec in enumerate(kernel, 1):
        if any(not sum((x * y for x, y in zip(row, vec)
                        if not (x.is_zero or y.is_zero)), zero).is_zero
               for row in g):
            raise VerificationError(f"kernel vector k{k} is not in the "
                                    "Gram matrix's kernel")
    # 1, D1, ..., D4 of B; D4 != 0 also makes k1 and k2 independent
    signs = [1, 1] + [d.sign() for d in (4 - aa, 8 - 2 * (aa + bb), -4 * aa)]
    if 0 in signs:
        raise VerificationError(f"leading minor D{signs.index(0)} of the "
                                "F1..F4 block is zero")
    neg = sum(x != y for x, y in zip(signs, signs[1:]))
    return g, _check_numeric(p._float_gram, 4, 4 - neg, neg)


# -- diagram adjacency and cyclic products -----------------------------------

def diagram_adjacency(p: CoxeterPresentation) -> list[list[bool]]:
    """adj[i][j]: faces i != j (0-based) share a nonzero Gram entry."""
    return [[not p.gram[i][j].is_zero and i != j for j in range(p.size)]
            for i in range(p.size)]


def _walk_product(p: CoxeterPresentation, faces) -> AlgebraicNumber:
    """The product of `p.gram` entries along the walk `faces` (0-based),
    which neither begins nor ends at face 6, taken on the certified K0 Gram.

    S*G*S scales the entries of face 6, which only the hyperbolic diagram
    has, by sqrt(D); a walk crosses two of them at each visit, so the
    product on g = S*G*S is multiplied by D^-1 once per visit.  That D^-1
    is taken with the visit's entering edge x -> 6: the certificate proved
    g[4][6] = -2cos(pi/m) and g[5][6] = -2cos(pi/n), so g[x][6] D^-1 is
    the build's quotient -2h_m or -2h_n of `_CoshData`.  The walk's other
    factors, sparse elements of K0, are multiplied first, and each dense
    quotient once into their product.  No factor carries sqrt(D).
    """
    g = p._certified[0]
    val, quotients = None, []
    for x, y in zip(faces, faces[1:]):
        if y == 5:
            c = _hyperbolic_cosh_data(p.m, p.n)
            quotients.append(-2 * (c.hm if x == 3 else c.hn))
        else:
            val = g[x][y] if val is None else val * g[x][y]
    for q in quotients:
        val = val * q
    return val


def enumerate_cyclic_products(p: CoxeterPresentation):
    """All cyclic products b_I over simple cycles of the diagram, including
    every 2-cycle a_ij * a_ji; deterministic order (by length, then faces).
    A fresh copy of the presentation's one list."""
    return list(p._cycles)


def _cyclic_products(p):
    """The list behind `enumerate_cyclic_products`: each product is the
    `_walk_product` of a closed walk from its least face (never face 6)."""
    s = p.size
    adj = diagram_adjacency(p)

    def product(cycle):
        return (tuple(c + 1 for c in cycle),
                _walk_product(p, cycle + (cycle[0],)))

    out = [product((i, j)) for i in range(s) for j in range(i + 1, s)
           if adj[i][j]]

    # simple cycles of length >= 3, canonical: starts at its minimum vertex,
    # second vertex smaller than last (kills reflections)
    def extend(path, visited):
        last = path[-1]
        for nxt in range(path[0] + 1, s):
            if nxt in visited or not adj[last][nxt]:
                continue
            if len(path) >= 2 and adj[nxt][path[0]] and path[1] < nxt:
                cycles.append(product(tuple(path) + (nxt,)))
            extend(path + [nxt], visited | {nxt})

    cycles = []
    for start in range(s):
        extend([start], {start})
    cycles.sort(key=lambda t: (len(t[0]), t[0]))
    return out + cycles


# -- the face lattice --------------------------------------------------------

class Vertex(NamedTuple):
    """A vertex of the polyhedron: the faces through it (0-based, sorted),
    among them, for an ultra-ideal vertex, the face that truncates it."""
    kind: str  # "finite" | "ideal" | "ultra_ideal"
    faces: tuple[int, ...]
    truncation: Optional[int] = None


def face_lattice(p: CoxeterPresentation) -> tuple[Vertex, ...]:
    """The vertices of the polyhedron, from the diagram labels alone (Vinberg,
    "Hyperbolic reflection groups", Russian Math. Surveys 40, 1985).

    A pair without an edge has order 2.  Orders a, b, c on a triple span a
    finite vertex if 1/a + 1/b + 1/c > 1 and an ideal one if it is 1; else
    an ultra-ideal one, if exactly one further face, its truncation, is at
    right angles to all three.  Two ideal edges at right angles (A~1 x A~1)
    span an ideal vertex.  Finite volume: every edge (a pair with an order)
    has two ends among the finite and ideal vertices, or VerificationError.
    """
    s = p.size
    # no label on the diagonal: a face is not at right angles to itself
    label = [[None if i == j else 2 for j in range(s)] for i in range(s)]
    for e in p.edges:
        label[e.i - 1][e.j - 1] = label[e.j - 1][e.i - 1] = e.order or e.kind
    verts = []
    for t in combinations(range(s), 3):
        a, b, c = (label[i][j] for i, j in combinations(t, 2))
        if all(isinstance(x, int) for x in (a, b, c)):
            excess = b * c + a * c + a * b - a * b * c  # abc (1/a + 1/b + 1/c - 1)
            polar = [f for f in range(s) if all(label[f][i] == 2 for i in t)]
            if excess >= 0:
                verts.append(Vertex("finite" if excess else "ideal", t))
            elif len(polar) == 1:
                verts.append(Vertex("ultra_ideal", tuple(sorted({*t, *polar})), *polar))
    ideal = [t for t in combinations(range(s), 2) if label[t[0]][t[1]] == "ideal"]
    verts += [Vertex("ideal", tuple(sorted(u + v))) for u, v in combinations(ideal, 2)
              if all(label[i][j] == 2 for i in u for j in v)]
    ends = [v.faces for v in verts if v.kind != "ultra_ideal"]
    for i, j in combinations(range(s), 2):
        count = sum(i in f and j in f for f in ends)
        if isinstance(label[i][j], int) and count != 2:
            raise VerificationError(
                f"edge F{i + 1}-F{j + 1} has {count} ends among the finite and "
                f"ideal vertices, not 2: the polyhedron of ({p.m},{p.n}) "
                "does not have finite volume")
    return tuple(verts)


# -- serialization -----------------------------------------------------------

def presentation_json_dict(p: CoxeterPresentation) -> dict:
    # (i,j) and (j,i) are one object, the pure elements share one radicand
    # D, and each dict runs a certified approx: serialize every distinct
    # object once (by identity, while p keeps them alive), sharing its dict
    memo = {}

    def ser(x):
        d = memo.get(id(x))
        if d is None:
            d = memo[id(x)] = _json_dict(x, ser)
        return d

    def edge_dict(e):
        d = {"i": e.i, "j": e.j, "kind": e.kind}
        if e.order is not None:
            d["order"] = e.order
        if e.cosh_dist is not None:
            d["cosh_dist"] = ser(e.cosh_dist)
        return d

    gram = [[ser(e) for e in row] for row in p.gram]
    return {
        "m": p.m,
        "n": p.n,
        "family": p.family,
        "faces": list(p.faces),
        "edges": [edge_dict(e) for e in p.edges],
        "gram": gram,
        "gram_approx": [[e["approx"] for e in row] for row in gram],
    }
