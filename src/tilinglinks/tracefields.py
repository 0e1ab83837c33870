"""Invariant trace fields from Gram matrices by the path-vector procedure.

Scale the outward normal of face r by the product of Gram entries along a
diagram path from F1; the resulting vectors span a 4-dimensional space over
the adjoint trace field, and the determinant of their inner-product matrix
determines the invariant trace field as k(P)(sqrt(det)).  Re-choosing paths
multiplies the determinant by a nonzero rational square, so the squarefree
output is path-independent.

Convention: the worksheet matrix entries are c_i * c_j * a_ij, i.e. the
pairing <e_i, e_j> is taken as a_ij rather than a_ij / 2.  The two choices
differ by the square factor 2^4 on the determinant, hence give the same
field.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Optional

from .coxeter import (CoxeterPresentation, _walk_product, diagram_adjacency,
                      enumerate_cyclic_products)
from .errors import DomainError, VerificationError
from .fields import AlgebraicNumber, as_json_dict, is_rational


class TraceFieldWorksheet(NamedTuple):
    presentation: CoxeterPresentation
    paths: tuple[tuple[int, ...], ...]      # diagram path from F1 to each face
    coeffs: tuple[AlgebraicNumber, ...]     # c_r of the basis faces F1..F4
    basis: tuple[int, ...]                  # four face indices (1-based)
    gprime: tuple[tuple[AlgebraicNumber, ...], ...]
    det: AlgebraicNumber


class FieldDescriptor(NamedTuple):
    """Either an imaginary quadratic field Q(sqrt(d)) with d squarefree,
    or a symbolic extension of a non-rational adjoint trace field."""
    kind: str              # "quadratic" | "symbolic"
    d: Optional[int] = None
    label: str = ""


class TraceFieldResult(NamedTuple):
    adjoint_rational: bool
    adjoint_generators: tuple[AlgebraicNumber, ...]  # non-rational cyclic products
    discriminant_det: AlgebraicNumber
    invariant_field: FieldDescriptor


def _tree_paths(p, rng=None):
    """Diagram paths from F1 along a spanning tree, as 0-based tuples.

    Without `rng` the tree is breadth-first: the reached face of least
    (depth, index) is expanded next.  With a seeded `rng` the face reached
    last is expanded next, and the unreached neighbours of each expanded
    face are shuffled before they are reached.
    """
    adj = diagram_adjacency(p)
    parent, depth = {0: None}, {0: 0}
    frontier = [0]
    while frontier:
        if rng is None:
            u = min(frontier, key=lambda v: (depth[v], v))
            frontier.remove(u)
        else:
            u = frontier.pop()
        new = [v for v in range(p.size) if adj[u][v] and v not in parent]
        if rng is not None:
            rng.shuffle(new)
        for v in new:
            parent[v], depth[v] = u, depth[u] + 1
        frontier += new
    if len(parent) != p.size:
        raise DomainError("Coxeter diagram is disconnected")
    paths = []
    for r in range(p.size):
        path = [r]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        paths.append(tuple(reversed(path)))
    return paths


def build_worksheet(p: CoxeterPresentation, strategy: str = "bfs",
                    seed: int = 0) -> TraceFieldWorksheet:
    """Path coefficients of the basis F1..F4 and its 4x4 inner-product matrix.

    strategy "bfs" uses breadth-first paths with lowest-index tie-breaking;
    "random" draws a random spanning tree (seeded), which exercises the
    square-class invariance of the determinant.
    """
    if strategy not in ("bfs", "random"):
        raise DomainError(f"unknown path strategy {strategy!r}")
    paths = _tree_paths(p, random.Random(seed) if strategy == "random"
                        else None)

    # c_r for the basis F1..F4 only, which is all det G' reads: c_1 = a_11,
    # and no other basis path ends at face 6, so every c_r lies in K0
    g = p._certified[0]
    coeffs = (g[0][0],) + tuple(_walk_product(p, path) for path in paths[1:4])

    # G' = C B C, with C = diag(c_r) and B the Gram block of F1..F4, so
    # det G' = det B * prod(c_r^2), and G' has diagonal 2c_r^2.  The
    # certified pattern makes B [[2, -a, -b, 0], [-a, 2, 0, -2],
    # [-b, 0, 2, 0], [0, -2, 0, 2]], a = 2cos(pi/m), b = 2cos(pi/n), in both
    # families; adding row 4 to row 2 leaves (-a, 0, 0, 0) there, and the
    # expansion along it gives det B = -4a^2, which the certificate proved
    # nonzero, as are the c_r, products of nonzero entries.  B is
    # symmetric, and so is G': its 10 entries on and above the diagonal
    # are formed and mirrored
    gp = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            gp[i][j] = gp[j][i] = coeffs[i] * g[i][j] * coeffs[j]
    gp = tuple(map(tuple, gp))
    a = -g[0][1]
    det = -4 * a * a * gp[0][0] * gp[1][1] * gp[2][2] * gp[3][3] / 16
    return TraceFieldWorksheet(
        p, tuple(tuple(x + 1 for x in path) for path in paths),
        coeffs, (1, 2, 3, 4), gp, det)


def squarefree_part(value: Fraction) -> tuple[Fraction, int]:
    """Write value = c^2 * d with c rational and d a squarefree integer.

    Trial division runs up to 10^6, so a cofactor left at or below 10^12
    is prime; a larger one raises VerificationError.  The command paths
    reach this only with det G' of (6,4), (4,6) and (6,6), small integers
    times a rational square."""
    if value == 0:
        raise DomainError("zero has no squarefree part")
    n = value.numerator * value.denominator
    sign = -1 if n < 0 else 1
    n = abs(n)
    d = 1
    c2 = 1
    f = 2
    while f * f <= n and f <= 10**6:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            if e % 2:
                d *= f
            c2 *= f ** (e // 2)
        f += 1 if f == 2 else 2
    if n > 1:
        if n > 10**12:
            raise VerificationError(f"cannot certify squarefree reduction of {n}")
        d *= n
    c = Fraction(c2, value.denominator)
    assert c * c * sign * d == value
    return c, sign * d


def field_label(d: int) -> str:
    if d == 1:
        return "Q"
    if d == -1:
        return "Q(i)"
    if d < 0:
        return f"Q(i*sqrt({-d}))"
    return f"Q(sqrt({d}))"


def invariant_trace_field(p: CoxeterPresentation, strategy: str = "bfs",
                          seed: int = 0) -> TraceFieldResult:
    """k(P)(sqrt(det G')) in squarefree form when the adjoint trace field is
    Q, else a symbolic descriptor listing the irrational cyclic products."""
    w = build_worksheet(p, strategy, seed)
    nonrational = tuple(v for _, v in enumerate_cyclic_products(p)
                        if is_rational(v) is None)
    if not nonrational:
        q = is_rational(w.det)
        if q is None:
            raise VerificationError(
                "all cyclic products rational but det G' is not")
        _, d = squarefree_part(q)
        return TraceFieldResult(True, (), w.det,
                                FieldDescriptor("quadratic", d, field_label(d)))
    return TraceFieldResult(False, nonrational, w.det,
                            FieldDescriptor("symbolic", None,
                                            "k(P)(sqrt(det G'))"))


def trace_field_json_dict(res: TraceFieldResult) -> dict:
    return {
        "kP_rational": res.adjoint_rational,
        "kP_generators": [as_json_dict(v) for v in res.adjoint_generators],
        "det": as_json_dict(res.discriminant_det),
        "field": res.invariant_field.label,
        "d": res.invariant_field.d,
    }
