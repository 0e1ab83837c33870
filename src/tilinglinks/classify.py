"""Classification of right-angled tiling link types: geometry, arithmeticity,
trace fields, commensurability, and minimal-orbifold covering degrees.

Valid right-angled types are the spherical (3,3), (4,3), (5,3), the
Euclidean (4,4), (6,3), and every hyperbolic pair, all unordered.
Hyperbolic verdicts and the two computable trace fields come from the exact
machinery; the spherical (5,3) verdict is computed from its five-face
presentation; the remaining spherical and Euclidean facts are literature
lookups (Hatcher for the S^2 types, Champanerkar-Kofman-Purcell for the
torus types) and are labeled as such.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .arithmeticity import check_arithmetic, hyperbolic_verdict
from .coxeter import (EUCLIDEAN_TYPES, SPHERICAL_TYPES, TilingType,
                      build_hyperbolic_presentation,
                      build_spherical_presentation, geometry_of)
from .errors import DomainError, VerificationError
from .tracefields import FieldDescriptor, field_label, invariant_trace_field

QI_FAMILY = {(3, 3), (4, 4), (6, 6)}

_LOOKUP_FIELDS = {  # squarefree d with invariant trace field Q(sqrt(d))
    (3, 3): -1,   # literature: Hatcher
    (4, 3): -2,   # literature: Hatcher
    (4, 4): -1,   # literature: Champanerkar-Kofman-Purcell
    (6, 3): -3,   # literature: Champanerkar-Kofman-Purcell
}
_COMPUTED_FIELDS = {(6, 4): -6, (6, 6): -1}


def normalize_type(m: int, n: int) -> tuple[int, int]:
    if not (isinstance(m, int) and isinstance(n, int)) or m < 3 or n < 3:
        raise DomainError(f"tiling parameters must be integers >= 3, got ({m},{n})")
    return (max(m, n), min(m, n))


def is_valid_type(m: int, n: int) -> bool:
    """Right-angled tiling link types: every hyperbolic pair, plus the
    spherical and Euclidean patterns that occur on S^2 and T^2."""
    t = normalize_type(m, n)
    geo = geometry_of(*t)
    if geo == "Hyperbolic":
        return True
    if geo == "Spherical":
        return t in SPHERICAL_TYPES
    return t in EUCLIDEAN_TYPES


def valid_types(bound: int) -> list[tuple[int, int]]:
    out = [t for t in {normalize_type(m, n)
                       for m in range(3, bound + 1)
                       for n in range(3, bound + 1)}
           if is_valid_type(*t)]
    return sorted(out)


class GeometryClassification(NamedTuple):
    tiling: TilingType
    exists: bool
    vertex_count: Optional[int]
    note: str


def classify_geometry(m: int, n: int,
                      genus: Optional[int] = None) -> GeometryClassification:
    """Geometry type, plus the vertex count forced by Euler characteristic
    when a genus is supplied: V * (2/m + 2/n - 1) = 2 - 2g."""
    t = TilingType.of(m, n)
    if genus is None:
        return GeometryClassification(t, True, None, "")
    if genus < 0:
        raise DomainError("genus must be >= 0")
    chi = 2 - 2 * genus
    k = Fraction(2, m) + Fraction(2, n) - 1
    if k == 0:
        if chi == 0:
            return GeometryClassification(
                t, True, None, "Euclidean: Euler constraint vacuous, any vertex count")
        return GeometryClassification(
            t, False, None, f"no such tiling: Euclidean type needs genus 1, got {genus}")
    v = Fraction(chi) / k
    if v.denominator != 1 or v <= 0:
        return GeometryClassification(
            t, False, None,
            f"no such tiling: Euler count V = {chi}/({k}) is not a positive integer")
    return GeometryClassification(t, True, int(v), "")


class LinkClass(NamedTuple):
    tiling: TilingType
    arithmetic: bool
    trace_field: Optional[FieldDescriptor]
    source: str  # "computed" | "paper_lookup: <citation>"


@lru_cache(maxsize=None)
def arithmetic_status(m: int, n: int) -> LinkClass:
    """Arithmeticity of the (unordered) type, computed where the exact
    machinery applies and looked up from the literature elsewhere."""
    t = normalize_type(m, n)
    if not is_valid_type(*t):
        raise DomainError(f"({m},{n}) is not a valid right-angled tiling type")
    tiling = TilingType.of(*t)
    geo = tiling.geometry
    if geo == "Hyperbolic":
        verdict, _ = hyperbolic_verdict(*t)
        # full symbolic trace-field data for non-arithmetic types is computed
        # on demand by trace_field_table; the status record carries the label
        tf = (trace_field_table(*t) if verdict else
              FieldDescriptor("symbolic", None, "k(P)(sqrt(det G'))"))
        return LinkClass(tiling, verdict, tf, "computed")
    if t == (5, 3):
        cert = check_arithmetic(build_spherical_presentation(5, 3))
        return LinkClass(tiling, cert.arithmetic, None, "computed")
    cite = ("Hatcher" if geo == "Spherical"
            else "Champanerkar-Kofman-Purcell")
    return LinkClass(tiling, True, trace_field_table(*t), f"paper_lookup: {cite}")


def trace_field_table(m: int, n: int) -> Optional[FieldDescriptor]:
    """Invariant trace field of the type: tabulated for the six arithmetic
    types (the two hyperbolic entries cross-checked against the computed
    determinants), symbolic for non-arithmetic hyperbolic types, and absent
    for the non-arithmetic spherical type."""
    t = normalize_type(m, n)
    if not is_valid_type(*t):
        raise DomainError(f"({m},{n}) is not a valid right-angled tiling type")
    if t in _LOOKUP_FIELDS:
        d = _LOOKUP_FIELDS[t]
        return FieldDescriptor("quadratic", d, field_label(d))
    if geometry_of(*t) == "Hyperbolic":
        res = invariant_trace_field(build_hyperbolic_presentation(*t))
        if t in _COMPUTED_FIELDS and res.invariant_field.d != _COMPUTED_FIELDS[t]:
            raise VerificationError(
                f"computed field for {t} disagrees with the expected table")
        return res.invariant_field
    return None  # the (5,3) type: non-arithmetic, no tabulated field


def _cell_description(t: tuple[int, int]) -> str:
    """Canonical-decomposition cells of the type, used to justify
    non-arithmetic commensurability negatives."""
    geo = geometry_of(*t)
    if geo == "Hyperbolic":
        m, n = t
        return f"regular ideal {m}-drums and {n}-drums" if m != n else \
            f"regular ideal {m}-drums"
    if t == (5, 3):
        return "two ideal icosidodecahedra"
    raise DomainError(f"no cell description for {t}")


def commensurable(a, b) -> tuple[bool, str]:
    """Commensurability of two valid (m, n) types, with the deciding clause.

    True iff the unordered types coincide or both lie in the Q(i) family
    {(3,3), (4,4), (6,6)}; negatives cite the invariant that separates them.
    """
    ta, tb = normalize_type(*a), normalize_type(*b)
    for t in (ta, tb):
        if not is_valid_type(*t):
            raise DomainError(f"{t} is not a valid right-angled tiling type")
    if ta == tb:
        return True, "same [m,n,m,n] tiling type"
    if ta in QI_FAMILY and tb in QI_FAMILY:
        return True, "Q(i) family: both commensurable to the Bianchi orbifold over Q(i)"
    sa, sb = arithmetic_status(*ta), arithmetic_status(*tb)
    if sa.arithmetic != sb.arithmetic:
        return False, "arithmeticity differs (commensurability invariant)"
    if sa.arithmetic:
        return False, (f"invariant trace fields differ: {sa.trace_field.label} "
                       f"vs {sb.trace_field.label}")
    return False, (f"canonical cell types differ: {_cell_description(ta)} "
                   f"vs {_cell_description(tb)}")


def commensurability_key(t, bound: int) -> tuple[int, int]:
    """Representative of t's commensurability class among the valid types
    with both parameters <= bound: the largest member of the Q(i) family
    within the bound for a family member, the unordered type itself
    otherwise.  key(a) == key(b) exactly when `commensurable(a, b)` holds."""
    t = normalize_type(*t)
    if not is_valid_type(*t):
        raise DomainError(f"{t} is not a valid right-angled tiling type")
    if t[0] > bound:
        raise DomainError(f"{t} lies outside the bound {bound}")
    if t in QI_FAMILY:
        return max(u for u in QI_FAMILY if u[0] <= bound)
    return t


NOT_APPLICABLE = "not_applicable"


def minimal_orbifold_degree(m: int, n: int):
    """Covering degree of the reflection orbifold over the minimal orbifold
    for non-arithmetic hyperbolic types: 1 when m != n, 2 when m = n.
    Arithmetic types have no unique minimal orbifold."""
    t = normalize_type(m, n)
    if geometry_of(*t) != "Hyperbolic":
        raise DomainError(f"({m},{n}) is not hyperbolic")
    if arithmetic_status(*t).arithmetic:
        return NOT_APPLICABLE
    return 1 if t[0] != t[1] else 2


# -- classification table ----------------------------------------------------

class ClassificationRow(NamedTuple):
    m: int
    n: int
    geometry: str
    arithmetic: bool
    trace_field: str
    min_orbifold_degree: str
    commensurability_class_id: str


def classification_rows(bound: int) -> list[ClassificationRow]:
    types = valid_types(bound)
    key = {t: commensurability_key(t, bound) for t in types}
    reps = sorted(set(key.values()))
    class_id = {rep: f"C{i + 1}" for i, rep in enumerate(reps)}

    rows = []
    for t in types:
        status = arithmetic_status(*t)
        tf = status.trace_field
        label = tf.label if tf is not None else "-"
        geo = geometry_of(*t)
        deg_str = (str(minimal_orbifold_degree(*t)) if geo == "Hyperbolic"
                   else NOT_APPLICABLE)
        rows.append(ClassificationRow(t[0], t[1], geo,
                                      status.arithmetic, label, deg_str,
                                      class_id[key[t]]))
    return rows


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["m", "n", "geometry", "arithmetic", "trace_field",
                "min_orbifold_degree", "commensurability_class_id"])
    for r in rows:
        w.writerow([r.m, r.n, r.geometry, r.arithmetic, r.trace_field,
                    r.min_orbifold_degree, r.commensurability_class_id])
    return buf.getvalue()
