"""Exact-arithmetic and numerical-geometry toolkit for right-angled tiling
links: Gram matrices of the associated Coxeter polyhedra, arithmeticity by
the two-condition reflection-group criterion, invariant trace fields,
commensurability classification, and hyperboloid-model verification of the
canonical cell geometry.
"""

__version__ = "0.1.0"

from .arithmeticity import (ArithmeticityCertificate, arithmetic_sweep,
                            check_arithmetic, niven_filter)
from .classify import (arithmetic_status, classification_rows,
                       classify_geometry, commensurability_key, commensurable,
                       minimal_orbifold_degree, trace_field_table)
from .coxeter import (CoxeterPresentation, TilingType,
                      build_hyperbolic_presentation,
                      build_spherical_presentation, enumerate_cyclic_products,
                      geometry_of, rank_and_signature,
                      solve_ultraparallel_by_minor)
from .errors import DomainError, GeometryError, VerificationError
from .fields import (AlgebraicNumber, FieldContext, adjoin_sqrt, embed_cos,
                     is_algebraic_integer, is_rational, make_context,
                     minimal_polynomial)
from .tracefields import (TraceFieldResult, build_worksheet,
                          invariant_trace_field)

__all__ = [
    "AlgebraicNumber", "ArithmeticityCertificate", "CanonicalCheckReport",
    "CoxeterPresentation", "DomainError", "DrumGeometry", "FieldContext",
    "GeometryError", "IdealCell", "TilingType", "TraceFieldResult",
    "VerificationError", "adjoin_sqrt", "arithmetic_status",
    "arithmetic_sweep", "build_drum", "build_hyperbolic_presentation",
    "build_platonic_cell", "build_spherical_presentation", "build_worksheet",
    "check_arithmetic", "classification_rows", "classify_geometry",
    "commensurability_key", "commensurable", "embed_cos",
    "enumerate_cyclic_products", "geometry_of", "invariant_trace_field",
    "is_algebraic_integer", "is_rational", "make_context",
    "minimal_orbifold_degree", "minimal_polynomial", "niven_filter",
    "rank_and_signature", "realize",
    "solve_ultraparallel_by_minor", "tiling_angle_oracle", "tiling_angles",
    "trace_field_table", "verify_basins", "verify_gluing_angles",
]

# the float geometry, and with it numpy, loads on first use of one of these
_LORENTZ_NAMES = frozenset({
    "CanonicalCheckReport", "DrumGeometry", "IdealCell", "build_drum",
    "build_platonic_cell", "realize", "tiling_angle_oracle", "tiling_angles",
    "verify_basins", "verify_gluing_angles",
})


def __getattr__(name):
    if name in _LORENTZ_NAMES:
        from . import lorentz
        return getattr(lorentz, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
