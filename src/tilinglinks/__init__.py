"""Exact-arithmetic and numerical-geometry toolkit for right-angled tiling
links: Gram matrices of the associated Coxeter polyhedra, arithmeticity by
the two-condition reflection-group criterion, invariant trace fields,
commensurability classification, and hyperboloid-model verification of the
canonical cell geometry.
"""

__version__ = "0.1.0"

# The public names by defining module.  No module is imported here: each
# loads the first time one of its names is read (PEP 562), so a command
# compiles and runs only the layers it uses; `lorentz` brings in numpy.
_EXPORTS = {
    "arithmeticity": ("ArithmeticityCertificate", "arithmetic_sweep",
                      "check_arithmetic", "niven_filter"),
    "classify": ("arithmetic_status", "classification_rows",
                 "classify_geometry", "commensurability_key", "commensurable",
                 "minimal_orbifold_degree", "trace_field_table"),
    "coxeter": ("CoxeterPresentation", "TilingType",
                "build_hyperbolic_presentation", "build_spherical_presentation",
                "enumerate_cyclic_products", "geometry_of",
                "rank_and_signature", "solve_ultraparallel_by_minor"),
    "errors": ("DomainError", "GeometryError", "VerificationError"),
    "fields": ("AlgebraicNumber", "FieldContext", "adjoin_sqrt", "embed_cos",
               "is_algebraic_integer", "is_rational", "make_context",
               "minimal_polynomial"),
    "lorentz": ("CanonicalCheckReport", "DrumGeometry", "IdealCell",
                "build_drum", "build_platonic_cell", "realize",
                "tiling_angle_oracle", "tiling_angles", "verify_basins",
                "verify_gluing_angles"),
    "tracefields": ("TraceFieldResult", "build_worksheet",
                    "invariant_trace_field"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
