"""Exact-arithmetic toolkit for frieze matrices and frieze patterns.

Provides exact rational and quadratic-field arithmetic, frieze matrices
(construction from seeds, validation, triangulation with an inspectable
elimination trace, closed-form and elimination determinants, entry
reconstruction), lazily evaluated infinite friezes with coefficients,
0-frieze patterns with rank-1 factorization, and the classical checks for
quiddity sequences and 2 x n minor matrices.

Each public name is imported from its module on first use (PEP 562), so
importing the package, or one of its modules, loads no other module.
"""

__version__ = "0.1.0"

# Public name -> the module that defines it.
_HOMES = {
    **dict.fromkeys(
        ["DetCheckReport", "QuiddityData", "Triangulation", "TwoRowMatrix",
         "baur_marsh_det_check", "cc_det_check", "cc_matrix", "delta_minor_matrix",
         "quiddity_from_triangulation"],
        "classical",
    ),
    **dict.fromkeys(
        ["FactorizationImpossibleError", "FriezeError", "OrderViolationError",
         "WindowExceededError", "ZeroEntryError", "ZeroMinorError"],
        "errors",
    ),
    **dict.fromkeys(
        ["RATIONAL", "ElementSyntaxError", "FieldDescriptor", "FieldElement",
         "FieldMismatchError", "format_element", "parse_element"],
        "field",
    ),
    **dict.fromkeys(
        ["FriezeSeeds", "InfiniteFrieze", "SeedRow", "cone_entries", "detect_period",
         "extract_m_minus", "extract_m_plus"],
        "frieze",
    ),
    **dict.fromkeys(
        ["EliminationTrace", "FriezeMatrix", "SeedData", "TriangularMatrix",
         "ValidationReport", "Violation", "build_from_seeds", "check_ptolemy",
         "check_t_properties", "det_closed_form", "det_elimination", "reconstruct_entry",
         "triangulate", "validate"],
        "matrix",
    ),
    **dict.fromkeys(
        ["ZeroFrieze", "check_zero_diamond", "from_frieze", "rank1_factorize", "window_cells"],
        "zerofrieze",
    ),
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
