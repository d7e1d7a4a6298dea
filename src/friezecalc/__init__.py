"""Exact-arithmetic toolkit for frieze matrices and frieze patterns.

Provides exact rational and quadratic-field arithmetic, frieze matrices
(construction from seeds, validation, triangulation with an inspectable
elimination trace, closed-form and elimination determinants, entry
reconstruction), lazily evaluated infinite friezes with coefficients,
0-frieze patterns with rank-1 factorization, and the classical checks for
quiddity sequences and 2 x n minor matrices.
"""

from .classical import (
    DetCheckReport,
    QuiddityData,
    Triangulation,
    TwoRowMatrix,
    baur_marsh_det_check,
    cc_det_check,
    cc_matrix,
    delta_minor_matrix,
    quiddity_from_triangulation,
)
from .errors import (
    FactorizationImpossibleError,
    FriezeError,
    OrderViolationError,
    WindowExceededError,
    ZeroEntryError,
    ZeroMinorError,
)
from .field import (
    RATIONAL,
    ElementSyntaxError,
    FieldDescriptor,
    FieldElement,
    FieldMismatchError,
    format_element,
    parse_element,
)
from .frieze import (
    FriezeSeeds,
    InfiniteFrieze,
    SeedRow,
    cone_entries,
    detect_period,
    extract_m_minus,
    extract_m_plus,
)
from .matrix import (
    EliminationTrace,
    FriezeMatrix,
    SeedData,
    TriangularMatrix,
    ValidationReport,
    Violation,
    build_from_seeds,
    check_ptolemy,
    check_t_properties,
    det_closed_form,
    det_elimination,
    reconstruct_entry,
    triangulate,
    validate,
)
from .zerofrieze import (
    ZeroFrieze,
    check_zero_diamond,
    from_frieze,
    rank1_factorize,
    window_cells,
)

__version__ = "0.1.0"
