"""Exact derivation and N-derivation spaces of finitely generated graded Lie algebras."""

from .algebra import (
    BasisElement,
    Degree,
    Element,
    GradedAlgebra,
    InvalidAlgebraError,
    ValidationReport,
    Violation,
    add_degrees,
    negate_degree,
    sub_degrees,
)
from .builders import (
    ParseError,
    WindowSpec,
    build_borel,
    build_counterexample_k,
    build_sl,
    build_sv,
    build_witt,
    load,
    save,
)
from .derivations import (
    ComparisonReport,
    HomogeneousMap,
    PWitness,
    UnknownIndex,
    build_constraints,
    check_property_p,
    compare_orders,
    decompose_homogeneous,
    domain_gammas,
    is_inner,
    is_nder,
    solve_nder,
    verify_property_witness,
)
from .linalg import (
    Rational,
    SparseMatrix,
    SparseVector,
    SubspaceBasis,
    format_rational,
    nullspace,
    parse_rational,
    project_basis,
    row_space_equal,
    vector_in_span,
)

__version__ = "0.1.0"
