"""Resistance distances and Kirchhoff indices of pocket graphs.

Builds generalized pocket graphs, computes their resistance distances and
Kirchhoff indices through closed-form block {1}-inverses assembled from
small factors, and audits the structured results (and the printed per-case
formulas) against a brute-force Laplacian pseudoinverse oracle.
"""

from .graphs import (
    BlockLayout,
    Graph,
    GraphFormatError,
    JoinStructureError,
    PocketSpec,
    build_pocket_graph,
    complete_graph,
    empty_graph,
    is_connected,
    join,
    laplacian,
    load_graph,
    make_layout,
    path_graph,
    split_gadget,
)
from .linalg import (
    DisconnectedGraphError,
    SingularMatrixError,
    eigenvalues_sym,
    invert,
    pseudo_inverse_laplacian,
)
from .oneinv import (
    PocketResistance,
    StructuredOneInverse,
    split_base_join,
    structured_one_inverse,
)
from .resistance import (
    KirchhoffResult,
    check_metric,
    kirchhoff_from_one_inverse,
    kirchhoff_spectral,
    oracle_one_inverse,
    oracle_resistance,
    resistance_matrix,
)
from .formulas import (
    CaseId,
    CaseMismatchError,
    DiscrepancyReport,
    Theorem31Printed,
    Theorem41Printed,
    thm31_printed_kf,
    thm41_printed_kf,
    verify_construction,
)
from .sweep import builtin_fixtures, random_specs

__version__ = "0.1.0"

__all__ = [
    "BlockLayout",
    "CaseId",
    "CaseMismatchError",
    "DiscrepancyReport",
    "DisconnectedGraphError",
    "Graph",
    "GraphFormatError",
    "JoinStructureError",
    "KirchhoffResult",
    "PocketResistance",
    "PocketSpec",
    "SingularMatrixError",
    "StructuredOneInverse",
    "Theorem31Printed",
    "Theorem41Printed",
    "build_pocket_graph",
    "builtin_fixtures",
    "check_metric",
    "complete_graph",
    "empty_graph",
    "eigenvalues_sym",
    "invert",
    "is_connected",
    "join",
    "kirchhoff_from_one_inverse",
    "kirchhoff_spectral",
    "laplacian",
    "load_graph",
    "make_layout",
    "oracle_one_inverse",
    "oracle_resistance",
    "path_graph",
    "pseudo_inverse_laplacian",
    "random_specs",
    "resistance_matrix",
    "split_base_join",
    "split_gadget",
    "structured_one_inverse",
    "thm31_printed_kf",
    "thm41_printed_kf",
    "verify_construction",
]
