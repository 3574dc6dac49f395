"""Locally repairable codes: construction, exact combinatorics, and bounds.

The package builds grid-structured "square" codes over GF(2^m),
computes exact regenerating-set combinatorics (minimum nontrivial-union
sizes and the derived rho), evaluates the closed-form distance bounds
for the standard locality families, and verifies everything against a
brute-force rank oracle at desk scale.
"""

from .bounds import (
    BoundReport,
    bound_general,
    bound_locality_r,
    bound_lrc,
    bound_rdc,
    bound_report,
    bound_square,
    compare_table,
    compare_table_csv,
    g_function,
    rdc_mu,
    s_value,
)
from .errors import (
    DomainError,
    LocrepError,
    PhiUndefinedError,
    RepairError,
    SearchCapExceeded,
)
from .gf2m import (
    GF2m,
    default_modulus,
    is_irreducible,
    linearly_independent,
    matrix_rank,
    solve_column,
)
from .linear_code import (
    DEFAULT_SEARCH_CAP,
    LinearCode,
    erasure_decodable,
    from_json_dict,
    min_distance,
    to_json_dict,
)
from .regsets import (
    PhiProfile,
    RegeneratingSet,
    check_union_entropy,
    is_nontrivial_union,
    is_regenerating,
    minimal_regsets,
    phi,
    phi_profile,
    rho,
    verify_locality,
)
from .repair import (
    RepairPlan,
    RepairStep,
    execute_repair,
    plan_repair,
    repair_tolerance,
)
from .square import (
    LemmaCheck,
    SquareCode,
    build_square_code,
    check_rank_lemma,
    coordinate_of,
    grid_of,
    grid_regsets,
    verify_grid_relations,
    verify_optimal_distance,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DEFAULT_SEARCH_CAP",
    "DomainError",
    "GF2m",
    "LemmaCheck",
    "LinearCode",
    "LocrepError",
    "PhiProfile",
    "PhiUndefinedError",
    "RegeneratingSet",
    "RepairError",
    "RepairPlan",
    "RepairStep",
    "SearchCapExceeded",
    "SquareCode",
    "bound_general",
    "bound_locality_r",
    "bound_lrc",
    "bound_rdc",
    "bound_report",
    "bound_square",
    "build_square_code",
    "check_rank_lemma",
    "check_union_entropy",
    "compare_table",
    "compare_table_csv",
    "coordinate_of",
    "default_modulus",
    "erasure_decodable",
    "execute_repair",
    "from_json_dict",
    "g_function",
    "grid_of",
    "grid_regsets",
    "is_irreducible",
    "is_nontrivial_union",
    "is_regenerating",
    "linearly_independent",
    "matrix_rank",
    "min_distance",
    "minimal_regsets",
    "phi",
    "phi_profile",
    "plan_repair",
    "rdc_mu",
    "repair_tolerance",
    "rho",
    "s_value",
    "solve_column",
    "to_json_dict",
    "verify_grid_relations",
    "verify_locality",
    "verify_optimal_distance",
]
