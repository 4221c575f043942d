"""Subspace designs over GF(2): large sets, verification, recursion.

The package materializes a large set of 2-(8, 4, 217) designs from shipped
orbit data, verifies designs and large sets by exhaustive counting, applies
the derived/residual/dual transforms, solves Kramer-Mesner systems, and
extends known large sets recursively by hyperplane extension and joins.
"""

from .catalog import builtin_design, builtin_group, builtin_large_set
from .designs import (
    Design,
    LargeSet,
    VerificationError,
    derived_large_set,
    dual_large_set,
    residual_large_set,
    verify_design,
    verify_large_set,
)
from .grassmann import Subspace, gaussian_binomial, span
from .groups import Group, close_group, orbit_partition, trivial_group
from .joins import (
    avoiding_join,
    compose_partitions,
    execute_plan,
    extend_by_hyperplane,
    grassmann_decomposition,
    join_chain,
)
from .kramer_mesner import build_km, iterated_large_set_search, solve_exact
from .planner import (
    LSParams,
    admissible,
    generate_table,
    plan_series,
    realizable_by_series,
)

__all__ = [
    "Design",
    "Group",
    "LSParams",
    "LargeSet",
    "Subspace",
    "VerificationError",
    "admissible",
    "avoiding_join",
    "build_km",
    "builtin_design",
    "builtin_group",
    "builtin_large_set",
    "close_group",
    "compose_partitions",
    "derived_large_set",
    "dual_large_set",
    "execute_plan",
    "extend_by_hyperplane",
    "gaussian_binomial",
    "generate_table",
    "grassmann_decomposition",
    "iterated_large_set_search",
    "join_chain",
    "orbit_partition",
    "plan_series",
    "realizable_by_series",
    "residual_large_set",
    "solve_exact",
    "span",
    "trivial_group",
    "verify_design",
    "verify_large_set",
]

__version__ = "0.1.0"
