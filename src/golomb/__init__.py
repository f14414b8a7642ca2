"""Exact enumeration of Golomb rulers, their counting quasipolynomials, and
coloring/orientation machinery for general mixed graphs. Golomb
multiplicities come from the intersection lattice of the equal-sum
hyperplanes (golomb.lattice); the orientation census lists the cells."""

from golomb.arrangement import golomb_hyperplanes, iop_vertices, period_bound
from golomb.config import DEFAULT_NODE_BUDGET
from golomb.errors import (
    BudgetExceededError,
    InconsistentValuesError,
    InsufficientPointsError,
    InterpolationError,
    LeadingCoefficientError,
)
from golomb.golomb_graph import (
    GolombOrientation,
    build_golomb_graph,
    complement_orientation,
    consecutive_subsets,
    enumerate_constrained_orientations,
    region_sign_vector,
)
from golomb.lattice import multiplicity
from golomb.mixed_graphs import (
    MixedGraph,
    chromatic_number,
    chromatic_polynomial,
    compatible_orientation_count,
    count_proper_colorings,
    enumerate_acyclic_orientations,
    is_acyclic_mixed,
    reciprocity_check_mixed,
)
from golomb.quasipolynomial import (
    Quasipolynomial,
    golomb_quasipolynomial,
    interpolate,
    reciprocity_check_golomb,
)
from golomb.rulers import (
    complement,
    count_golomb_rulers,
    dpcs_pairs,
    enumerate_golomb_rulers,
    gaps_from_markings,
    golomb_counts,
    is_golomb,
    markings,
    optimal_length,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DEFAULT_NODE_BUDGET",
    "GolombOrientation",
    "InconsistentValuesError",
    "InsufficientPointsError",
    "InterpolationError",
    "LeadingCoefficientError",
    "MixedGraph",
    "Quasipolynomial",
    "build_golomb_graph",
    "chromatic_number",
    "chromatic_polynomial",
    "compatible_orientation_count",
    "complement",
    "complement_orientation",
    "consecutive_subsets",
    "count_golomb_rulers",
    "count_proper_colorings",
    "dpcs_pairs",
    "enumerate_acyclic_orientations",
    "enumerate_constrained_orientations",
    "enumerate_golomb_rulers",
    "gaps_from_markings",
    "golomb_counts",
    "golomb_hyperplanes",
    "golomb_quasipolynomial",
    "interpolate",
    "iop_vertices",
    "is_acyclic_mixed",
    "is_golomb",
    "markings",
    "multiplicity",
    "optimal_length",
    "period_bound",
    "reciprocity_check_golomb",
    "reciprocity_check_mixed",
    "region_sign_vector",
]
