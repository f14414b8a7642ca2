"""Exact enumeration of Golomb rulers, their counting quasipolynomials, and
coloring/orientation machinery for general mixed graphs. Golomb
multiplicities come from the intersection lattice of the equal-sum
hyperplanes (golomb.lattice); the orientation census lists the cells.

`__all__` holds exactly the names a command calls or the README's module
overview names; everything else belongs to its module."""

from golomb.errors import (
    BudgetExceededError,
    InconsistentValuesError,
    InsufficientPointsError,
    InterpolationError,
    LeadingCoefficientError,
)
from golomb.golomb_graph import build_golomb_graph, enumerate_constrained_orientations
from golomb.lattice import cell_count, iop_vertices, multiplicity, period_bound
from golomb.mixed_graphs import (
    MixedGraph,
    chromatic_number,
    chromatic_polynomial,
    count_proper_colorings,
    enumerate_acyclic_orientations,
    reciprocity_check_mixed,
)
from golomb.quasipolynomial import (
    Quasipolynomial,
    golomb_quasipolynomial,
    interpolate,
    reciprocity_check_golomb,
)
from golomb.rulers import golomb_counts, is_golomb, optimal_length

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "InconsistentValuesError",
    "InsufficientPointsError",
    "InterpolationError",
    "LeadingCoefficientError",
    "MixedGraph",
    "Quasipolynomial",
    "build_golomb_graph",
    "cell_count",
    "chromatic_number",
    "chromatic_polynomial",
    "count_proper_colorings",
    "enumerate_acyclic_orientations",
    "enumerate_constrained_orientations",
    "golomb_counts",
    "golomb_quasipolynomial",
    "interpolate",
    "iop_vertices",
    "is_golomb",
    "multiplicity",
    "optimal_length",
    "period_bound",
    "reciprocity_check_golomb",
    "reciprocity_check_mixed",
]
