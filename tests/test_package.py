import importlib

import golomb

# the names a command calls or the README's module overview names
PUBLIC = [
    "BudgetExceededError",
    "InconsistentValuesError",
    "InsufficientPointsError",
    "InterpolationError",
    "LeadingCoefficientError",
    "MixedGraph",
    "Quasipolynomial",
    "build_golomb_graph",
    "chromatic_number",
    "chromatic_polynomial",
    "count_proper_colorings",
    "enumerate_acyclic_orientations",
    "enumerate_constrained_orientations",
    "enumerate_golomb_rulers",
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


def test_all_is_pinned_and_every_name_imports():
    assert golomb.__all__ == PUBLIC
    namespace = {}
    exec("from golomb import *", namespace)
    for name in PUBLIC:
        value = namespace[name]
        # each name is the object its own module defines
        assert getattr(importlib.import_module(value.__module__), name) is value
