import ast
import importlib
import re
from pathlib import Path

import pytest

import golomb
from golomb.errors import BudgetExceededError
from golomb.fixtures import FIXTURE_GRAPHS
from golomb.lattice import orthant_lattice

README = Path(__file__).resolve().parent.parent / "README.md"

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


def test_readme_names_every_public_name():
    # a public name needs a command or a line in the README's overview
    text = README.read_text(encoding="utf-8")
    assert [name for name in golomb.__all__ if f"`{name}`" not in text] == []


def test_every_top_level_definition_is_used():
    # a function or class in src/golomb that no other code there names and
    # that golomb.__all__ does not export is dead, or an oracle for tests/
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(golomb.__file__).parent.glob("*.py"))
    }
    definitions = [
        (name, node)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert definitions

    def names_outside(definition):
        inside = set(map(id, ast.walk(definition)))
        for tree in trees.values():
            for node in ast.walk(tree):
                if id(node) in inside:
                    continue
                if isinstance(node, ast.Name):
                    yield node.id
                elif isinstance(node, ast.Attribute):
                    yield node.attr

    unused = [
        f"{module}:{node.name}"
        for module, node in definitions
        if node.name not in golomb.__all__ and node.name not in set(names_outside(node))
    ]
    assert unused == []


def test_no_module_reads_the_environment():
    # every result is a function of the call's own arguments
    reads = re.compile(r"^\s*(import|from)\s+os\b|\b(environ|getenv)\b", re.MULTILINE)
    modules = sorted(Path(golomb.__file__).parent.rglob("*.py"))
    assert modules
    assert [p.name for p in modules if reads.search(p.read_text(encoding="utf-8"))] == []


TRIANGLE = FIXTURE_GRAPHS["triangle"]
SEARCHES = [
    (golomb.golomb_counts, (3, 1, 10)),
    (golomb.optimal_length, (3,)),
    (golomb.iop_vertices, (3,)),
    (golomb.period_bound, (3,)),
    (golomb.golomb_quasipolynomial, (2,)),
    (golomb.reciprocity_check_golomb, (2, [0])),
    (golomb.enumerate_constrained_orientations, (3,)),
    (orthant_lattice, (3,)),
    (golomb.multiplicity, ((1, 2),)),
    (golomb.count_proper_colorings, (TRIANGLE, 2)),
    (golomb.chromatic_polynomial, (TRIANGLE,)),
    (golomb.enumerate_acyclic_orientations, (TRIANGLE,)),
    (golomb.reciprocity_check_mixed, (TRIANGLE, 1)),
    (golomb.chromatic_number, (TRIANGLE,)),
]


@pytest.mark.parametrize("budget", [0, -5])
@pytest.mark.parametrize("search, args", SEARCHES, ids=[s.__name__ for s, _ in SEARCHES])
def test_a_budget_below_one_lets_no_node_through(search, args, budget):
    with pytest.raises(BudgetExceededError):
        search(*args, budget=budget)
