"""Exceptions shared across the enumeration and interpolation modules."""


class BudgetExceededError(RuntimeError):
    """A search used more nodes than its configured budget.

    Signals that the instance is too large for the budget, not that the
    answer would have been wrong.
    """

    def __init__(self, budget: int, where: str):
        super().__init__(f"search budget of {budget} nodes exceeded in {where}")
        self.budget = budget
        self.where = where


class InterpolationError(ValueError):
    """Base class for failures of the per-residue interpolation."""


class InsufficientPointsError(InterpolationError):
    def __init__(self, residue: int, have: int, need: int):
        super().__init__(
            f"residue class {residue} has {have} sample(s) but needs {need}"
        )
        self.residue = residue
        self.have = have
        self.need = need


class InconsistentValuesError(InterpolationError):
    """Surplus samples in a residue class do not lie on one polynomial of the
    hypothesised degree; the degree or period guess is wrong."""

    def __init__(self, residue: int, t: int, expected, actual):
        super().__init__(
            f"residue class {residue}: value at t={t} is {actual}, "
            f"but the degree hypothesis predicts {expected}"
        )
        self.residue = residue
        self.t = t
        self.expected = expected
        self.actual = actual


class LeadingCoefficientError(ValueError):
    """A counting quasipolynomial came out with the wrong leading coefficient,
    which means a wrong period hypothesis or a counting bug."""
