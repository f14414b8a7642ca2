"""Exact feasibility of strict homogeneous integer systems.

Decides whether an open cone {z in R^m : row . z > 0 for every row} is
nonempty. By Gordan's alternative exactly one of two things holds: some z
has A z > 0, or some y >= 0, y != 0 has y'A = 0. The solver works on the
second, the Farkas side {y >= 0 : A'y = 0, sum(y) = 1}: m + 1 equality rows
over one column per row of A, solved by a single phase-1 simplex with one
artificial column per equality. The tableau is kept in fraction-free
integer form (two-term Edmonds pivoting), so no rational gcd work happens
during pivots, and Bland's rule (first improving column, lowest basis index
on ratio ties) rules out cycling.

Both outcomes come with a certificate:

- Phase 1 reaches 0: the basic y values are a Farkas vector and the cone
  is empty.
- Phase 1 stops above 0: the objective row at the artificial columns holds
  dual multipliers (w, lambda) with lambda > 0 and row . w + lambda <= 0
  for every row, so z = -w / lambda has row . z >= 1 everywhere.

Neither is taken on trust. Each is re-checked against every row in exact
integer arithmetic on the scaled tableau values (row . (-w) >= lambda; y >= 0,
sum(y) > 0 and y'A = 0) before any Fraction is built, and a certificate that
fails its check raises instead of returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: tuple[Fraction, ...] | None        # z with every row . z >= 1
    certificate: tuple[Fraction, ...] | None    # Farkas y proving emptiness

    def __bool__(self) -> bool:
        return self.feasible


def _verify_witness(rows, w, lam) -> bool:
    """row . (-w) >= lam > 0 for every row, i.e. z = -w / lam has row . z >= 1."""
    return lam > 0 and all(-sum(c * x for c, x in zip(row, w)) >= lam for row in rows)


def _verify_certificate(rows, y) -> bool:
    """y >= 0, sum(y) > 0 and y'A = 0."""
    if any(v < 0 for v in y) or sum(y) <= 0:
        return False
    return all(sum(v * c for v, c in zip(y, col)) == 0 for col in zip(*rows))


def strict_cone_feasibility(rows) -> FeasibilityResult:
    """Decide {z : row . z > 0 for all rows} != {} with verified certificates.

    rows: integer coefficient tuples, all the same length m >= 1. The empty
    system is trivially feasible.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        return FeasibilityResult(True, None, None)
    n = len(rows)
    m = len(rows[0])
    if any(len(r) != m for r in rows):
        raise ValueError("rows must all have the same length")

    # columns: y(n) | artificial(m + 1) | rhs; equality rows: column j of A
    # (right-hand side 0) for j < m, then sum(y) = 1
    width = n + m + 1
    tab: list[list[int]] = []
    for j in range(m + 1):
        r = [row[j] for row in rows] if j < m else [1] * n
        r += [0] * (m + 2)
        r[n + j] = 1
        tab.append(r)
    tab[m][width] = 1
    basis = list(range(n, width))
    # phase-1 objective (maximize -sum of artificials), expressed over the
    # starting basis: entering columns are those with positive coefficient
    obj = [sum(col) for col in zip(*tab)]
    div = 1  # common denominator of the integer tableau

    while True:
        col = next((j for j in range(n) if obj[j] > 0), None)
        if col is None:
            break
        piv = None
        for i in range(m + 1):
            t = tab[i][col]
            if t > 0:
                if piv is None:
                    piv = i
                else:
                    lhs = tab[i][width] * tab[piv][col]
                    rhs = tab[piv][width] * t
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[piv]):
                        piv = i
        if piv is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        pivot_val = tab[piv][col]
        pivot_row = tab[piv]
        for i in range(m + 1):
            if i == piv:
                continue
            row_i = tab[i]
            factor = row_i[col]
            if factor:
                tab[i] = [
                    (a * pivot_val - factor * b) // div
                    for a, b in zip(row_i, pivot_row)
                ]
            else:
                tab[i] = [a * pivot_val // div for a in row_i]
        factor = obj[col]
        obj = [
            (a * pivot_val - factor * b) // div for a, b in zip(obj, pivot_row)
        ]
        basis[piv] = col
        div = pivot_val

    # every value below is the true one times div > 0, which no sign test
    # and no ratio changes
    if obj[width] == 0:
        y = [0] * n
        for i, b in enumerate(basis):
            if b < n:
                y[b] = tab[i][width]
        if not _verify_certificate(rows, y):
            raise AssertionError("simplex produced an invalid infeasibility certificate")
        return FeasibilityResult(False, None, tuple(Fraction(v, div) for v in y))

    w = obj[n:n + m]
    lam = obj[n + m]
    if not _verify_witness(rows, w, lam):
        raise AssertionError("simplex produced an invalid witness")
    return FeasibilityResult(True, tuple(Fraction(-x, lam) for x in w), None)
