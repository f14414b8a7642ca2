"""The search node budget: its default, its environment override, and the
one driver that runs a search split on its first choice under it; and
the largest m that the census and the intersection lattice enumerate."""

from __future__ import annotations

import os
from contextlib import nullcontext

from golomb.errors import BudgetExceededError

DEFAULT_NODE_BUDGET = 10**9
DEFAULT_M_BOUND = 6
BUDGET_ENV_VAR = "GOLOMB_BUDGET"


def resolve_budget(explicit: int | None = None) -> int:
    """Explicit value if given, else the GOLOMB_BUDGET environment variable,
    else the built-in default."""
    if explicit is not None:
        if explicit <= 0:
            raise ValueError("budget must be positive")
        return explicit
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
        if value <= 0:
            raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_NODE_BUDGET


def run_parts(search, parts, budget: int, jobs: int, where: str, take) -> int:
    """search(budget, part) -> (result, nodes) for every part, in order:
    each result is handed to take(result) as it arrives, and the node total
    is returned. With jobs == 1, or one part, the parts run here, each on
    what is left of the budget; with jobs > 1 they run on a fork pool of at
    most one worker per part, each on the whole budget. Either way the
    first running total above the budget raises BudgetExceededError,
    naming the whole budget, and that ends the pool."""
    used = 0
    pool = None
    if jobs > 1 and len(parts) > 1:
        # imported here, so a serial run never loads multiprocessing
        import multiprocessing

        pool = multiprocessing.get_context("fork").Pool(
            min(jobs, len(parts)), _WORKER.update, ({"search": search, "budget": budget},)
        )
    with pool or nullcontext():
        # lazy, so each part here is given what the parts before it left
        runs = pool.imap(_run_part, parts) if pool else (search(budget - used, p) for p in parts)
        try:
            for result, nodes in runs:
                used += nodes
                if used > budget:
                    raise BudgetExceededError(budget, where)
                take(result)
        except BudgetExceededError:
            raise BudgetExceededError(budget, where) from None
    return used


# a pool worker's search and budget, set by the pool's initializer: they
# are inherited through fork, never pickled, so any callable will do
_WORKER: dict = {}


def _run_part(part):
    return _WORKER["search"](_WORKER["budget"], part)
