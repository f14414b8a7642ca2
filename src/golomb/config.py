"""The search node budget: its default and its environment override."""

from __future__ import annotations

import os

DEFAULT_NODE_BUDGET = 10**9
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
