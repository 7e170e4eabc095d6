"""Process-wide resource budgets.

Every potentially explosive routine (polynomial products, exact division,
seed exploration, the f^(p-1) expansion) checks the active budget set and
raises BudgetExceededError instead of thrashing.  Budgets are plain data;
`limits(...)` temporarily overrides fields for a with-block.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Budgets:
    max_terms: int = 10**6          # terms per polynomial
    max_seeds: int = 10**5          # distinct seeds per exploration
    max_division_steps: int = 10**6  # quotient terms per exact division
    max_raw_products: int = 10**7   # raw term-products per metered region


_current = Budgets()

# Cumulative raw-product meter.  Term counts alone cannot bound running
# time: polynomials supported on a line keep merging products into few
# terms while the raw pairwise work grows quadratically.  The kernels
# charge every exponent-pair they touch against an allowance; outside any
# raw_meter() block each kernel call gets a fresh allowance of
# max_raw_products, inside one the whole block shares a single allowance.
_raw_active: list | None = None


@contextmanager
def raw_meter(limit: int | None = None):
    """Share one cumulative raw-product allowance across every kernel
    call in the block (default: the current max_raw_products)."""
    global _raw_active
    if limit is None:
        limit = current().max_raw_products
    saved = _raw_active
    _raw_active = [int(limit)]
    try:
        yield _raw_active
    finally:
        _raw_active = saved


def raw_allowance() -> list:
    """The active cumulative meter, or a fresh single-call allowance."""
    if _raw_active is not None:
        return _raw_active
    return [current().max_raw_products]


def current() -> Budgets:
    return _current


@contextmanager
def limits(**overrides):
    """Temporarily override selected budget fields."""
    global _current
    before = _current
    _current = replace(before, **overrides)
    try:
        yield _current
    finally:
        _current = before
