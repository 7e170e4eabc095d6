"""Resource budgets, per context.

Every potentially explosive routine (polynomial products, exact division,
seed exploration, the f^(p-1) expansion) checks the active budget set and
raises BudgetExceededError instead of thrashing.  Budgets are plain data;
`limits(...)` temporarily overrides fields for a with-block.

Polynomial arithmetic has two budgets.  No polynomial a kernel or a
division produces (product, quotient or remainder) has more than
max_terms terms, and no call does more pairwise work than the raw
allowance.  The kernels alone charge it: a kernel call is charged its
whole pairwise work before it forms any pair.  A power `f ** k` is
metered as one call: its whole chain of squares and products runs in one
`raw_meter()`.  A polynomial keeps its latest power, and asking for it
again forms no pairs and is charged nothing.

The active budgets and the active raw meter live in one ContextVar, so a
with-block is seen only by the code it encloses: an asyncio task sees its
own blocks and not a sibling's, and threads never see each other's.  A
new thread starts with the default `Budgets()` and no meter unless it is
run under `contextvars.copy_context().run`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Budgets:
    max_terms: int = 10**6          # terms per polynomial
    max_seeds: int = 10**5          # distinct seeds per exploration
    max_raw_products: int = 10**7   # raw term-products per metered region


# (active budgets, active raw meter or None).  Term counts alone cannot
# bound running time: polynomials supported on a line keep merging
# products into few terms while the raw pairwise work grows
# quadratically.  Each kernel call charges the exponent-pairs it will
# form against an allowance, a one-element list; outside any raw_meter() block
# each kernel call gets a fresh allowance of max_raw_products, inside one
# the whole block shares the meter.
_active: ContextVar[tuple[Budgets, list | None]] = ContextVar(
    "clusterfrob_budgets", default=(Budgets(), None))


@contextmanager
def raw_meter(limit: int | None = None):
    """Share one cumulative raw-product allowance across every kernel
    call in the block (default: the current max_raw_products).

    Inside another meter the block starts with the smaller of `limit` and
    what the enclosing meter has left, and on exit, normal or not, the
    enclosing meter is charged what the block used."""
    bres, outer = _active.get()
    start = bres.max_raw_products if limit is None else int(limit)
    if outer is not None:
        start = min(start, outer[0])
    meter = [start]
    token = _active.set((bres, meter))
    try:
        yield meter
    finally:
        _active.reset(token)
        if outer is not None:
            outer[0] -= start - meter[0]


def raw_allowance() -> list:
    """The active cumulative meter, or a fresh single-call allowance."""
    bres, meter = _active.get()
    if meter is not None:
        return meter
    return [bres.max_raw_products]


def current() -> Budgets:
    return _active.get()[0]


@contextmanager
def limits(**overrides):
    """Temporarily override selected budget fields."""
    bres, meter = _active.get()
    bres = replace(bres, **overrides)
    token = _active.set((bres, meter))
    try:
        yield bres
    finally:
        _active.reset(token)
