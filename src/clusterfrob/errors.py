"""Exception hierarchy shared by every module."""

from __future__ import annotations


class ClusterFrobError(Exception):
    """Base class for all package errors."""


class FieldMismatchError(ClusterFrobError):
    """Operands live over different fields or different variable counts."""


class NotDivisibleError(ClusterFrobError):
    """Exact division failed: no Laurent quotient exists (or none was found
    within the configured budgets)."""


class NotLaurentError(ClusterFrobError):
    """An element failed to be a Laurent polynomial in the requested cluster."""

    def __init__(self, message: str, path: tuple[int, ...] = ()):
        super().__init__(message)
        self.path = path


class MutationAtFrozenError(ClusterFrobError):
    """Mutation was requested at a frozen vertex."""


class BudgetExceededError(ClusterFrobError):
    """A configured budget ran out.  `budget` names which one."""

    def __init__(self, budget: str, detail: str = ""):
        message = f"budget exceeded: {budget}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.budget = budget


class NotAcyclicError(ClusterFrobError):
    """The mutable part of the quiver contains an oriented cycle."""


class NoMutableVertexError(ClusterFrobError):
    """The quiver has no mutable vertex to work with."""


class BadCharacteristicError(ClusterFrobError):
    """The construction does not exist in this characteristic."""


class VerificationFailedError(ClusterFrobError):
    """An internal exactness check that must hold did not."""


class LaurentViolationError(ClusterFrobError):
    """A mutation at `vertex` (0-based) produced a non-Laurent variable.
    From a quiver's initial seed this signals an implementation bug; from
    given `vars` it can mean they are not a cluster of the quiver."""

    def __init__(self, message: str, vertex: int):
        super().__init__(message)
        self.vertex = vertex


class QuiverFormatError(ClusterFrobError):
    """A quiver/seed file failed to parse or validate."""
