"""Sign bookkeeping for the log volume form dx1/x1 ^ ... ^ dxn/xn.

A seed is read through its quiver, in its own cluster x, so a path is
walked as its change-of-cluster steps (`cluster_substitution`).  Mutation
at k replaces x_k by x_k' = N_k/x_k, N_k = p+ + p-, and fixes the others:
the form picks up the Jacobian factor (dx_k'/dx_k) * x_k/x_k', which is
exactly -1 since N_k does not involve x_k.  The check recomputes it
through the arithmetic kernel instead of trusting the algebra."""

from __future__ import annotations

from .errors import VerificationFailedError
from .laurent import LaurentPoly
from .seed import Seed, cluster_substitution


def volume_form_mutation_sign(seed: Seed, k: int) -> int:
    """The Jacobian sign of mutation at k, always -1; the identity
    x_k * d(x_k')/dx_k + x_k' = 0 is recomputed exactly in the seed's own
    chart and a failure raises (it would mean broken arithmetic)."""
    return mutation_path_sign(seed, (k,))


def mutation_path_sign(seed: Seed, path) -> int:
    """Accumulated Jacobian sign along a mutation path: (-1)^length, with
    the one-step identity verified in the chart of every step."""
    sign = 1
    for k, numer in cluster_substitution(seed, path):
        xk = LaurentPoly.variable(seed.field, seed.n, k)
        x_new = numer * xk.inverse()
        residue = xk * x_new.partial_derivative(k) + x_new
        if not residue.is_zero():
            raise VerificationFailedError(
                f"Jacobian identity failed at vertex {k}: "
                f"residue {residue.render()}")
        sign = -sign
    return sign
