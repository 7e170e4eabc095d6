"""Splitting of the presented lower-bound algebra.

For an initial seed on n vertices, the algebra generated by the cluster
variables and their first mutations is presented on 2n polynomial
variables x_1..x_n, y_1..y_n by the ideal with generators
    g_i = x_i * y_i - p_i^+ - p_i^-        (one per vertex),
where p_i^+/- are the exchange monomials of the quiver.  With
f = g_1 * ... * g_n, the map
    psi(r) = basis-split of (f^(p-1) * r)^(1/p)
splits the presentation: psi(1) = 1, and the ideal (f) is carried into
itself.  The basis split keeps exactly the monomials with every exponent
congruent to p-1 mod p, subtracts p-1 from each exponent and divides by p
(the monomial x^(p-1, ..., p-1) is the one the dual basis picks out).

psi never forms the whole product f^(p-1) * r: the fused
`LaurentPoly.mul_split` pairs each term of f^(p-1) only with the terms
of r that complete it to the kept residue class.  f^(p-1) itself is built
once per presentation by plain products.  Both run in one
`budgets.raw_meter()` block, so they share one max_raw_products
allowance, and inside an enclosing meter they draw on what it has left.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import budgets
from .errors import FieldMismatchError, NotDivisibleError
from .fields import GF, same_field
from .laurent import LaurentPoly
from .seed import Seed, _exchange_sum_symbolic


@dataclass(eq=False)
class LowerBoundPresentation:
    """Presentation data over the seed's coefficient field.

    Polynomials in the 2n presentation variables use exponent vectors of
    length 2n ordered x_1..x_n, y_1..y_n; `names` matches that order."""

    seed: Seed
    gens: tuple[LaurentPoly, ...]          # g_i, in 2n variables
    f: LaurentPoly                          # product of the g_i
    xprime: tuple[LaurentPoly, ...]         # first mutations, in n variables

    def __post_init__(self):
        self._fpow: dict[int, LaurentPoly] = {}

    @property
    def n(self) -> int:
        return self.seed.n

    @property
    def field(self):
        return self.seed.field

    @property
    def names(self) -> list[str]:
        n = self.n
        return [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]


def lower_bound_generators(seed: Seed) -> LowerBoundPresentation:
    """Build the presentation from an initial seed (identity cluster)."""
    if not seed.is_initial():
        raise ValueError("the lower-bound presentation needs an initial seed")
    fld, n = seed.field, seed.n
    nn = 2 * n
    gens = []
    xprime = []
    pad = (0,) * n
    for i in range(n):
        plus_small, minus_small = seed.quiver.exchange_exponents(i)
        plus, minus = plus_small + pad, minus_small + pad
        xy = [0] * nn
        xy[i] = 1
        xy[n + i] = 1
        g = LaurentPoly.from_terms(fld, nn, [
            (tuple(xy), 1), (plus, -1), (minus, -1)])
        gens.append(g)
        small = _exchange_sum_symbolic(seed.quiver, i, fld, n)
        xprime.append(small * LaurentPoly.variable(fld, n, i).inverse())
    f = gens[0]
    for g in gens[1:]:
        f = f * g
    return LowerBoundPresentation(seed, tuple(gens), f, tuple(xprime))


def _f_power(pres: LowerBoundPresentation, exponent: int) -> LaurentPoly:
    """f^exponent for exponent >= 1, factor by factor, cached on the
    presentation."""
    cached = pres._fpow.get(exponent)
    if cached is not None:
        return cached
    out = pres.f
    for _ in range(exponent - 1):
        for g in pres.gens:
            out = out * g
    pres._fpow[exponent] = out
    return out


def psi_f_apply(pres: LowerBoundPresentation, r: LaurentPoly,
                p: int) -> LaurentPoly:
    """psi(r) = basis-split of (f^(p-1) * r)^(1/p).

    r must be a polynomial (no negative exponents) in the 2n presentation
    variables over GF(p)."""
    if not same_field(pres.field, GF(p)):
        raise FieldMismatchError(
            f"presentation is over {pres.field!r}, expected GF({p})")
    if not same_field(r.field, GF(p)) or r.n != 2 * pres.n:
        raise FieldMismatchError(
            "argument must live in the 2n-variable ring over GF(p)")
    if any(a < 0 for e, _ in r for a in e):
        raise ValueError("psi arguments live in the polynomial ring; "
                         "negative exponents are not allowed")
    with budgets.raw_meter():
        return _f_power(pres, p - 1).mul_split(r, p, p - 1)


def verify_lb_splitting(pres: LowerBoundPresentation, p: int) -> bool:
    """The splitting condition itself: psi(1) = 1 exactly."""
    one = LaurentPoly.one(GF(p), 2 * pres.n)
    return psi_f_apply(pres, one, p) == one


@dataclass(frozen=True)
class CompatReport:
    p: int
    checked: int
    failures: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def compat_check(pres: LowerBoundPresentation, p: int,
                 samples) -> CompatReport:
    """psi(f * g) must land back in the ideal (f): zero or exactly
    divisible by f.  `samples` iterates over polynomials g (or exponent
    tuples, taken as monomials)."""
    failures = []
    checked = 0
    fld = GF(p)
    for g in samples:
        if not isinstance(g, LaurentPoly):
            g = LaurentPoly.monomial(fld, 2 * pres.n, tuple(g))
        checked += 1
        value = psi_f_apply(pres, pres.f * g, p)
        if value.is_zero():
            continue
        try:
            value.exact_divide(pres.f)
        except NotDivisibleError:
            failures.append((g.render(pres.names),
                             value.render(pres.names)))
    return CompatReport(p, checked, tuple(failures))


def degree_bounded_monomials(nvars: int, max_degree: int):
    """All exponent tuples in `nvars` variables with total degree
    <= max_degree, in lexicographic order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for d in range(remaining + 1):
            rec(prefix + [d], remaining - d, slots - 1)

    rec([], max_degree, nvars)
    return sorted(out)


def localization_identity_check(pres: LowerBoundPresentation) -> bool:
    """Substituting y_i = x_i' kills every generator g_i: the presentation
    collapses onto the Laurent ring after inverting the cluster monomial.

    The x_i' are Laurent polynomials, so the substitution stays in the
    Laurent ring: each term is its x-monomial times powers of the x_j'."""
    fld, n = pres.field, pres.n
    for g in pres.gens:
        total = None
        for exps, c in g:
            term = LaurentPoly.monomial(fld, n, exps[:n], c)
            for xp, a in zip(pres.xprime, exps[n:]):
                if a:
                    term = term * xp ** a
            total = term if total is None else total + term
        if not total.is_zero():
            return False
    return True
