"""The splitting calculus on Laurent rings over GF(p).

Every split is one primitive, `LaurentPoly.mul_split`: Tr_{q,r}(a * b)
keeps the terms of a * b with all exponents congruent to r mod q, divides
(e - r) by q, and keeps coefficients (the Frobenius fixes GF(p)
pointwise).  The standard splitting phi^e is Tr_{q,0}(1 * f), q = p^e.
Twisted maps premultiply by a rational twist and clear denominators
through the q-th root:
    phi((a/b)^(1/q)) = Tr_{q,0}(a * b^(q-1)) / b.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (FieldMismatchError, NoMutableVertexError,
                     NotAcyclicError, NotDivisibleError,
                     VerificationFailedError)
from .fields import GF, same_field
from .laurent import LaurentPoly, RationalExpr, _power
from .seed import (Seed, _exchange_sum_symbolic, cluster_substitution,
                   express_rational)


def _require_prime_field(obj, p: int):
    if not same_field(obj.field, GF(p)):
        raise FieldMismatchError(
            f"expected coefficients in GF({p}), got {obj.field!r}")


def standard_split(f: LaurentPoly, p: int, e: int = 1) -> LaurentPoly:
    """Apply the standard splitting phi^e to f^(1/p^e): keep terms with all
    exponents divisible by p^e, divide those exponents by p^e.  The
    constant 1 is the grouped factor, so nothing is kept on f."""
    _require_prime_field(f, p)
    if e < 1:
        raise ValueError("e must be at least 1")
    return LaurentPoly.one(f.field, f.n).mul_split(f, p ** e, 0)


@dataclass(frozen=True)
class SplittingMap:
    """A p^(-e)-linear map r -> phi^e((twist * r)^(1/p^e)) on the fraction
    field of the Laurent ring over GF(p)."""

    p: int
    e: int
    twist: RationalExpr

    def __post_init__(self):
        if self.e < 1:
            raise ValueError("e must be at least 1")
        _require_prime_field(self.twist, self.p)

    @classmethod
    def standard(cls, p: int, e: int, n: int) -> "SplittingMap":
        one = RationalExpr(LaurentPoly.one(GF(p), n))
        return cls(p, e, one)

    @property
    def field(self):
        return self.twist.field

    @property
    def n(self) -> int:
        return self.twist.n


def split_apply(m: SplittingMap, r: RationalExpr | LaurentPoly
                ) -> RationalExpr:
    """Evaluate the splitting map on a fraction by clearing denominators:
    with twist*r = a/b and q = p^e, the value is
    Tr_{q,0}(b^(q-1) * a) / b, returned with the final division attempted
    (so Laurent values come back with denominator 1).  A denominator of 1
    is neither powered nor divided by."""
    _require_prime_field(r, m.p)
    fraction = m.twist * r
    a, b = fraction.num, fraction.den
    q = m.p ** m.e
    cleared = _power(b, q - 1).mul_split(a, q, 0)
    return RationalExpr(cleared, b).simplify()


# -- generator of the splitting module -----------------------------------------


def hom_generator(p: int, n: int, values: dict) -> LaurentPoly:
    """Reconstruct the unique twist s with phi((s*x^b)^(1/p)) equal to the
    prescribed values on every basis monomial x^b, 0 <= b_i < p.

    `values` maps those exponent tuples to Laurent polynomials over GF(p);
    missing entries mean zero.  The candidate is
        s = sum_b values[b]^p * x^(-b),
    and the construction is verified on all p^n basis monomials before
    returning; a mismatch raises VerificationFailedError."""
    fld = GF(p)
    box = list(itertools.product(range(p), repeat=n))
    allowed = set(box)
    for b, val in values.items():
        if tuple(b) not in allowed:
            raise ValueError(f"basis exponent {b} outside [0, {p})^{n}")
        _require_prime_field(val, p)
        if val.n != n:
            raise FieldMismatchError("value lives in the wrong Laurent ring")
    s = LaurentPoly.zero(fld, n)
    for b, val in values.items():
        mono = LaurentPoly.monomial(fld, n, tuple(-x for x in b))
        s = s + val ** p * mono
    for b in box:
        expected = values.get(b, LaurentPoly.zero(fld, n))
        got = s.mul_split(LaurentPoly.monomial(fld, n, b), p, 0)
        if got != expected:
            raise VerificationFailedError(
                f"generator check failed on basis exponent {b}: "
                f"{got.render()} != {expected.render()}")
    return s


# -- compatibility with mutation ----------------------------------------------


@dataclass(frozen=True)
class InvarianceReport:
    quiver_digest: str
    vertex: int
    p: int
    checked: int
    failures: tuple[tuple[tuple[int, ...], str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def splitting_invariance_check(seed: Seed, k: int, p: int,
                               sample) -> InvarianceReport:
    """Verify that the standard splitting of the seed's own cluster z is
    also the standard splitting of its neighbour at k: for each alpha in
    `sample`, phi_z((x'^alpha)^(1/p)), re-read through the step
    `cluster_substitution(seed, (k,))`, must equal x'^(alpha/p) when p
    divides alpha componentwise and 0 otherwise.  Only z_k changes, to
    x'_k = N_k / z_k (column k of B only changes sign, so N_k is the same
    in both quivers); `seed.vars` fixes the field and nothing else.

    The image is `split_apply` of the standard map, computed once per
    power of x'_k: with x'_k^alpha_k = a/b, the cleared numerator
    c = a * b^(p-1) (or a when b is 1) is cached with b by alpha_k, and
    an image is the split of c * x^m, with m = alpha with coordinate k
    set to 0, over b.

    Each residue class is re-read once.  Write m = rho + p*beta with rho
    in [0, p)^n, so rho_k = beta_k = 0.  The split of c * x^m is x^beta
    times the split of c * x^rho, term for term, and x^beta is a unit
    without z_k: it passes through the division by b, the re-reading and
    the final division, and the expected value scales by it too.  So
    alpha has the verdict of its representative rho + alpha_k * e_k, and
    the check decides each class once, on that representative, which is
    also its cache key.  The vectors of a failing class are checked one by
    one, so the failures and their texts are those of a per-vector check.
    A vector of the wrong length, or with an entry that is not an int,
    raises ValueError before any of its work; a bool counts as 0 or 1.

    Budgets: the product for each alpha_k is charged once, and a split
    charges only the pairs it keeps, under `max_terms` and the raw
    allowance.  Under a `budgets.raw_meter` block each class is charged
    once, not each vector, so a sample that used to exhaust the allowance
    may now pass."""
    _require_prime_field(seed.vars[0], p)
    fld, n = seed.field, seed.n
    steps = cluster_substitution(seed, (k,))
    (_, numer), = steps
    xk_new = RationalExpr(numer * LaurentPoly.variable(fld, n, k).inverse())
    powers: dict[int, tuple] = {}
    classes: dict[tuple[int, ...], bool] = {}

    def failure(alpha):
        """None when alpha's image is x'^(alpha/p) or 0 as it should be,
        else the failure text."""
        cached = powers.get(alpha[k])
        if cached is None:
            power = xk_new ** alpha[k]
            a, b = power.num, power.den
            c = a if b.is_one() else a * b ** (p - 1)
            cached = powers[alpha[k]] = b, c
        b, c = cached
        mono = LaurentPoly.monomial(fld, n, alpha[:k] + (0,) + alpha[k + 1:])
        image = RationalExpr(c.mul_split(mono, p, 0), b).simplify()
        moved = express_rational(image, steps)
        if all(a % p == 0 for a in alpha):
            expected = LaurentPoly.monomial(
                fld, n, tuple(a // p for a in alpha))
        else:
            expected = LaurentPoly.zero(fld, n)
        try:
            got = moved.as_laurent()
        except NotDivisibleError:
            return ("image is not Laurent in the mutated cluster: "
                    + moved.render())
        if got != expected:
            return f"{got.render()} != {expected.render()}"
        return None

    failures = []
    checked = 0
    for alpha in sample:
        alpha = tuple(alpha)
        if len(alpha) != n:
            raise ValueError(f"alpha {alpha} has wrong length")
        for a in alpha:
            if not isinstance(a, int):
                raise ValueError(f"alpha {alpha} has entry {a!r}, not an int")
        checked += 1
        rep = [a % p for a in alpha]
        rep[k] = alpha[k]
        rep = tuple(rep)
        passed = classes.get(rep)
        if passed is None:
            passed = classes[rep] = failure(rep) is None
        if passed:
            continue
        text = failure(alpha)
        if text is not None:
            failures.append((alpha, text))
    return InvarianceReport(seed.quiver.digest(), k, p, checked,
                            tuple(failures))


# -- strong F-regularity witnesses at a sink --------------------------------------


@dataclass(frozen=True)
class SinkWitness:
    sink: int
    p: int
    e: int
    map: SplittingMap
    value: RationalExpr
    verified: bool


def freg_witness_sink(seed: Seed, p: int) -> SinkWitness:
    """Build the splitting that witnesses strong F-regularity from a sink
    of an acyclic seed, and verify it sends x_sink^(1/p^e) to 1.

    Working in the seed's own cluster: with x' = (p_plus + p_minus)/x_sink
    and the twist x' / p_minus, the minimal usable e is the one with p^e
    strictly larger than every exponent of p_plus and p_minus."""
    quiver = seed.quiver
    if not quiver.mutable:
        raise NoMutableVertexError("need at least one mutable vertex")
    if not quiver.is_acyclic():
        raise NotAcyclicError("the mutable subquiver has an oriented cycle")
    _require_prime_field(seed.vars[0], p)
    fld, n = seed.field, seed.n
    k = quiver.find_sink()
    plus_exp, minus_exp = quiver.exchange_exponents(k)
    largest = max(max(plus_exp), max(minus_exp))
    e = 1
    while p ** e <= largest:
        e += 1
    p_minus = LaurentPoly.monomial(fld, n, minus_exp)
    xk = LaurentPoly.variable(fld, n, k)
    x_new = _exchange_sum_symbolic(quiver, k, fld, n) * xk.inverse()
    twist = RationalExpr(x_new * p_minus.inverse())
    m = SplittingMap(p, e, twist)
    value = split_apply(m, xk)
    return SinkWitness(k, p, e, m, value, value.is_one())
