"""The Markov quiver worked end to end.

The triangle quiver with a-fold arrows 1 -> 2 -> 3 -> 1 carries the
distinguished element M = (x1^a + x2^a + x3^a)/(x1 x2 x3), which satisfies
the relation x1*x2*x3*M = x1^a + x2^a + x3^a and is homogeneous of degree
a - 3 for the grading deg(x_i) = 1.  For a = 2 the twist M^3/6 defines a
splitting sending (x1 x2 x3)^(1/p) to 1 whenever p is not 2 or 3; for
a >= 3 the grading forces every splitting value of a positive-degree
element to be zero or again of positive degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadCharacteristicError, VerificationFailedError
from .fields import GF, QQ
from .frobenius import SplittingMap, split_apply, standard_split
from .laurent import LaurentPoly, RationalExpr
from .quiver import Quiver
from .seed import Seed, initial_seed


def markov_quiver(a: int = 2) -> Quiver:
    if a < 2:
        raise ValueError("the Markov family needs a >= 2")
    b = ((0, a, -a), (-a, 0, a), (a, -a, 0))
    return Quiver(3, b)


def markov_seed(a: int = 2, coefficient_field=QQ) -> Seed:
    """Initial seed on the a-fold Markov triangle (arrows 1->2->3->1)."""
    return initial_seed(markov_quiver(a), coefficient_field)


def markov_M(a: int = 2, coefficient_field=QQ) -> RationalExpr:
    """M = (x1^a + x2^a + x3^a)/(x1 x2 x3); the defining relation is
    asserted before returning."""
    if a < 2:
        raise ValueError("the Markov family needs a >= 2")
    fld = coefficient_field
    num = LaurentPoly.from_terms(fld, 3, [((a, 0, 0), 1), ((0, a, 0), 1),
                                          ((0, 0, a), 1)])
    den = LaurentPoly.monomial(fld, 3, (1, 1, 1))
    m = RationalExpr(num, den)
    relation = m * RationalExpr(den) - RationalExpr(num)
    if not relation.is_zero():
        raise VerificationFailedError("Markov relation failed to vanish")
    return m


# -- gradings -------------------------------------------------------------------


@dataclass(frozen=True)
class Grading:
    """Weights for k[x1, x2, x3, M]: deg(x_i) = 1 and deg(M) = a - 3, which
    makes the Markov relation homogeneous of degree a."""

    a: int

    @property
    def weights(self) -> tuple[int, int, int, int]:
        return (1, 1, 1, self.a - 3)

    def degree(self, exps) -> int:
        exps = tuple(exps)
        if len(exps) != 4:
            raise ValueError("expected exponents for (x1, x2, x3, M)")
        return sum(w * e for w, e in zip(self.weights, exps))

    def is_homogeneous(self, poly: LaurentPoly) -> bool:
        """poly lives in the 4-variable ring (x1, x2, x3, M)."""
        degs = {self.degree(e) for e, _ in poly}
        return len(degs) <= 1

    def relation_poly(self, coefficient_field=QQ) -> LaurentPoly:
        """x1*x2*x3*M - x1^a - x2^a - x3^a as a 4-variable polynomial."""
        fld = coefficient_field
        return LaurentPoly.from_terms(fld, 4, [
            ((1, 1, 1, 1), 1),
            ((self.a, 0, 0, 0), -1),
            ((0, self.a, 0, 0), -1),
            ((0, 0, self.a, 0), -1),
        ])


# -- the a = 2 certificate ----------------------------------------------------------


@dataclass(frozen=True)
class MarkovCertificate:
    p: int
    e: int
    map: SplittingMap
    value: RationalExpr
    passed: bool


def markov_freg_certificate(p: int, e: int = 1) -> MarkovCertificate:
    """Strong F-regularity witness for the a = 2 Markov ring: the map with
    twist M^3/6 must send (x1 x2 x3)^(1/p^e) to exactly 1.

    Characteristics 2 and 3 are refused: 6 is not invertible there (and the
    construction genuinely fails, it is not an implementation gap)."""
    if p in (2, 3):
        raise BadCharacteristicError(
            f"the M^3/6 twist needs 6 invertible; characteristic {p} refused")
    fld = GF(p)
    m_elt = markov_M(2, fld)
    twist = m_elt ** 3 * RationalExpr.constant(fld, 3, fld.invert(fld.coerce(6)))
    smap = SplittingMap(p, e, twist)
    c = LaurentPoly.monomial(fld, 3, (1, 1, 1))
    value = split_apply(smap, c)
    return MarkovCertificate(p, e, smap, value, value.is_one())


# -- the a >= 3 graded obstruction ---------------------------------------------------


@dataclass(frozen=True)
class ObstructionReport:
    a: int
    p: int
    e: int
    deg_m: int
    relation_homogeneous: bool
    checked: int
    failures: tuple[tuple[tuple[int, int, int, int], str], ...]

    @property
    def ok(self) -> bool:
        return self.relation_homogeneous and not self.failures


def default_obstruction_sample(a: int, max_degree: int = 5,
                               max_m_power: int = 2):
    """All monomials x1^d1 x2^d2 x3^d3 M^m with d1+d2+d3 <= max_degree and
    m <= max_m_power whose grading degree is positive."""
    grading = Grading(a)
    out = []
    for total in range(max_degree + 1):
        for d1 in range(total + 1):
            for d2 in range(total - d1 + 1):
                d3 = total - d1 - d2
                for m in range(max_m_power + 1):
                    exps = (d1, d2, d3, m)
                    if grading.degree(exps) > 0:
                        out.append(exps)
    return out


def graded_obstruction_check(a: int, p: int, e: int = 1,
                             sample=None) -> ObstructionReport:
    """For a >= 3: the splitting of any positive-degree monomial in
    x1, x2, x3, M is zero or has all terms of positive degree, so no
    splitting value can reach degree zero from above.  Checks the sampled
    monomials exhaustively, plus deg(M) = a - 3 >= 0 and homogeneity of the
    defining relation."""
    if a < 3:
        raise ValueError("the graded obstruction needs a >= 3")
    fld = GF(p)
    grading = Grading(a)
    deg_m = grading.degree((0, 0, 0, 1))
    if deg_m != a - 3 or deg_m < 0:
        raise VerificationFailedError("grading weights are inconsistent")
    relation_homogeneous = grading.is_homogeneous(grading.relation_poly(fld))
    m_laurent = markov_M(a, fld).as_laurent()
    if sample is None:
        sample = default_obstruction_sample(a)
    failures = []
    checked = 0
    for exps in sample:
        d1, d2, d3, mpow = exps
        degree = grading.degree(exps)
        if degree <= 0:
            raise ValueError(f"sample monomial {exps} has degree {degree}")
        checked += 1
        g = LaurentPoly.monomial(fld, 3, (d1, d2, d3)) * m_laurent ** mpow
        image = standard_split(g, p, e)
        if image.is_zero():
            continue
        bad = [s for s in image.coordinate_sums() if s <= 0]
        if bad:
            failures.append(
                (exps, f"split image has degree(s) {sorted(bad)}: "
                       + image.render()))
    return ObstructionReport(a, p, e, deg_m, relation_homogeneous, checked,
                             tuple(failures))
