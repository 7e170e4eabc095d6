"""Presented lower bound: generators, basis splitting, compatibility."""

import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clusterfrob import (GF, QQ, BudgetExceededError, FieldMismatchError,
                         LaurentPoly, budgets, corpus,
                         compat_check, degree_bounded_monomials,
                         initial_seed, localization_identity_check,
                         lower_bound_generators, psi_f_apply,
                         verify_lb_splitting)


def pres_for(name, p):
    return lower_bound_generators(initial_seed(corpus.load(name), GF(p)))


def lp(field, n, terms):
    return LaurentPoly.from_terms(field, n, terms)


def poly_ring_elems(p, nvars, max_size=4):
    e = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    c = st.integers(min_value=1, max_value=p - 1)
    return st.dictionaries(e, c, max_size=max_size).map(
        lambda d: lp(GF(p), nvars, list(d.items())))


# -- generators ----------------------------------------------------------------


def test_generators_mixed_pair():
    pres = pres_for("mixed-pair", 3)
    fld = GF(3)
    # vertex 1: arrow 2 -> 1 gives p+ = x2, p- = 1
    g1 = lp(fld, 4, [((1, 0, 1, 0), 1), ((0, 1, 0, 0), -1),
                     ((0, 0, 0, 0), -1)])
    # vertex 2 (frozen, still presented): p+ = 1, p- = x1
    g2 = lp(fld, 4, [((0, 1, 0, 1), 1), ((0, 0, 0, 0), -1),
                     ((1, 0, 0, 0), -1)])
    assert pres.gens == (g1, g2)
    assert pres.f == g1 * g2
    assert pres.names == ["x1", "x2", "y1", "y2"]


def test_generators_a2():
    pres = pres_for("a2", 5)
    fld = GF(5)
    g1 = lp(fld, 4, [((1, 0, 1, 0), 1), ((0, 1, 0, 0), -1),
                     ((0, 0, 0, 0), -1)])
    g2 = lp(fld, 4, [((0, 1, 0, 1), 1), ((1, 0, 0, 0), -1),
                     ((0, 0, 0, 0), -1)])
    assert pres.gens == (g1, g2)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("name", ["a2", "a3", "markov", "cycle3-frozen"])
def test_generators_read_any_seed_through_its_quiver(name, p):
    # the presentation depends only on the quiver, so a mutated seed gives
    # the one of the initial seed of its (mutated) quiver
    s = initial_seed(corpus.load(name), GF(p)).mutate(0)
    pres = lower_bound_generators(s)
    ref = lower_bound_generators(initial_seed(s.quiver, GF(p)))
    assert (pres.gens, pres.f, pres.xprime) == (ref.gens, ref.f, ref.xprime)
    assert verify_lb_splitting(pres, p)
    assert localization_identity_check(pres)
    assert compat_check(pres, p, degree_bounded_monomials(2 * s.n, 2)).ok


def test_generators_uniform_over_frozen():
    pres = pres_for("cycle3-frozen", 3)
    assert len(pres.gens) == 3  # one per vertex, frozen included


# -- the basis splitting -------------------------------------------------------


def test_psi_of_one_is_one():
    for name in ("a2", "a3", "mixed-pair", "markov"):
        for p in (2, 3, 5):
            assert verify_lb_splitting(pres_for(name, p), p), (name, p)


def unfused_psi(fpow, r, p):
    """The defining expansion: the whole product f^(p-1) * r, then the
    basis split (exponents congruent to p-1, minus p-1, divided by p)."""
    out = {}
    for e, c in (fpow * r).terms.items():
        if all(a % p == p - 1 for a in e):
            out[tuple((a - (p - 1)) // p for a in e)] = c
    return out


_PRES = {}


def cached_pres(name, p):
    """The presentation and its f^(p-1), built once for all tests here."""
    if (name, p) not in _PRES:
        pres = pres_for(name, p)
        _PRES[name, p] = pres, pres.f ** (p - 1)
    return _PRES[name, p]


@st.composite
def psi_cases(draw):
    name = draw(st.sampled_from(["a2", "a3"]))
    p = draw(st.sampled_from([2, 3, 5]))
    nn = 4 if name == "a2" else 6
    e = st.tuples(*[st.integers(min_value=0, max_value=2 * p)] * nn)
    c = st.integers(min_value=1, max_value=p - 1)
    terms = draw(st.dictionaries(e, c, max_size=4))
    r = lp(GF(p), nn, list(terms.items()))
    if draw(st.booleans()):
        r = cached_pres(name, p)[0].f * r    # a compat argument f * g
    return name, p, r


@given(psi_cases())
@example(("a2", 3, lp(GF(3), 4, [((4, 4, 4, 4), 1)])))
def test_psi_monomial_images(case):
    name, p, r = case
    pres, fpow = cached_pres(name, p)
    assert psi_f_apply(pres, r, p).terms == unfused_psi(fpow, r, p)


def psi_pairs(fpow, r, p):
    """Raw term products psi forms once f^(p-1) is built: the pairs whose
    exponent sums are all congruent to p-1."""
    return sum(all((a + b) % p == p - 1 for a, b in zip(ea, eb))
               for ea in fpow.terms for eb in r.terms)


def test_psi_raw_budget():
    pres, fpow = cached_pres("a3", 5)
    assert verify_lb_splitting(pres, 5)   # builds and caches f^4 in psi
    r = pres.f * LaurentPoly.monomial(GF(5), 6, (4, 4, 4, 4, 4, 4))
    pairs = psi_pairs(fpow, r, 5)
    assert pairs > 0
    with budgets.limits(max_raw_products=pairs):
        psi_f_apply(pres, r, 5)
    with budgets.limits(max_raw_products=pairs - 1):
        with pytest.raises(BudgetExceededError) as err:
            psi_f_apply(pres, r, 5)
    assert err.value.budget == "max_raw_products"


def test_psi_charges_enclosing_raw_meter():
    pres, fpow = cached_pres("a3", 5)
    assert verify_lb_splitting(pres, 5)
    r = pres.f * LaurentPoly.monomial(GF(5), 6, (4, 9, 4, 4, 4, 14))
    pairs = psi_pairs(fpow, r, 5)
    with budgets.raw_meter(pairs + 7) as meter:
        psi_f_apply(pres, r, 5)
        assert meter[0] == 7
        with pytest.raises(BudgetExceededError) as err:
            psi_f_apply(pres, r, 5)
    assert err.value.budget == "max_raw_products"


def test_psi_budget_covers_f_power():
    # a fresh presentation builds f^(p-1) inside psi, under the same limit
    pres = pres_for("a3", 5)
    with budgets.limits(max_raw_products=1000):
        with pytest.raises(BudgetExceededError) as err:
            verify_lb_splitting(pres, 5)
    assert err.value.budget == "max_raw_products"


def test_psi_rejects_negative_exponents():
    pres = pres_for("a2", 3)
    bad = LaurentPoly.monomial(GF(3), 4, (-1, 0, 0, 0))
    with pytest.raises(ValueError):
        psi_f_apply(pres, bad, 3)


def test_psi_rejects_wrong_field():
    pres = pres_for("a2", 3)
    r = LaurentPoly.one(GF(5), 4)
    with pytest.raises(FieldMismatchError):
        psi_f_apply(pres, r, 5)


@given(poly_ring_elems(3, 4), poly_ring_elems(3, 4))
def test_psi_additive(r, s):
    pres = pres_for("a2", 3)
    assert psi_f_apply(pres, r + s, 3) == \
        psi_f_apply(pres, r, 3) + psi_f_apply(pres, s, 3)


@given(poly_ring_elems(3, 4, 2), poly_ring_elems(3, 4, 2))
def test_psi_semilinear(g, r):
    pres = pres_for("a2", 3)
    assert psi_f_apply(pres, g ** 3 * r, 3) == \
        g * psi_f_apply(pres, r, 3)


# -- compatibility and localization ---------------------------------------------


def test_compat_small_degrees():
    for name in ("a2", "mixed-pair"):
        pres = pres_for(name, 3)
        report = compat_check(pres, 3,
                              degree_bounded_monomials(4, 2))
        assert report.ok
        assert report.checked == len(degree_bounded_monomials(4, 2))


@pytest.mark.parametrize("name,p,degree,samples", [
    ("a3", 7, 3, 84),
    ("markov", 5, 2, 28),
])
def test_compat_larger_cases_within_time_bound(name, p, degree, samples):
    t0 = time.perf_counter()
    pres = pres_for(name, p)
    assert verify_lb_splitting(pres, p)
    report = compat_check(pres, p,
                          degree_bounded_monomials(2 * pres.n, degree))
    elapsed = time.perf_counter() - t0
    assert report.ok and report.checked == samples
    assert elapsed < 10.0, f"{elapsed:.1f}s"


def test_compat_accepts_monomial_tuples():
    pres = pres_for("a2", 2)
    report = compat_check(pres, 2, [(0, 0, 0, 0), (1, 1, 0, 0)])
    assert report.ok and report.checked == 2


def test_degree_bounded_monomials():
    out = degree_bounded_monomials(2, 2)
    assert out == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert len(degree_bounded_monomials(4, 2)) == 15
    for nvars in range(1, 7):
        for degree in range(5):
            out = degree_bounded_monomials(nvars, degree)
            assert out == sorted(out)


def test_localization_identity():
    for name in ("a2", "a3", "mixed-pair", "markov", "cycle3-frozen"):
        pres = pres_for(name, 3)
        assert localization_identity_check(pres), name


def test_localization_identity_qq():
    pres = lower_bound_generators(initial_seed(corpus.load("a2"), QQ))
    assert localization_identity_check(pres)


def test_exchange_slots_match_quiver():
    pres = pres_for("a3", 3)
    assert len(pres.xprime) == 3
