"""Sparse Laurent polynomials and fractions.

The convolution oracle below multiplies term lists naively with plain
dict accumulation, sharing no code with the kernels; frozen expected
values were computed with it (or by hand where small enough to read off)
and the tests pin them.
"""

import heapq
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clusterfrob import (GF, QQ, BudgetExceededError, FieldMismatchError,
                         LaurentPoly, NotDivisibleError, RationalExpr,
                         budgets, kernels, parse_laurent)


def oracle_mul(a_terms, b_terms, char):
    out = {}
    for ea, ca in a_terms.items():
        for eb, cb in b_terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    if char:
        out = {e: c % char for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def lp(field, n, terms):
    return LaurentPoly.from_terms(field, n, terms)


def exps(n):
    return st.tuples(*[st.integers(min_value=-5, max_value=5)] * n)


def polys(field, n, max_size=6):
    if field.char == 0:
        coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    else:
        coeffs = st.integers(min_value=0, max_value=field.char - 1)
    return st.dictionaries(exps(n), coeffs, max_size=max_size).map(
        lambda d: lp(field, n, list(d.items())))


# -- construction and basics -------------------------------------------------


def test_from_terms_merges_and_normalizes():
    f = lp(QQ, 2, [((1, 0), 1), ((1, 0), 2), ((0, 0), 0)])
    assert f.terms == {(1, 0): Fraction(3)}
    assert len(f) == 1


def test_constructors():
    assert LaurentPoly.zero(QQ, 2).is_zero()
    assert LaurentPoly.one(QQ, 2).is_one()
    x2 = LaurentPoly.variable(QQ, 2, 1)
    assert x2.terms == {(0, 1): Fraction(1)}
    m = LaurentPoly.monomial(QQ, 2, (3, -4), "2/3")
    assert m.terms == {(3, -4): Fraction(2, 3)}
    assert m.is_monomial()


def test_exponent_validation():
    with pytest.raises(ValueError):
        lp(QQ, 2, [((1,), 1)])
    with pytest.raises(ValueError):
        lp(QQ, 2, [((1, 0.5), 1)])


def test_field_mismatch_rejected():
    a = LaurentPoly.one(QQ, 1)
    b = LaurentPoly.one(GF(5), 1)
    with pytest.raises(FieldMismatchError):
        a + b


def test_mul_split_needs_a_prime_field():
    # the fused kernel reduces coefficients mod p
    x = LaurentPoly.variable(QQ, 1, 0)
    with pytest.raises(FieldMismatchError):
        x.mul_split(x, 2, 0)
    y = LaurentPoly.variable(GF(2), 1, 0)
    assert y.mul_split(y, 2, 0) == y


def test_leading_term_is_lex_max():
    f = lp(QQ, 2, [((1, 5), 1), ((2, -9), 1), ((2, 3), 1)])
    assert f.leading_term()[0] == (2, 3)


# -- frozen arithmetic examples ----------------------------------------------


def test_freshman_dream_gf3():
    # Expanding (1 + x2)^3 over ZZ gives binomials (1,3,3,1); reducing
    # mod 3 kills the middle two.
    one_plus = lp(GF(3), 2, [((0, 0), 1), ((0, 1), 1)])
    cube = one_plus ** 3
    assert cube.terms == {(0, 0): 1, (0, 3): 1}


def test_freshman_dream_matches_integer_oracle():
    p = 5
    f = {(0, 0): 1, (1, 0): 2, (0, -1): 3}
    expected = {(0, 0): 1}
    for _ in range(p):
        expected = oracle_mul(expected, f, 0)
    expected = {e: c % p for e, c in expected.items() if c % p}
    g = lp(GF(p), 2, list(f.items())) ** p
    assert g.terms == expected


def test_binomial_product():
    # (x1 - x2)(x1 + x2) = x1^2 - x2^2
    a = lp(QQ, 2, [((1, 0), 1), ((0, 1), -1)])
    b = lp(QQ, 2, [((1, 0), 1), ((0, 1), 1)])
    assert (a * b).terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}


def test_negative_exponent_product():
    # x1^-1 * (x1 + x1^2) = 1 + x1
    a = LaurentPoly.monomial(QQ, 1, (-1,), 1)
    b = lp(QQ, 1, [((1,), 1), ((2,), 1)])
    assert (a * b).terms == {(0,): Fraction(1), (1,): Fraction(1)}


def test_power_negative_exponent_of_monomial():
    m = LaurentPoly.monomial(QQ, 2, (1, -2), "3/2")
    inv = m ** -2
    assert inv.terms == {(-2, 4): Fraction(4, 9)}


def test_inverse_of_nonmonomial_fails():
    f = lp(QQ, 1, [((0,), 1), ((1,), 1)])
    with pytest.raises(NotDivisibleError):
        f.inverse()


# -- exact division ----------------------------------------------------------


def test_divide_difference_of_squares():
    num = lp(QQ, 2, [((2, 0), 1), ((0, 2), -1)])
    den = lp(QQ, 2, [((1, 0), 1), ((0, 1), -1)])
    q = num.exact_divide(den)
    assert q.terms == {(1, 0): Fraction(1), (0, 1): Fraction(1)}


def test_divide_by_raw_int_coefficients_stays_exact():
    # an integral quotient has int coefficients, never floats
    num = LaurentPoly.from_terms(QQ, 2, {(2, 0): 1, (0, 2): -1})
    q = num.exact_divide(LaurentPoly(QQ, 2, {(1, 0): 1, (0, 1): 1}))
    assert q.terms == {(1, 0): 1, (0, 1): -1}
    assert all(type(c) is int for c in q.terms.values())
    # a non-integral one has reduced Fractions: (x1^2 + x2) / (3*x1)
    num = LaurentPoly.from_terms(QQ, 2, {(2, 0): 1, (0, 1): 1})
    q = num.exact_divide(LaurentPoly.from_terms(QQ, 2, {(1, 0): 3}))
    assert q.terms == {(1, 0): Fraction(1, 3), (-1, 1): Fraction(1, 3)}
    assert all(type(c) is Fraction for c in q.terms.values())
    # and through cancellation: (x1^2 - x2^2) / (2*x1 + 2*x2)
    num = LaurentPoly.from_terms(QQ, 2, {(2, 0): 1, (0, 2): -1})
    q = num.exact_divide(LaurentPoly(QQ, 2, {(1, 0): 2, (0, 1): 2}))
    assert q.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 2)}
    assert all(type(c) is Fraction for c in q.terms.values())


def test_divide_disjoint_variables_fails_fast():
    # Support boxes: any quotient exponent in x2 would have to be both
    # >= 0 - 0 and <= 0 - 1, an empty range, so no search happens.
    num = lp(QQ, 2, [((1, 0), 1), ((0, 0), 1)])
    den = lp(QQ, 2, [((0, 1), 1), ((0, 0), 1)])
    with pytest.raises(NotDivisibleError):
        num.exact_divide(den)


def test_divide_reports_nondivisible_not_wrong_answer():
    num = lp(QQ, 1, [((2,), 1), ((0,), 1)])  # x^2 + 1
    den = lp(QQ, 1, [((1,), 1), ((0,), 1)])  # x + 1
    with pytest.raises(NotDivisibleError):
        num.exact_divide(den)


def test_divide_by_zero():
    one = LaurentPoly.one(QQ, 1)
    with pytest.raises(ZeroDivisionError):
        one.exact_divide(LaurentPoly.zero(QQ, 1))


def test_divide_laurent_units():
    # x1^-3 divides anything supported in its translate.
    num = LaurentPoly.monomial(QQ, 1, (-5,), 7)
    den = LaurentPoly.monomial(QQ, 1, (-3,), 2)
    assert num.exact_divide(den).terms == {(-2,): Fraction(7, 2)}


def budget_outcome(divide, limits, raw):
    """((quotient terms, "") or (budget that ran out, message), raw left)
    of one division under the given budgets and raw meter."""
    with budgets.limits(**limits), budgets.raw_meter(raw) as meter:
        try:
            got = divide().terms, ""
        except BudgetExceededError as exc:
            got = exc.budget, str(exc)
        return got, meter[0]


@st.composite
def monomial_divisions(draw):
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    nvars = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(min_value=-6, max_value=6)] * nvars)
    if field.char:
        coeffs = st.integers(min_value=1, max_value=field.char - 1)
    else:
        coeffs = st.fractions(min_value=-9, max_value=9,
                              max_denominator=5).filter(bool)
    num = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=12))
    e, c = draw(exps), draw(coeffs)
    max_terms = draw(st.integers(0, 14))
    raw = draw(st.integers(0, 14))
    return (LaurentPoly.from_terms(field, nvars, num),
            LaurentPoly.monomial(field, nvars, e, c), max_terms, raw)


@given(monomial_divisions())
def test_divide_by_monomial_matches_cancellation_loop(case):
    # a division by a monomial is the product with its inverse: it gives
    # the cancellation loop's quotient and raw charge, and is bounded as
    # a product, raw work first, the whole row charged
    num, mono, max_terms, raw = case
    loose = {"max_terms": 14}
    shift = budget_outcome(lambda: num.exact_divide(mono), loose, 14)
    loop = budget_outcome(lambda: num._divide_by_cancellation(mono),
                          loose, 14)
    assert shift == loop
    (quotient, _), _ = shift
    got = budget_outcome(lambda: num.exact_divide(mono),
                         {"max_terms": max_terms}, raw)
    if raw < len(num):
        assert got[0][0] == "max_raw_products" and got[1] == 0
    elif max_terms < len(num):
        assert got[0][0] == "max_terms" and got[1] == raw - len(num)
    else:
        assert got == ((quotient, ""), raw - len(num))


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_division_bounded_like_a_product(field):
    # (x^50 - 1) / (x - 1): 50 cancellations of 2 raw products each, and
    # a 50-term quotient
    num = lp(field, 1, [((50,), 1), ((0,), -1)])
    den = lp(field, 1, [((1,), 1), ((0,), -1)])
    quotient = lp(field, 1, [((i,), 1) for i in range(50)])
    with budgets.raw_meter(99), pytest.raises(BudgetExceededError) as exc:
        num.exact_divide(den)
    assert exc.value.budget == "max_raw_products"
    with budgets.raw_meter(100) as meter:
        assert num.exact_divide(den) == quotient
    assert meter[0] == 0
    with budgets.limits(max_terms=49), pytest.raises(
            BudgetExceededError) as exc:
        num.exact_divide(den)
    assert exc.value.budget == "max_terms"
    with budgets.limits(max_terms=50):
        assert num.exact_divide(den) == quotient


def test_divide_by_monomial_guards_quotient_exponents():
    # quotient exponents past +-2^63 are exact
    big = LaurentPoly.monomial(QQ, 1, (2**63 - 1,))
    assert big.exact_divide(LaurentPoly.monomial(QQ, 1, (-1,))) == \
        LaurentPoly.monomial(QQ, 1, (2**63,))
    low = lp(QQ, 2, [((-2**63, 1), 2), ((0, 0), 1)])
    assert low.exact_divide(LaurentPoly.monomial(QQ, 2, (1, 0), 2)).terms == \
        {(-2**63 - 1, 1): 1, (-1, 0): Fraction(1, 2)}


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_divide_by_cancellation_guards_quotient_exponents(field):
    # the true quotient x1^(2^63) is exact, although the dividend and
    # the divisor lie below 2^63
    num = LaurentPoly.from_terms(field, 1, {(2**63 - 1,): 1, (2**63 - 2,): 1})
    den = LaurentPoly.from_terms(field, 1, {(-1,): 1, (-2,): 1})
    quotient = num.exact_divide(den)
    assert quotient == LaurentPoly.monomial(field, 1, (2**63,))
    assert quotient * den == num


@given(polys(QQ, 2, 5), polys(QQ, 2, 5))
def test_division_roundtrip_qq(a, b):
    if b.is_zero():
        return
    prod = a * b
    assert prod.exact_divide(b) == a


@given(polys(GF(5), 2, 5), polys(GF(5), 2, 5))
def test_division_roundtrip_gf(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_divide(b) == a


@given(polys(QQ, 2, 4), polys(QQ, 2, 4))
def test_division_never_lies(a, b):
    """Whenever exact_divide succeeds the quotient actually multiplies
    back; whenever it fails no such quotient was dropped (checked by
    round-trip on a known product)."""
    if b.is_zero():
        return
    try:
        q = a.exact_divide(b)
    except NotDivisibleError:
        return
    assert q * b == a


# -- ring axioms -------------------------------------------------------------


@given(polys(QQ, 2), polys(QQ, 2), polys(QQ, 2))
def test_ring_axioms_qq(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == LaurentPoly.zero(QQ, 2)
    assert a * LaurentPoly.one(QQ, 2) == a


@given(polys(GF(3), 2), polys(GF(3), 2))
def test_mul_matches_oracle_gf3(a, b):
    prod = a * b
    assert prod.terms == oracle_mul(a.terms, b.terms, 3)


@given(polys(QQ, 2), polys(QQ, 2))
def test_mul_matches_oracle_qq(a, b):
    assert (a * b).terms == oracle_mul(a.terms, b.terms, 0)


@given(polys(QQ, 1), st.integers(min_value=0, max_value=6))
def test_pow_matches_repeated_mul(a, k):
    expected = LaurentPoly.one(QQ, 1)
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected


def product_chain(a, k):
    """a ** k as k - 1 plain products, one for k = 0."""
    out = LaurentPoly.one(a.field, a.n)
    for _ in range(k):
        out = out * a
    return out


def short_polys(field):
    """Univariate polynomials of up to 7 terms with exponents in [-3, 3],
    whose 12th powers stay small."""
    coeffs = (st.fractions(min_value=-9, max_value=9, max_denominator=3)
              if field.char == 0
              else st.integers(min_value=0, max_value=field.char - 1))
    exps = st.tuples(st.integers(min_value=-3, max_value=3))
    return st.dictionaries(exps, coeffs, max_size=7).map(
        lambda d: lp(field, 1, list(d.items())))


@example(lp(QQ, 2, [((1, 0), 1), ((0, 0), 1)]))  # two terms: binary
@example(lp(QQ, 2, [((i, i % 3), i - 3) for i in range(7)]))  # the chain
@example(lp(GF(5), 2, [((i, -i), 1 + i) for i in range(4)]))
@given(st.one_of(short_polys(QQ), short_polys(GF(3))))
def test_pow_rule_matches_the_product_chain(a):
    # both sides of the rule: at most two terms or k <= 4 by binary
    # squaring, and any other base by one square and k - 2 products
    chain = LaurentPoly.one(a.field, a.n)
    for k in range(13):
        got = a ** k
        assert got.terms == chain.terms
        if k == 1:
            assert got is a
        chain = chain * a


def test_pow_is_one_metered_call():
    # 2 + x + 3y + x^2 y^-1 + 5 x^3 + y^4: squared once (21 pairs), then
    # multiplied by the 6-term base, charged len(power) * 6 each time
    a = lp(QQ, 2, [((0, 0), 2), ((1, 0), 1), ((0, 1), 3), ((2, -1), 1),
                   ((3, 0), 5), ((0, 4), 1)])
    k = 7
    chain = [product_chain(a, j) for j in range(k)]
    work = 21 + sum(6 * len(chain[j]) for j in range(2, k))
    with budgets.raw_meter(work) as meter:
        power = a ** k
        assert meter[0] == 0
    assert power == product_chain(a, k)
    # a meter a pair short stops the chain, though every call fits it
    b = lp(QQ, 2, list(a.terms.items()))
    with budgets.raw_meter(work - 1):
        with pytest.raises(BudgetExceededError) as err:
            b ** k
    assert err.value.budget == "max_raw_products"
    # a square of n terms forms n(n+1)/2 pairs, n^2 below _PACK_MIN,
    # whether asked for as c ** 2 or as c * c; c times an equal copy
    # is a product, n^2 pairs
    for n, charged in ((5, 25), (6, 21), (9, 45)):
        c = lp(GF(7), 1, [((3 * i,), 1 + i % 6) for i in range(n)])
        copy = lp(GF(7), 1, list(c.terms.items()))
        for square, work in ((lambda: c ** 2, charged),
                             (lambda: c * c, charged),
                             (lambda: c * copy, n * n)):
            with budgets.raw_meter() as meter:
                start = meter[0]
                got = square()
                assert start - meter[0] == work
            assert got == product_chain(copy, 2)


def charges(monkeypatch):
    """The work of every kernel call that fits its allowance, in order."""
    charged = []
    charge = kernels._charge

    def record(raw, work):
        charge(raw, work)
        charged.append(work)

    monkeypatch.setattr(kernels, "_charge", record)
    return charged


def test_a_chain_past_the_allowance_goes_on_by_squaring(monkeypatch):
    charged = charges(monkeypatch)
    # 1 + x + ... + x^5 to the 12th: the chain forms 21 + 66 + 96 + ...
    # + 336 = 2031 pairs, and binary squaring 21, 66, 136 and 496
    a = lp(QQ, 1, [((i,), 1) for i in range(6)])
    with budgets.raw_meter(2031):
        power = a ** 12
    assert charged == [21] + [6 * (5 * j + 1) for j in range(2, 12)]
    assert power == product_chain(a, 12)
    # each power of the chain has 5 terms more than the one before, so
    # under 1000 pairs the chain cannot fit, and binary squaring does
    charged.clear()
    b = lp(QQ, 1, [((i,), 1) for i in range(6)])
    with budgets.raw_meter(1000):
        assert b ** 12 == power
    assert charged == [21, 66, 136, 496]
    # under 600 pairs neither fits: the chain would form 465 pairs
    # first, and binary squaring refuses its 496-pair square
    charged.clear()
    b = lp(QQ, 1, [((i,), 1) for i in range(6)])
    with budgets.raw_meter(600):
        with pytest.raises(BudgetExceededError) as err:
            b ** 12
    assert err.value.budget == "max_raw_products"
    assert charged == [21, 66, 136]
    # over GF(2) the terms cancel, so binary squaring may fit where the
    # chain would not: (1 + x + y)^8 = 1 + x^8 + y^8 in 27 pairs, where
    # the chain forms 9 + 9 + 27 and then more
    charged.clear()
    f = lp(GF(2), 2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)])
    with budgets.raw_meter(40):
        assert (f ** 8).terms == {(0, 0): 1, (8, 0): 1, (0, 8): 1}
    assert charged == [9, 9, 9]


def test_pow_keeps_its_latest_power():
    v = lp(QQ, 2, [((i, 1 - i), i + 1) for i in range(8)])
    first = v ** 2
    with budgets.raw_meter(0) as meter:
        assert v ** 2 is first
        assert meter[0] == 0
    cube = v ** 3
    assert cube == product_chain(v, 3)
    with budgets.limits(max_terms=len(cube) - 1):
        with pytest.raises(BudgetExceededError) as err:
            v ** 3
    assert err.value.budget == "max_terms"
    assert v ** 3 is cube


def test_huge_power_outside_a_meter_stops_at_the_allowance(monkeypatch):
    # the chain shares one allowance, so it stops after 10^5 pairs
    # where one fresh allowance per product would let it run on
    charged = charges(monkeypatch)
    x1 = LaurentPoly.variable(QQ, 2, 0)
    t0 = time.perf_counter()
    with budgets.limits(max_raw_products=10**5):
        with pytest.raises(BudgetExceededError) as err:
            (x1 + LaurentPoly.one(QQ, 2)) ** 2**62
    assert err.value.budget == "max_raw_products"
    assert sum(charged) <= 10**5
    assert time.perf_counter() - t0 < 1.0


# -- derivatives -------------------------------------------------------------


def test_partial_derivative_qq():
    # d/dx1 (x1^3*x2 + x1^-2) = 3 x1^2 x2 - 2 x1^-3
    f = lp(QQ, 2, [((3, 1), 1), ((-2, 0), 1)])
    df = f.partial_derivative(0)
    assert df.terms == {(2, 1): Fraction(3), (-3, 0): Fraction(-2)}


def test_partial_derivative_kills_pth_powers():
    f = lp(GF(3), 1, [((3,), 1), ((1,), 2)])
    assert f.partial_derivative(0).terms == {(0,): 2}


@given(polys(QQ, 2), polys(QQ, 2))
def test_leibniz_rule(a, b):
    lhs = (a * b).partial_derivative(0)
    rhs = a.partial_derivative(0) * b + a * b.partial_derivative(0)
    assert lhs == rhs


# -- canonical QQ coefficients -----------------------------------------------


def assert_canonical_qq(f):
    """Over QQ a coefficient is an int while it is integral, else a
    reduced Fraction; never a float."""
    for c in f.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


def test_qq_coefficients_are_ints_while_integral():
    half = Fraction(1, 2)
    f = lp(QQ, 2, [((1, 0), half), ((1, 0), "1/2"), ((0, 1), Fraction(6, 3))])
    assert f.terms == {(1, 0): 1, (0, 1): 2}
    g = lp(QQ, 1, [((2,), half), ((1,), "1/3")])
    assert g.partial_derivative(0).terms == {(1,): 1, (0,): Fraction(1, 3)}
    assert LaurentPoly.constant(QQ, 1, "4/2").terms == {(0,): 2}
    assert (lp(QQ, 1, [((1,), 3)]) ** -1).terms == {(-1,): Fraction(1, 3)}
    assert (lp(QQ, 1, [((1,), half)]) ** -1).terms == {(-1,): 2}
    for h in (f, g.partial_derivative(0), g * g, f * f, g + g,
              LaurentPoly.one(QQ, 2), lp(QQ, 1, [((1,), half)]) ** -1):
        assert_canonical_qq(h)
    # equal values render the same whatever their type
    assert f.render() == "x1 + 2*x2"


@given(polys(QQ, 2), polys(QQ, 2))
def test_qq_results_are_canonical(a, b):
    for f in (a, b, a + b, a - b, -a, a * b, a.partial_derivative(0)):
        assert_canonical_qq(f)
    if not b.is_zero():
        assert_canonical_qq((a * b).exact_divide(b))


# -- rendering and parsing ---------------------------------------------------


def test_render_contract_examples():
    f = lp(QQ, 2, [((1, 0), 1), ((0, 1), -1), ((0, 0), "1/2")])
    assert f.render() == "x1 - x2 + 1/2"
    assert LaurentPoly.zero(QQ, 2).render() == "0"
    assert LaurentPoly.one(QQ, 2).render() == "1"
    g = lp(QQ, 2, [((2, -1), -3)])
    assert g.render() == "-3*x1^2*x2^-1"
    h = lp(QQ, 1, [((1,), 1), ((0,), -1)])
    assert h.render() == "x1 - 1"


def test_render_descending_lex_order():
    f = lp(QQ, 2, [((0, 2), 1), ((1, -1), 1), ((1, 0), 1)])
    assert f.render() == "x1 + x1*x2^-1 + x2^2"


def test_render_gf_coefficients_are_residues():
    f = lp(GF(5), 1, [((1,), -1)])
    assert f.render() == "4*x1"


def test_render_custom_names():
    f = lp(QQ, 2, [((1, 1), 1)])
    assert f.render(names=("u", "v")) == "u*v"


def test_parse_simple():
    f = parse_laurent("x1^2 - 3*x2 + 1/2", 2, QQ)
    assert f.terms == {(2, 0): Fraction(1), (0, 1): Fraction(-3),
                       (0, 0): Fraction(1, 2)}


def test_parse_negative_exponents_and_implicit_mul():
    f = parse_laurent("2*x1^-1*x2^3", 2, QQ)
    assert f.terms == {(-1, 3): Fraction(2)}


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_laurent("x1 + $", 1, QQ)
    with pytest.raises(ValueError):
        parse_laurent("x3", 2, QQ)
    with pytest.raises(ValueError):
        parse_laurent("", 1, QQ)
    with pytest.raises(ValueError):
        parse_laurent("3/4*x1", 1, GF(5))
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        parse_laurent("1/0*x1", 1, QQ)


@given(polys(QQ, 3))
def test_parse_render_roundtrip_qq(f):
    assert parse_laurent(f.render(), 3, QQ) == f


@given(polys(GF(7), 2))
def test_parse_render_roundtrip_gf(f):
    assert parse_laurent(f.render(), 2, GF(7)) == f


# -- budgets -----------------------------------------------------------------


def test_term_budget_enforced():
    xs = lp(QQ, 1, [((i,), 1) for i in range(50)])
    with budgets.limits(max_terms=100):
        with pytest.raises(Exception) as err:
            _ = xs * lp(QQ, 1, [((50 * i,), 1) for i in range(50)])
    assert getattr(err.value, "budget", None) == "max_terms"


# -- rational expressions ----------------------------------------------------


def test_rational_equality_cross_multiplies():
    x1 = LaurentPoly.variable(QQ, 2, 0)
    x2 = LaurentPoly.variable(QQ, 2, 1)
    one = LaurentPoly.one(QQ, 2)
    # (x1^2 - x2^2) / (x1 - x2) equals (x1 + x2) / 1 without reduction
    a = RationalExpr(x1 * x1 - x2 * x2, x1 - x2)
    b = RationalExpr(x1 + x2, one)
    assert a.equals(b)
    assert a == x1 + x2


def test_rational_zero_denominator():
    one = LaurentPoly.one(QQ, 1)
    with pytest.raises(ZeroDivisionError):
        RationalExpr(one, LaurentPoly.zero(QQ, 1))


def test_rational_arithmetic():
    x = LaurentPoly.variable(QQ, 1, 0)
    one = LaurentPoly.one(QQ, 1)
    half = RationalExpr(one, one + one)
    r = RationalExpr(x, one + x)
    s = r + half
    # x/(1+x) + 1/2 = (2x + 1 + x) / (2(1+x)) = (3x+1)/(2x+2)
    assert s.num == x + x + x + one
    assert s.den == (one + one) * (one + x)


def test_rational_as_laurent():
    x1 = LaurentPoly.variable(QQ, 2, 0)
    x2 = LaurentPoly.variable(QQ, 2, 1)
    r = RationalExpr(x1 * x1 - x2 * x2, x1 + x2)
    assert r.as_laurent() == x1 - x2


def test_rational_as_laurent_fails_cleanly():
    x = LaurentPoly.variable(QQ, 1, 0)
    one = LaurentPoly.one(QQ, 1)
    with pytest.raises(NotDivisibleError):
        RationalExpr(one, one + x).as_laurent()


def test_rational_simplify_collapses():
    x = LaurentPoly.variable(QQ, 1, 0)
    one = LaurentPoly.one(QQ, 1)
    r = RationalExpr(x * x - one, x - one).simplify()
    assert r.den.is_one()
    assert r.num == x + one


def test_rational_pow_negative():
    x = LaurentPoly.variable(QQ, 1, 0)
    one = LaurentPoly.one(QQ, 1)
    r = RationalExpr(x, one + x) ** -1
    assert r.num == one + x
    assert r.den == x


def test_rational_is_one():
    x = LaurentPoly.variable(QQ, 1, 0)
    assert RationalExpr(x, x).is_one()
    assert not RationalExpr(x, x + x).is_one()


def test_rational_render():
    x = LaurentPoly.variable(QQ, 1, 0)
    one = LaurentPoly.one(QQ, 1)
    assert RationalExpr(one + x, x).render() == "(x1 + 1) / (x1)"
    assert RationalExpr(x, one).render() == "x1"


@given(polys(QQ, 2, 4), polys(QQ, 2, 4).filter(lambda f: not f.is_zero()))
def test_rational_roundtrip(a, b):
    r = RationalExpr(a * b, b)
    assert r.equals(RationalExpr(a))
    assert r.as_laurent() == a


def oracle_add(a_terms, b_terms, char, sign=1):
    out = dict(a_terms)
    for e, c in b_terms.items():
        out[e] = out.get(e, 0) + sign * c
    if char:
        out = {e: c % char for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def oracle_pow(terms, k, n, char):
    out = {(0,) * n: 1}
    for _ in range(k):
        out = oracle_mul(out, terms, char)
    return out


def pairs(field, n):
    """(num, den) term pairs; either side is often exactly 1."""
    one = LaurentPoly.one(field, n)
    nums = st.one_of(st.just(one), polys(field, n, 4))
    dens = st.one_of(st.just(one),
                     polys(field, n, 4).filter(lambda f: not f.is_zero()))
    return st.tuples(nums, dens).map(lambda nd: RationalExpr(*nd))


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
@given(data=st.data())
def test_rational_ops_match_cross_multiplication(field, data):
    p = field.char
    r = data.draw(pairs(field, 2))
    s = data.draw(pairs(field, 2))
    k = data.draw(st.integers(min_value=-3, max_value=3))
    rn, rd, sn, sd = r.num.terms, r.den.terms, s.num.terms, s.den.terms
    cases = [
        (r + s, oracle_add(oracle_mul(rn, sd, p), oracle_mul(sn, rd, p), p),
         oracle_mul(rd, sd, p)),
        (r - s, oracle_add(oracle_mul(rn, sd, p), oracle_mul(sn, rd, p), p,
                           -1), oracle_mul(rd, sd, p)),
        (r * s, oracle_mul(rn, sn, p), oracle_mul(rd, sd, p)),
    ]
    if sn:
        cases.append((r / s, oracle_mul(rn, sd, p), oracle_mul(rd, sn, p)))
    if k >= 0:
        cases.append((r ** k, oracle_pow(rn, k, 2, p),
                      oracle_pow(rd, k, 2, p)))
    elif rn:
        cases.append((r ** k, oracle_pow(rd, -k, 2, p),
                      oracle_pow(rn, -k, 2, p)))
    for got, num, den in cases:
        assert (got.num.terms, got.den.terms) == (num, den)
    assert r.equals(s) == (oracle_mul(rn, sd, p) == oracle_mul(sn, rd, p))
    try:
        quotient = r.num.exact_divide(r.den)
    except NotDivisibleError:
        with pytest.raises(NotDivisibleError):
            r.as_laurent()
        assert r.simplify() is r
    else:
        assert r.as_laurent().terms == quotient.terms
        simple = r.simplify()
        assert (simple.num.terms, simple.den.is_one()) == (quotient.terms,
                                                           True)


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "equals"])
@pytest.mark.parametrize("other", [GF(5), 3], ids=["field", "arity"])
def test_rational_mismatch_with_one_operand(op, other):
    field, n = (other, 2) if other == GF(5) else (QQ, other)
    one = RationalExpr(LaurentPoly.one(QQ, 2))
    x = RationalExpr(LaurentPoly.variable(field, n, 0))
    apply = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
             "mul": lambda a, b: a * b, "div": lambda a, b: a / b,
             "equals": lambda a, b: a.equals(b)}[op]
    for a, b in ((one, x), (x, one)):
        with pytest.raises(FieldMismatchError):
            apply(a, b)


def test_coordinate_sums():
    f = lp(QQ, 3, [((1, 1, 1), 1), ((3, 0, 0), 2)])
    assert f.coordinate_sums() == {3}
    g = lp(QQ, 2, [((1, 0), 1), ((0, 2), 1)])
    assert g.coordinate_sums() == {1, 2}


def test_support_box():
    f = lp(QQ, 2, [((1, -2), 1), ((3, 5), 1)])
    lo, hi = f.support_box()
    assert lo == (1, -2) and hi == (3, 5)


def test_hash_consistency():
    a = lp(QQ, 1, [((1,), 1), ((0,), 2)])
    b = lp(QQ, 1, [((0,), 2), ((1,), 1)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_math_comb_sanity_for_oracle():
    # The integer-oracle freshman's-dream test leans on binomials
    # vanishing mod p; pin one instance so a typo there would surface.
    assert [math.comb(5, k) % 5 for k in range(6)] == [1, 0, 0, 0, 0, 1]


# -- packed division against the tuple division ----------------------------------


def tuple_divide(num, den):
    """exact_divide as it was before packed keys, for a divisor of two or
    more terms: a remainder of exponent tuples and a heap of every key a
    row touches.  The reference of the packed division, order of the
    quotient included."""
    field, p, n = num.field, num.field.char, num.n
    lo_a, hi_a = num.support_box()
    lo_b, hi_b = den.support_box()
    lo = tuple(lo_a[i] - lo_b[i] for i in range(n))
    hi = tuple(hi_a[i] - hi_b[i] for i in range(n))
    if any(lo[i] > hi[i] for i in range(n)):
        raise NotDivisibleError("empty support box")

    eb, cb = den.leading_term()
    cb_inv = field.invert(cb)
    max_terms = budgets.current().max_terms
    raw = budgets.raw_allowance()
    rem = dict(num.terms)
    heap = [tuple(-x for x in e) for e in rem]
    heapq.heapify(heap)
    quotient = {}
    while rem:
        while True:
            if not heap:
                raise NotDivisibleError("remainder has no live terms")
            er = tuple(-x for x in heapq.heappop(heap))
            cr = rem.get(er)
            if cr is not None:
                break
        et = tuple(x - y for x, y in zip(er, eb))
        if any(not lo[i] <= et[i] <= hi[i] for i in range(n)):
            raise NotDivisibleError("leading term leaves the support box")
        ct = cr * cb_inv % p if p else field.coerce(cr * cb_inv)
        quotient[et] = ct
        remaining = raw[0] - len(den.terms)
        if remaining < 0:
            raw[0] = 0
            raise BudgetExceededError("max_raw_products", "")
        for e0, c0 in den.terms.items():
            e = tuple(x + y for x, y in zip(et, e0))
            v = rem.get(e, 0) - ct * c0
            v = v % p if p else field.coerce(v)
            if v:
                rem[e] = v
                heapq.heappush(heap, tuple(-x for x in e))
            elif e in rem:
                del rem[e]
        raw[0] = remaining
        if len(quotient) > max_terms:
            raise BudgetExceededError("max_terms", "")
        if len(rem) > max_terms:
            raise BudgetExceededError("max_terms", "")
    return LaurentPoly(field, n, quotient)


def division_outcome(divide, num, den, max_terms, raw):
    """(quotient terms as a list in dict order, or the error's kind) and
    the allowance left, of one division."""
    with budgets.limits(max_terms=max_terms), budgets.raw_meter(raw) as meter:
        try:
            got = list(divide(num, den).terms.items())
        except BudgetExceededError as exc:
            got = exc.budget
        except NotDivisibleError as exc:
            got = type(exc).__name__
        return got, meter[0]


@st.composite
def packed_divisions(draw):
    """num = q * den (two or more terms, as den has), sometimes with a
    term changed, over QQ (Fractions among the coefficients) and GF(p),
    with negative exponents.  Each of q and den is moved by an offset
    near +-2^62, +-2^63, +-2^64 or 2^80 in some coordinates, and some of
    its terms by another, so that exponents pass +-2^63 and the
    dividend's box can be wider than 2^64 in a coordinate: the packed
    keys are then wider than 64 bits."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    n = draw(st.integers(min_value=1, max_value=3))
    small = st.tuples(*[st.integers(min_value=-4, max_value=4)] * n)
    if field.char:
        coeffs = st.integers(min_value=1, max_value=field.char - 1)
    else:
        coeffs = st.fractions(min_value=-9, max_value=9,
                              max_denominator=4).filter(bool)
    ends = [0, 0, 0, 2**62, -2**62, 2**63 - 8, -2**63 + 8, 2**64, -2**64,
            2**80]
    offsets = st.tuples(*[st.sampled_from(ends)] * n)

    def poly(min_size, max_size):
        terms = draw(st.dictionaries(small, coeffs, min_size=min_size,
                                     max_size=max_size))
        shift, far = draw(offsets), draw(offsets)
        moved = draw(st.sets(st.sampled_from(sorted(terms))))
        return LaurentPoly.from_terms(field, n, {
            tuple(x + s + (f if e in moved else 0)
                  for x, s, f in zip(e, shift, far)): c
            for e, c in terms.items()})

    q = poly(1, 8)
    den = poly(2, 6)
    num = LaurentPoly.from_terms(field, n, oracle_mul(q.terms, den.terms,
                                                      field.char))
    if draw(st.booleans()):
        e, c = draw(st.sampled_from(sorted(num.terms.items())))
        num = num + LaurentPoly.monomial(field, n, e, c + field.one)
    max_terms = draw(st.integers(min_value=0, max_value=60))
    raw = draw(st.integers(min_value=0, max_value=300))
    return num, den, max_terms, raw


WIDE_Q = lp(QQ, 2, [((2**80, 0), 1), ((0, 2**64), Fraction(1, 2)),
                    ((-2**64, 1), 3)])
WIDE_D = lp(QQ, 2, [((0, 0), 1), ((-2**64, 1), 1), ((1, -2**80), 2)])


@example((WIDE_Q * WIDE_D, WIDE_D, 10, 20))  # keys past 2^160
@given(packed_divisions())
def test_division_matches_the_tuple_division(case):
    # quotient terms and their order, the error raised (support box,
    # max_terms at the same step) and the allowance left
    num, den, max_terms, raw = case
    want = division_outcome(tuple_divide, num, den, max_terms, raw)
    assert division_outcome(LaurentPoly.exact_divide, num, den,
                            max_terms, raw) == want
    loose = division_outcome(tuple_divide, num, den, 10**4, 10**4)
    assert division_outcome(LaurentPoly.exact_divide, num, den,
                            10**4, 10**4) == loose


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_division_range_guard_at_two_to_the_62(field):
    # the quotient exponents 1 - 2^63, -2^63 and -2^63 - 1 pass -2^63 and
    # are exact, three rows of two raw products each; with the sign of
    # the last dividend term flipped, the fourth candidate leaves the
    # support box after the same three rows
    den = lp(field, 1, [((2**62,), 1), ((2**62 - 1,), 1)])
    num = lp(field, 1, [((1 - 2**62,), 1), ((-2 - 2**62,), 1)])
    quotient = [((1 - 2**63,), 1), ((-2**63,), field.coerce(-1)),
                ((-1 - 2**63,), 1)]
    off = num - lp(field, 1, [((-2 - 2**62,), 2)])
    for divide in (tuple_divide, LaurentPoly.exact_divide):
        assert division_outcome(divide, num, den, 10, 10) == (quotient, 4)
        assert division_outcome(divide, off, den, 10, 10) == \
            ("NotDivisibleError", 4)
