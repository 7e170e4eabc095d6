"""Term-dict kernels: arithmetic, budgets and overflow guards."""

from fractions import Fraction

import pytest

from clusterfrob import BudgetExceededError, budgets, kernels

PLENTY = 10**9


def fresh():
    """A generous single-use raw-product allowance."""
    return [PLENTY]


def one(p):
    """The coefficient 1 in the representation the kernels use for p."""
    return 1 if p else Fraction(1)


def test_add_merges_and_drops_zeros():
    a = {(1, 0): Fraction(2), (0, 1): Fraction(1)}
    b = {(1, 0): Fraction(-2), (2, 0): Fraction(5)}
    assert kernels.add_terms(a, b, 0) == {(0, 1): Fraction(1),
                                          (2, 0): Fraction(5)}


def test_mul_example_gf():
    # (x + 2) * (x + 3) = x^2 + 5x + 6 = x^2 + 1 over GF(5)
    a = {(1,): 1, (0,): 2}
    b = {(1,): 1, (0,): 3}
    assert kernels.mul_terms(a, b, 5, 10**6, fresh()) == {(2,): 1, (0,): 1}


def test_mul_respects_term_budget():
    a = {(i,): Fraction(1) for i in range(40)}
    b = {(40 * i,): Fraction(1) for i in range(40)}
    with pytest.raises(BudgetExceededError) as err:
        kernels.mul_terms(a, b, 0, 100, fresh())
    assert err.value.budget == "max_terms"


@pytest.mark.parametrize("p", [0, 5])
def test_mul_respects_raw_product_budget(p):
    # 40 x 40 = 1600 pairwise products but only 79 distinct result terms,
    # so the term cap alone would never fire.
    a = {(i,): one(p) for i in range(40)}
    with pytest.raises(BudgetExceededError) as err:
        kernels.mul_terms(a, a, p, 10**6, [1000])
    assert err.value.budget == "max_raw_products"
    allowance = [40 * 40]
    kernels.mul_terms(a, a, p, 10**6, allowance)
    assert allowance[0] == 0


def test_raw_allowance_is_cumulative_inside_meter():
    a = {(i,): Fraction(1) for i in range(10)}
    with budgets.raw_meter(150) as meter:
        kernels.mul_terms(a, a, 0, 10**6, meter)  # costs 100
        assert meter[0] == 50
        with pytest.raises(BudgetExceededError) as err:
            kernels.mul_terms(a, a, 0, 10**6, meter)  # needs 100 more
        assert err.value.budget == "max_raw_products"
        assert meter[0] == 0


def test_raw_allowance_fresh_outside_meter():
    a = {(i,): Fraction(1) for i in range(10)}
    with budgets.limits(max_raw_products=150):
        # Each bare call draws a fresh allowance, so both succeed.
        kernels.mul_terms(a, a, 0, 10**6, budgets.raw_allowance())
        kernels.mul_terms(a, a, 0, 10**6, budgets.raw_allowance())
        with budgets.raw_meter() as meter:
            kernels.mul_terms(a, a, 0, 10**6, meter)
            with pytest.raises(BudgetExceededError):
                kernels.mul_terms(a, a, 0, 10**6, meter)


def test_exponent_overflow_guard():
    big = 2**62
    a = {(big,): Fraction(1)}
    with pytest.raises(OverflowError):
        kernels.mul_terms(a, a, 0, 10**6, fresh())


def test_scale_shift():
    a = {(1, 1): 3, (0, 2): 4}
    out = kernels.scale_shift_terms(a, (2, -1), 2, 7)
    assert out == {(3, 0): 6, (2, 1): 1}
    # negation over GF(7) is scaling by 6
    assert kernels.neg_terms(out, 7) == {(3, 0): 1, (2, 1): 6}


def test_submul_updates_in_place():
    rem = {(2,): Fraction(1), (1,): Fraction(1)}
    touched = kernels.submul_terms(rem, (1,), Fraction(1),
                                   {(1,): Fraction(1)}, 0, fresh())
    assert rem == {(1,): Fraction(1)}
    assert set(touched) <= set(rem)


@pytest.mark.parametrize("p", [0, 5])
def test_submul_charges_raw_allowance(p):
    rem = {(2,): one(p)}
    b = {(i,): one(p) for i in range(5)}
    allowance = [12]
    kernels.submul_terms(rem, (0,), one(p), b, p, allowance)
    assert allowance[0] == 7
    kernels.submul_terms(rem, (1,), one(p), b, p, allowance)
    assert allowance[0] == 2
    with pytest.raises(BudgetExceededError) as err:
        kernels.submul_terms(rem, (2,), one(p), b, p, allowance)
    assert err.value.budget == "max_raw_products"


def test_backend_reports():
    assert kernels.backend() == "pure"
