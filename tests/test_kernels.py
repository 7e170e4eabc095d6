"""Term-dict kernels: arithmetic, budgets, and exact exponents of any
size."""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clusterfrob import (GF, QQ, BudgetExceededError, LaurentPoly, budgets,
                         kernels)

PLENTY = 10**9


def fresh():
    """A generous single-use raw-product allowance."""
    return [PLENTY]


def test_add_merges_and_drops_zeros():
    a = {(1, 0): 2, (0, 1): 1}
    b = {(1, 0): -2, (2, 0): 5}
    assert kernels.add_terms(a, b, 0) == {(0, 1): 1, (2, 0): 5}


def test_mul_example_gf():
    # (x + 2) * (x + 3) = x^2 + 5x + 6 = x^2 + 1 over GF(5)
    a = {(1,): 1, (0,): 2}
    b = {(1,): 1, (0,): 3}
    assert kernels.mul_terms(a, b, 5, 10**6, fresh()) == {(2,): 1, (0,): 1}


def test_mul_respects_term_budget():
    a = {(i,): 1 for i in range(40)}
    b = {(40 * i,): 1 for i in range(40)}
    with pytest.raises(BudgetExceededError) as err:
        kernels.mul_terms(a, b, 0, 100, fresh())
    assert err.value.budget == "max_terms"


@pytest.mark.parametrize("p", [0, 5])
def test_mul_respects_raw_product_budget(p):
    # 40 x 40 = 1600 pairwise products but only 79 distinct result terms,
    # so the term cap alone would never fire.
    a = {(i,): 1 for i in range(40)}
    with pytest.raises(BudgetExceededError) as err:
        kernels.mul_terms(a, a, p, 10**6, [1000])
    assert err.value.budget == "max_raw_products"
    allowance = [40 * 40]
    kernels.mul_terms(a, a, p, 10**6, allowance)
    assert allowance[0] == 0


def test_raw_allowance_is_cumulative_inside_meter():
    a = {(i,): 1 for i in range(10)}
    with budgets.raw_meter(150) as meter:
        kernels.mul_terms(a, a, 0, 10**6, meter)  # costs 100
        assert meter[0] == 50
        with pytest.raises(BudgetExceededError) as err:
            kernels.mul_terms(a, a, 0, 10**6, meter)  # needs 100 more
        assert err.value.budget == "max_raw_products"
        assert meter[0] == 0


def test_raw_allowance_fresh_outside_meter():
    a = {(i,): 1 for i in range(10)}
    with budgets.limits(max_raw_products=150):
        # Each bare call draws a fresh allowance, so both succeed.
        kernels.mul_terms(a, a, 0, 10**6, budgets.raw_allowance())
        kernels.mul_terms(a, a, 0, 10**6, budgets.raw_allowance())
        with budgets.raw_meter() as meter:
            kernels.mul_terms(a, a, 0, 10**6, meter)
            with pytest.raises(BudgetExceededError):
                kernels.mul_terms(a, a, 0, 10**6, meter)


def test_mul_over_allowance_raises_before_any_pair():
    # the call's work (4 pairs) is over the allowance, so it raises
    # before forming any pair, the first of which lands on 2^63
    a = {(2**62,): 1, (0,): 1}
    b = {(2**62,): 1, (1,): 1}
    allowance = [2]
    with pytest.raises(BudgetExceededError) as err:
        kernels.mul_terms(a, b, 5, 10**6, allowance)
    assert err.value.budget == "max_raw_products"
    assert allowance[0] == 0


def test_mul_term_budget_charges_the_whole_work():
    a = {(i, 0): 1 for i in range(10)}
    b = {(0, j): 1 for j in range(10)}
    allowance = [1000]
    with pytest.raises(BudgetExceededError) as err:
        kernels.mul_terms(a, b, 0, 50, allowance)
    assert err.value.budget == "max_terms"
    assert allowance[0] == 900


def test_exponent_overflow_guard():
    # exponents are Python ints, so a product past 2^63 is exact: the
    # one-term shift and the tuple loop
    top = 2**63 - 1
    assert kernels.mul_terms({(top,): 1}, {(1,): 1}, 0, 10**6,
                             fresh()) == {(2**63,): 1}
    a = {(top,): 1, (0,): 1}
    b = {(1,): 1, (0,): 2}
    assert list(kernels.mul_terms(a, b, 0, 10**6, fresh()).items()) == \
        [((2**63,), 1), ((top,), 2), ((1,), 1), ((0,), 2)]
    low = {(-2**63,): 3, (0,): 1}
    assert kernels.mul_terms(low, b, 5, 10**6, fresh()) == \
        {(1 - 2**63,): 3, (-2**63,): 1, (1,): 1, (0,): 2}


# -- fused multiply-and-split ------------------------------------------------


def mul_split(a, b, p, q, r, max_terms, raw):
    """The fused split with b as the grouped factor."""
    return kernels.mul_split_terms(a, b, kernels.residue_groups(b, q), p, q,
                                   r, max_terms, raw)


def split_oracle(a, b, p, q, r):
    """The unfused path: the whole product, then the residue filter."""
    out = {}
    for e, c in kernels.mul_terms(a, b, p, 10**6, fresh()).items():
        if all(x % q == r for x in e):
            out[tuple((x - r) // q for x in e)] = c
    return out


def pairs_in_class(a, b, q, r):
    return sum(all((x + y) % q == r for x, y in zip(ea, eb))
               for ea in a for eb in b)


@st.composite
def split_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    q = draw(st.sampled_from([p, p * p]))
    r = draw(st.sampled_from([0, q - 1]))
    nvars = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(min_value=-12, max_value=12)] * nvars)
    coeffs = st.integers(min_value=1, max_value=p - 1)
    a = draw(st.dictionaries(exps, coeffs, max_size=12))
    b = draw(st.dictionaries(exps, coeffs, max_size=30))
    return p, q, r, a, b


@given(split_cases())
def test_mul_split_matches_unfused_product(case):
    p, q, r, a, b = case
    want = split_oracle(a, b, p, q, r)
    # both argument orders, so either factor is the one grouped
    assert mul_split(a, b, p, q, r, 10**6, fresh()) == want
    assert mul_split(b, a, p, q, r, 10**6, fresh()) == want


def test_mul_split_drains_raw_by_pairs_formed():
    a = {(i, j): 1 + (i + j) % 4 for i in range(-7, 8) for j in range(5)}
    b = {(i, 2 * i): 3 for i in range(9)}
    pairs = pairs_in_class(a, b, 5, 4)
    assert 0 < pairs < len(a) * len(b)
    for x, y in ((a, b), (b, a)):
        allowance = [pairs + 3]
        mul_split(x, y, 5, 5, 4, 10**6, allowance)
        assert allowance[0] == 3
    with pytest.raises(BudgetExceededError) as err:
        mul_split(a, b, 5, 5, 4, 10**6, [pairs - 1])
    assert err.value.budget == "max_raw_products"


def test_mul_split_respects_term_budget():
    a = {(i,): 1 for i in range(0, 200, 5)}
    b = {(5 * i + 4,): 1 for i in range(0, 400, 40)}
    out = mul_split(a, b, 7, 5, 4, 10**6, fresh())
    assert len(out) == len(a) * len(b)
    with pytest.raises(BudgetExceededError) as err:
        mul_split(a, b, 7, 5, 4, 100, fresh())
    assert err.value.budget == "max_terms"


def test_mul_split_over_allowance_raises_before_any_pair():
    # all four pairs are in the kept class, the first lands past 2^63,
    # and the call's work is over the allowance, so none is formed
    a = {(5 * 2**60,): 1, (0,): 1}
    b = {(5 * 2**60,): 1, (5,): 1}
    allowance = [2]
    with pytest.raises(BudgetExceededError) as err:
        mul_split(a, b, 5, 5, 0, 10**6, allowance)
    assert err.value.budget == "max_raw_products"
    assert allowance[0] == 0


def test_mul_split_overflow_guard():
    # the pairs land in the kept class, at 5 * 2^61 past 2^63 and at
    # 5 * 2^60 + 5, and are stored exactly at a fifth of that
    a = {(5 * 2**60,): 1, (5,): 2}
    allowance = [10]
    assert mul_split(a, a, 5, 5, 0, 10**6, allowance) == \
        {(2**61,): 1, (2**60 + 1,): 4, (2,): 4}
    assert allowance[0] == 6


# -- one-term factors: the shift path ---------------------------------------


def reduced(out, p):
    """A plain dict of sums, reduced mod p, with its zeros dropped."""
    if p:
        out = {e: c % p for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def schoolbook(a, b, p):
    """Every pair multiplied and summed in a plain dict."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return reduced(out, p)


def plain_sum(a, b, p, scale=1):
    """a + scale * b in a plain dict."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return reduced(out, p)


def field_coeffs(p):
    """Nonzero coefficients in the kernels' canonical form: residues
    1..p-1 over GF(p); over QQ ints, and Fractions with denominator > 1,
    halves among them, so that sums and products such as 1/2 + 1/2 and
    2 * 1/2 come out integral."""
    if p:
        return st.integers(min_value=1, max_value=p - 1)
    return st.one_of(
        st.integers(min_value=-9, max_value=9).filter(bool),
        st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]),
        st.fractions(min_value=-9, max_value=9, max_denominator=5)
        .filter(lambda c: c.denominator > 1))


@st.composite
def shift_cases(draw):
    p = draw(st.sampled_from([0, 2, 3, 5]))
    nvars = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(min_value=-9, max_value=9)] * nvars)
    coeffs = field_coeffs(p)
    a = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=1))
    b = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=20))
    return p, a, b


@given(shift_cases())
def test_mul_one_term_factor_matches_schoolbook(case):
    p, a, b = case
    want = schoolbook(a, b, p)
    for x, y in ((a, b), (b, a)):
        allowance = [len(b) + 7]
        out = kernels.mul_terms(x, y, p, 10**6, allowance)
        assert out == want
        assert_canonical(out, p)
        assert allowance[0] == 7


@given(shift_cases())
def test_mul_one_term_factor_budgets_match_general_row(case):
    # a product is charged its whole work, len(a) * len(b), before it
    # forms any pair; with a one-term factor that work is len(b)
    p, a, b = case
    allowance = [len(b) - 1]
    with pytest.raises(BudgetExceededError) as err:
        kernels.mul_terms(b, a, p, 10**6, allowance)
    assert err.value.budget == "max_raw_products"
    assert allowance[0] == 0
    allowance = [len(b) + 3]
    with pytest.raises(BudgetExceededError) as err:
        kernels.mul_terms(a, b, p, len(b) - 1, allowance)
    assert err.value.budget == "max_terms"
    assert allowance[0] == 3
    assert len(kernels.mul_terms(a, b, p, len(b), fresh())) == len(b)


@pytest.mark.parametrize("p", [0, 5])
def test_mul_one_term_factor_overflow_guard(p):
    # the shift past 2^63 is exact, with coefficient 1 and without
    b = {(0,): 1, (2**62,): 3}
    for c in (1, 3):
        a = {(2**62,): c}
        want = {(2**62,): c, (2**63,): 3 * c % p if p else 3 * c}
        for x, y in ((a, b), (b, a)):
            allowance = [10]
            assert kernels.mul_terms(x, y, p, 10**6, allowance) == want
            assert allowance[0] == 8


# -- every accumulation loop against a plain dict ----------------------------


@st.composite
def term_cases(draw):
    """Multi-term a and b; b sometimes holds the negations of some terms
    of a, so that sums cancel, and copies of others, so that sums of
    halves come out integral.  Also a row c0 * x^e0 for submul, which is
    sometimes -1, so that the row cancels against those negations."""
    p = draw(st.sampled_from([0, 2, 3, 5]))
    nvars = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(min_value=-4, max_value=4)] * nvars)
    coeffs = field_coeffs(p)
    a = draw(st.dictionaries(exps, coeffs, min_size=2, max_size=12))
    b = draw(st.dictionaries(exps, coeffs, min_size=2, max_size=12))
    for e in draw(st.sets(st.sampled_from(sorted(a)))):
        b[e] = (-a[e]) % p if p else -a[e]
    for e in draw(st.sets(st.sampled_from(sorted(a)))):
        b[e] = a[e]  # over QQ, 1/2 + 1/2 is the int 1
    minus_one = p - 1 if p else -1
    e0 = draw(st.one_of(st.just((0,) * nvars), exps))
    c0 = draw(st.one_of(st.just(minus_one), coeffs))
    return p, a, b, e0, c0


def assert_canonical(terms, p):
    """Residues 1..p-1 over GF(p); over QQ a nonzero int, or a Fraction
    that is not integral.  Never a float."""
    for c in terms.values():
        if p:
            assert type(c) is int and 1 <= c < p
        elif type(c) is int:
            assert c != 0
        else:
            assert type(c) is Fraction and c.denominator > 1, repr(c)


@given(term_cases())
def test_kernels_match_plain_dicts(case):
    p, a, b, e0, c0 = case
    add = kernels.add_terms(a, b, p)
    sub = kernels.sub_terms(a, b, p)
    mul = kernels.mul_terms(a, b, p, 10**6, fresh())
    assert add == plain_sum(a, b, p)
    assert sub == plain_sum(a, b, p, -1)
    assert mul == schoolbook(a, b, p)
    assert kernels.mul_terms(b, a, p, 10**6, fresh()) == mul
    shift = kernels.scale_shift_terms(b, e0, c0, p)
    assert shift == schoolbook({e0: c0}, b, p)
    # the row on keys packed over a box that holds a and the row
    lo, hi = kernels.box(list(a) + list(shift))
    radix = kernels.radices(lo, hi)
    rem = dict(kernels.pack_terms(a, lo, radix))
    row = dict(kernels.pack_terms(b, [0] * len(e0), radix))
    (k0, _), = kernels.pack_terms({e0: c0}, lo, radix)
    created = kernels.submul_terms(rem, k0, c0, row, p, fresh())
    rem = dict(zip(kernels.unpack(rem, lo, radix), rem.values()))
    assert rem == plain_sum(a, shift, p, -1)
    assert set(kernels.unpack(created, lo, radix)) == set(rem) - set(a)
    for out in (add, sub, mul, shift, rem):
        assert_canonical(out, p)


def test_scale_shift():
    a = {(1, 1): 3, (0, 2): 4}
    out = kernels.scale_shift_terms(a, (2, -1), 2, 7)
    assert out == {(3, 0): 6, (2, 1): 1}
    # negation over GF(7) is scaling by 6
    assert kernels.neg_terms(out, 7) == {(3, 0): 1, (2, 1): 6}


def test_qq_values_that_become_integral_are_ints():
    half = Fraction(1, 2)
    cases = [
        kernels.add_terms({(1,): half}, {(1,): half, (0,): half}, 0),
        kernels.mul_terms({(0,): 2, (1,): 4}, {(0,): half, (2,): half}, 0,
                          10**6, fresh()),
        kernels.mul_terms({(0,): 2}, {(0,): half, (2,): Fraction(3, 2)}, 0,
                          10**6, fresh()),
        kernels.scale_shift_terms({(1,): half, (0,): 1}, (1,), 4, 0),
    ]
    rem = {2: half, 1: Fraction(5, 2)}  # submul rows run on packed keys
    kernels.submul_terms(rem, 1, half, {1: -1, 0: 1}, 0, fresh())
    cases.append(rem)
    assert cases == [
        {(1,): 1, (0,): half},
        {(0,): 1, (2,): 1, (1,): 2, (3,): 2},
        {(0,): 1, (2,): 3},
        {(2,): 2, (1,): 4},
        {2: 1, 1: 2},
    ]
    for out in cases:
        assert_canonical(out, 0)


def test_submul_updates_in_place():
    rem = {2: 1, 1: 1}
    touched = kernels.submul_terms(rem, 1, 1, {1: 1}, 0, fresh())
    assert rem == {1: 1}
    assert set(touched) <= set(rem)


@pytest.mark.parametrize("p", [0, 5])
def test_submul_charges_raw_allowance(p):
    rem = {2: 1}
    b = {i: 1 for i in range(5)}
    allowance = [12]
    kernels.submul_terms(rem, 0, 1, b, p, allowance)
    assert allowance[0] == 7
    kernels.submul_terms(rem, 1, 1, b, p, allowance)
    assert allowance[0] == 2
    with pytest.raises(BudgetExceededError) as err:
        kernels.submul_terms(rem, 2, 1, b, p, allowance)
    assert err.value.budget == "max_raw_products"


@pytest.mark.parametrize("p", [0, 5])
def test_submul_overflow_leaves_the_allowance(p):
    # the quotient exponent 2^63 is exact, and its one row is charged
    # its two raw products
    field = GF(p) if p else QQ
    num = LaurentPoly.from_terms(field, 1, {(2**63 - 1,): 1, (2**63 - 2,): 1})
    den = LaurentPoly.from_terms(field, 1, {(-1,): 1, (-2,): 1})
    with budgets.raw_meter(10) as meter:
        assert num.exact_divide(den).terms == {(2**63,): 1}
    assert meter == [8]


def test_backend_reports():
    assert kernels.backend() == "pure"


# -- packed keys against the tuple loop -----------------------------------------


def tuple_mul_terms(a, b, p, max_terms, raw):
    """The product kernel as it was before packed keys: every pair forms
    its exponent tuple.  The reference of mul_terms, order of the output
    included."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    remaining = raw[0] - len(a) * len(b)
    if remaining < 0:
        raw[0] = 0
        raise BudgetExceededError("max_raw_products", "")
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            old = out.get(e)
            v = ca * cb if old is None else old + ca * cb
            if p:
                v %= p
            elif type(v) is Fraction and v.denominator == 1:
                v = v.numerator
            if v:
                out[e] = v
            elif old is not None:
                del out[e]
        if len(out) > max_terms:
            raw[0] = remaining
            raise BudgetExceededError("max_terms", "")
    raw[0] = remaining
    return out


def outcome(mul, a, b, p, max_terms, raw):
    """(terms as a list in dict order, or the error's kind) and the
    allowance left, of one product."""
    allowance = [raw]
    try:
        got = list(mul(a, b, p, max_terms, allowance).items())
    except BudgetExceededError as exc:
        got = exc.budget
    return got, allowance[0]


# offsets of exponents in the packed-vs-tuple oracles: past +-2^63 and
# +-2^64 on their own, and so far apart that a box spans more than 2^64
WIDE_OFFSETS = [0, 0, 0, 2**62, -2**62, 2**64, -2**64, 2**80]


@st.composite
def packed_cases(draw):
    """Products on both sides of the packing rule, with negative
    exponents, cancelling and integral-making terms as in term_cases.
    Each factor is moved by an offset as large as 2^80 in some
    coordinates, and some of its terms by another, so that the box of
    the product can pass +-2^63 in part or in whole and be wider than
    2^64 in a coordinate: the packed keys are then wider than 64 bits."""
    p = draw(st.sampled_from([0, 2, 3, 5]))
    nvars = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(min_value=-4, max_value=4)] * nvars)
    coeffs = field_coeffs(p)
    a = draw(st.dictionaries(exps, coeffs, min_size=2, max_size=12))
    b = draw(st.dictionaries(exps, coeffs, min_size=2, max_size=12))
    for e in draw(st.sets(st.sampled_from(sorted(a)))):
        b[e] = (-a[e]) % p if p else -a[e]
    for e in draw(st.sets(st.sampled_from(sorted(a)))):
        b[e] = a[e]
    offsets = st.tuples(*[st.sampled_from(WIDE_OFFSETS)] * nvars)
    for terms in (a, b):
        shift = draw(offsets)
        far = draw(offsets)
        moved = draw(st.sets(st.sampled_from(sorted(terms))))
        shifted = {tuple(x + s + (f if e in moved else 0)
                         for x, s, f in zip(e, shift, far)): c
                   for e, c in terms.items()}
        terms.clear()
        terms.update(shifted)
    max_terms = draw(st.integers(min_value=0, max_value=40))
    raw = draw(st.integers(min_value=len(a) * len(b) - 2,
                           max_value=len(a) * len(b) + 2))
    return p, a, b, max_terms, raw


@example((0, {(i,): i + 1 for i in range(4)},
          {(2 * j,): Fraction(1, 2) for j in range(7)}, 40, 28))  # 28 pairs
@example((0, {(i,): i + 1 for i in range(4)},
          {(2 * j,): Fraction(-1, 3) for j in range(8)}, 40, 32))  # 32 pairs
@example((3, {(i, 2**80 * (i % 2)): 1 + i % 2 for i in range(6)},
          {(-2**64 * j, j): 2 for j in range(6)}, 40, 36))  # keys past 2^128
@given(packed_cases())
def test_mul_matches_the_tuple_loop(case):
    # terms, their order, the error raised and the allowance left, on
    # both sides of the packing rule
    p, a, b, max_terms, raw = case
    want = outcome(tuple_mul_terms, a, b, p, max_terms, raw)
    assert outcome(kernels.mul_terms, a, b, p, max_terms, raw) == want
    assert outcome(kernels.mul_terms, b, a, p, max_terms, raw) == \
        outcome(tuple_mul_terms, b, a, p, max_terms, raw)


@pytest.mark.parametrize("size", [kernels._PACK_MIN // 2 - 1,
                                  kernels._PACK_MIN // 2])
def test_packing_rule_sides_match_the_tuple_loop(size):
    # a 2 x size product on each side of the rule whose last pair lands
    # on 2^63, under term caps that stop it in its first row or not at
    # all, and allowances that cover it or not; then one whose last pair
    # lands on 2^63 - 1
    a = {(0,): 1, (2**62,): 3}
    b = {(i,): Fraction(1, i + 2) for i in range(size - 1)}
    b[(2**62,)] = 1
    for max_terms in (0, size - 1, size, 10**6):
        for raw in (2 * size - 1, 2 * size):
            assert outcome(kernels.mul_terms, a, b, 0, max_terms, raw) == \
                outcome(tuple_mul_terms, a, b, 0, max_terms, raw)
    got = outcome(kernels.mul_terms, a, b, 0, 10**6, 10**6)
    assert got[0][-1] == ((2**63,), 3)
    del b[(2**62,)]
    b[(2**62 - 1,)] = 1
    got = outcome(kernels.mul_terms, a, b, 0, 10**6, 10**6)
    assert got == outcome(tuple_mul_terms, a, b, 0, 10**6, 10**6)
    assert got[0][-1] == ((2**63 - 1,), 3)


# -- the square kernel against the product ---------------------------------------


@st.composite
def square_cases(draw):
    """A factor of up to 16 terms, so that squares fall on both sides of
    `_PACK_MIN`, over QQ (ints and Fractions) or GF(2), GF(3), GF(5),
    moved by offsets as large as 2^80 as in packed_cases."""
    p = draw(st.sampled_from([0, 2, 3, 5]))
    nvars = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(min_value=-4, max_value=4)] * nvars)
    a = draw(st.dictionaries(exps, field_coeffs(p), max_size=16))
    shift = draw(st.tuples(*[st.sampled_from(WIDE_OFFSETS)] * nvars))
    return p, {tuple(map(add, e, shift)): c for e, c in a.items()}


@example((0, {(i,): Fraction(1, 2) for i in range(6)}))  # 36 pairs
@example((2, {(i, i % 3): 1 for i in range(9)}))  # Frobenius over GF(2)
@example((5, {(i,): 1 + i % 4 for i in range(5)}))  # 25 pairs, tuple loop
@given(square_cases())
def test_square_matches_the_product(case):
    # the same terms as mul_terms(a, a), charged n(n+1)/2 pairs, or n^2
    # below _PACK_MIN where the square is that product
    p, a = case
    n = len(a)
    raw = [PLENTY]
    got = kernels.square_terms(a, p, 10**6, raw)
    assert got == kernels.mul_terms(a, a, p, 10**6, fresh())
    assert got == schoolbook(a, a, p)
    assert_canonical(got, p)
    charged = n * n if n * n < kernels._PACK_MIN else n * (n + 1) // 2
    assert PLENTY - raw[0] == charged


def test_square_budgets():
    a = {(i,): 1 for i in range(40)}  # 1600 pairs, 820 formed
    with pytest.raises(BudgetExceededError) as err:
        kernels.square_terms(a, 0, 10**6, [819])
    assert err.value.budget == "max_raw_products"
    allowance = [820]
    kernels.square_terms(a, 0, 10**6, allowance)
    assert allowance[0] == 0
    allowance = [PLENTY]
    with pytest.raises(BudgetExceededError) as err:
        kernels.square_terms(a, 0, 50, allowance)
    assert err.value.budget == "max_terms"
    assert allowance[0] == PLENTY - 820
