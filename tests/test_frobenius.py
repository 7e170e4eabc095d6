"""Splitting maps in prime characteristic."""

import itertools
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clusterfrob import (GF, BudgetExceededError, FieldMismatchError,
                         LaurentPoly, MutationAtFrozenError, NotAcyclicError,
                         NotDivisibleError, RationalExpr, SplittingMap,
                         budgets, cluster_substitution, corpus,
                         express_rational, freg_witness_sink, frobenius,
                         hom_generator, initial_seed, split_apply,
                         splitting_invariance_check, standard_split)


def lp(field, n, terms):
    return LaurentPoly.from_terms(field, n, terms)


def gf_polys(p, n, max_size=5):
    e = st.tuples(*[st.integers(min_value=-4, max_value=4)] * n)
    c = st.integers(min_value=1, max_value=p - 1)
    return st.dictionaries(e, c, max_size=max_size).map(
        lambda d: lp(GF(p), n, list(d.items())))


# -- the standard splitting ---------------------------------------------------


def test_standard_split_keeps_multiples():
    f = lp(GF(3), 1, [((6,), 1), ((3,), 2), ((1,), 1), ((0,), 2)])
    out = standard_split(f, 3)
    assert out.terms == {(2,): 1, (1,): 2, (0,): 2}


def test_standard_split_negative_exponents():
    f = lp(GF(2), 2, [((-2, 4), 1), ((-1, 2), 1)])
    assert standard_split(f, 2).terms == {(-1, 2): 1}


def test_standard_split_higher_e():
    f = lp(GF(3), 1, [((9,), 2), ((3,), 1)])
    assert standard_split(f, 3, e=2).terms == {(1,): 2}
    # iterating e=1 twice agrees with e=2 in one shot
    assert standard_split(standard_split(f, 3), 3) == \
        standard_split(f, 3, e=2)


def test_standard_split_of_one():
    one = LaurentPoly.one(GF(5), 2)
    assert standard_split(one, 5) == one


@given(gf_polys(3, 2), gf_polys(3, 2))
def test_standard_split_additive(f, g):
    assert standard_split(f + g, 3) == \
        standard_split(f, 3) + standard_split(g, 3)


@given(gf_polys(3, 2), gf_polys(3, 2))
def test_standard_split_p_linear(f, g):
    # phi(g^p * f) = g * phi(f)
    assert standard_split(g ** 3 * f, 3) == g * standard_split(f, 3)


@given(gf_polys(5, 1))
def test_standard_split_section_of_frobenius(f):
    assert standard_split(f ** 5, 5) == f


def residue_filter(f, q, r=0):
    """The unfused split, every split's oracle: the terms of f whose
    exponents are all congruent to r mod q, stored at (e - r) // q."""
    return {tuple((a - r) // q for a in e): c for e, c in f
            if all(a % q == r for a in e)}


@st.composite
def split_cases(draw):
    """(p, e, f) with f over GF(p); about half the exponents drawn are
    multiples of q = p^e, so that terms are kept."""
    p = draw(st.sampled_from([2, 3, 5]))
    e = draw(st.integers(min_value=1, max_value=2))
    q = p ** e
    n = draw(st.integers(min_value=1, max_value=3))
    exp = st.one_of(st.integers(min_value=-2 * q, max_value=2 * q),
                    st.integers(min_value=-2, max_value=2).map(q.__mul__))
    terms = draw(st.dictionaries(st.tuples(*[exp] * n),
                                 st.integers(min_value=1, max_value=p - 1),
                                 max_size=8))
    return p, e, lp(GF(p), n, list(terms.items()))


@given(split_cases())
def test_standard_split_is_the_residue_filter(case):
    p, e, f = case
    assert standard_split(f, p, e).terms == residue_filter(f, p ** e)


@given(split_cases(), st.data())
def test_split_apply_is_the_filtered_whole_product(case, data):
    # split_apply forms only the kept pairs of a * b^(q-1): its value is
    # the whole product, filtered, then divided by b where that is exact
    p, e, a = case
    fld, n, q = GF(p), a.n, p ** e
    b = data.draw(st.dictionaries(
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * n),
        st.integers(min_value=1, max_value=p - 1), min_size=1, max_size=3))
    b = lp(fld, n, list(b.items()))
    cleared = LaurentPoly(fld, n, residue_filter(a * b ** (q - 1), q))
    want = RationalExpr(cleared, b).simplify()
    got = split_apply(SplittingMap.standard(p, e, n), RationalExpr(a, b))
    assert (got.num, got.den) == (want.num, want.den)


def test_split_grouping_is_kept_per_modulus():
    # one polynomial split at q = p, then p^2, then p again: each split is
    # that of a fresh copy, so a grouping kept for one q never serves
    # another
    fld = GF(3)
    c = lp(fld, 2, [((0, 0), 1), ((3, 6), 2), ((9, 0), 1), ((1, 2), 1),
                    ((8, 17), 2), ((2, -1), 1)])
    others = [LaurentPoly.one(fld, 2), LaurentPoly.monomial(fld, 2, (1, 1)),
              lp(fld, 2, [((0, 1), 1), ((2, 0), 2), ((6, 3), 1)])]
    for q in (3, 9, 3):
        for r in (0, q - 1):
            for other in others:
                fresh = LaurentPoly(fld, 2, dict(c.terms))
                got = c.mul_split(other, q, r)
                assert got == fresh.mul_split(other, q, r), (q, r)
                assert got.terms == residue_filter(c * other, q, r), (q, r)
    assert residue_filter(c, 3) != residue_filter(c, 9)


def test_split_charges_the_pairs_it_keeps(monkeypatch):
    # a split drains the meter by the pairs it keeps and forms, and no
    # more; a denominator of 1 is neither powered nor divided by
    fld = GF(3)
    f = lp(fld, 2, [((0, 0), 1), ((3, 6), 2), ((1, 2), 1), ((9, 3), 2)])
    with budgets.raw_meter(10) as meter:
        assert standard_split(f, 3).terms == {(0, 0): 1, (1, 2): 2,
                                              (3, 1): 2}
    assert meter[0] == 7
    with budgets.raw_meter(3):
        standard_split(f, 3)
    with pytest.raises(BudgetExceededError) as err:
        with budgets.raw_meter(2):
            standard_split(f, 3)
    assert err.value.budget == "max_raw_products"

    def forbidden(self, other):
        raise AssertionError(f"{self.render()} powered or divided")

    monkeypatch.setattr(LaurentPoly, "__pow__", forbidden)
    monkeypatch.setattr(LaurentPoly, "exact_divide", forbidden)
    m = SplittingMap.standard(3, 2, 2)
    with budgets.raw_meter(10) as meter:
        value = split_apply(m, RationalExpr(f))
    assert meter[0] == 9
    assert value.den.is_one() and value.num.terms == {(0, 0): 1}


# -- twisted maps on fractions -------------------------------------------------


def test_split_apply_clears_denominator():
    fld = GF(3)
    x = LaurentPoly.variable(fld, 1, 0)
    one = LaurentPoly.one(fld, 1)
    m = SplittingMap.standard(3, 1, 1)
    # (x^3 / (1+x)^3) -> x / (1+x); cleared form picks num*den^2
    r = RationalExpr(x ** 3, (one + x) ** 3)
    assert split_apply(m, r).equals(RationalExpr(x, one + x))


@given(gf_polys(3, 1, 4), gf_polys(3, 1, 3).filter(lambda f: not f.is_zero()),
       gf_polys(3, 1, 3).filter(lambda f: not f.is_zero()))
def test_split_apply_representation_independent(a, b, c):
    m = SplittingMap.standard(3, 1, 1)
    assert split_apply(m, RationalExpr(a, b)).equals(
        split_apply(m, RationalExpr(a * c, b * c)))


def test_split_apply_accepts_plain_polynomials():
    m = SplittingMap.standard(2, 1, 1)
    f = lp(GF(2), 1, [((2,), 1), ((1,), 1)])
    assert split_apply(m, f).equals(
        RationalExpr(LaurentPoly.variable(GF(2), 1, 0)))


def test_split_apply_standard_twist_checks_arity():
    m = SplittingMap.standard(3, 1, 2)
    with pytest.raises(FieldMismatchError):
        split_apply(m, LaurentPoly.variable(GF(3), 3, 0))


def test_twist_changes_the_map():
    fld = GF(3)
    x = LaurentPoly.variable(fld, 1, 0)
    twist = RationalExpr(x ** 3)
    m = SplittingMap(3, 1, twist)
    assert split_apply(m, LaurentPoly.one(fld, 1)).equals(
        RationalExpr(x))


def test_splitting_map_validates():
    with pytest.raises(ValueError):
        SplittingMap.standard(4, 1, 1)
    with pytest.raises(ValueError):
        SplittingMap.standard(3, 0, 1)


# -- generator reconstruction ---------------------------------------------------


def test_hom_generator_standard_case():
    # prescribing 1 at exponent 0 and 0 elsewhere reconstructs the
    # standard splitting's twist, which is the constant 1
    fld = GF(3)
    s = hom_generator(3, 1, {(0,): LaurentPoly.one(fld, 1)})
    assert s.is_one()


def test_hom_generator_example_p2():
    fld = GF(2)
    one = LaurentPoly.one(fld, 2)
    x2 = LaurentPoly.variable(fld, 2, 1)
    values = {(0, 0): one, (1, 0): x2}
    s = hom_generator(2, 2, values)
    # s = 1 + x2^2 * x1^-1, and the verification inside already ran
    assert s.terms == {(0, 0): 1, (-1, 2): 1}


def test_hom_generator_roundtrip_random():
    fld = GF(3)
    import random
    rng = random.Random(7)
    exps = list(itertools.product(range(3), repeat=2))
    for _ in range(10):
        values = {}
        for b in exps:
            if rng.random() < 0.5:
                t = {(rng.randrange(-2, 3), rng.randrange(-2, 3)):
                     rng.randrange(1, 3)}
                values[b] = lp(fld, 2, list(t.items()))
        s = hom_generator(3, 2, values)
        m = SplittingMap(3, 1, RationalExpr(s))
        for b in exps:
            expected = values.get(b, LaurentPoly.zero(fld, 2))
            got = split_apply(m, LaurentPoly.monomial(fld, 2, b))
            assert got.equals(RationalExpr(expected))


def test_hom_generator_rejects_out_of_box():
    with pytest.raises(ValueError):
        hom_generator(3, 1, {(3,): LaurentPoly.one(GF(3), 1)})


# -- invariance under mutation ---------------------------------------------------


def small_box(n, p):
    side = range(-p, p + 1)
    return list(itertools.product(side, repeat=n))


def test_invariance_a2_p3():
    seed = initial_seed(corpus.load("a2"), GF(3))
    report = splitting_invariance_check(seed, 0, 3, small_box(2, 3))
    assert report.ok
    assert report.checked == 7 ** 2
    assert report.vertex == 0
    assert report.p == 3


def test_invariance_a2_p2_other_vertex():
    seed = initial_seed(corpus.load("a2"), GF(2))
    report = splitting_invariance_check(seed, 1, 2, small_box(2, 2))
    assert report.ok


def test_invariance_markov_spot_checks():
    seed = initial_seed(corpus.load("markov"), GF(3))
    sample = [(0, 0, 0), (3, 0, 0), (0, 3, 3), (1, 0, 0), (-3, 3, 0),
              (2, 2, 2), (-1, -1, 2)]
    report = splitting_invariance_check(seed, 0, 3, sample)
    assert report.ok
    assert report.checked == len(sample)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", corpus.NAMES)
def test_invariance_at_a_mutated_seed(name, p):
    # the seed is read in its own cluster, so a seed away from the initial
    # one certifies its own standard splitting against its neighbours
    q = corpus.load(name)
    seed = initial_seed(q, GF(p)).mutate(min(q.mutable))
    for k in q.mutable:
        report = splitting_invariance_check(seed, k, p, small_box(q.n, p))
        assert report.ok, (name, p, k, report.failures[:1])
        assert report.checked == (2 * p + 1) ** q.n


def test_invariance_rejects_frozen_vertex():
    seed = initial_seed(corpus.load("mixed-pair"), GF(3))
    with pytest.raises(MutationAtFrozenError):
        splitting_invariance_check(seed, 1, 3, small_box(2, 3))


MUL_SPLIT = LaurentPoly.mul_split


def split_off_by_one(self, other, q, r):
    """Keeps the exponents = r + 1 mod q, stored at (e - r - 1)/q: a
    p^(-1)-linear map, but not the standard splitting."""
    return MUL_SPLIT(self, other, q, r + 1)


def test_invariance_fails_for_a_split_off_by_one(monkeypatch):
    # the mutant must be caught in the fused split the check runs
    monkeypatch.setattr(LaurentPoly, "mul_split", split_off_by_one)
    seed = initial_seed(corpus.load("a2"), GF(3))
    for k in (0, 1):
        report = splitting_invariance_check(seed, k, 3, small_box(2, 3))
        assert report.checked == 49
        assert not report.ok


def test_invariance_rejects_bad_alpha():
    seed = initial_seed(corpus.load("a2"), GF(3))
    with pytest.raises(ValueError):
        splitting_invariance_check(seed, 0, 3, [(1, 2, 3)])


def per_vector_images(seed, k, p, sample):
    """The check's images computed vector by vector, its slow twin:
    split_apply of the standard map on x'^alpha_k * x^m, with x'^alpha_k
    powered and cleared again for every vector."""
    fld, n = seed.field, seed.n
    (_, numer), = cluster_substitution(seed, (k,))
    xk_new = RationalExpr(numer * LaurentPoly.variable(fld, n, k).inverse())
    m = SplittingMap.standard(p, 1, n)
    for alpha in sample:
        mono = LaurentPoly.monomial(fld, n, alpha[:k] + (0,) + alpha[k + 1:])
        yield split_apply(m, xk_new ** alpha[k] * mono)


def per_vector_report(seed, k, p, sample):
    """The check's (checked, failures) with every vector split, re-read
    and compared on its own, its slow twin."""
    fld, n = seed.field, seed.n
    steps = cluster_substitution(seed, (k,))
    (_, numer), = steps
    xk_new = RationalExpr(numer * LaurentPoly.variable(fld, n, k).inverse())
    failures = []
    for alpha in sample:
        power = xk_new ** alpha[k]
        a, b = power.num, power.den
        c = a if b.is_one() else a * b ** (p - 1)
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
            failures.append((alpha, "image is not Laurent in the mutated "
                                    "cluster: " + moved.render()))
            continue
        if got != expected:
            failures.append(
                (alpha, f"{got.render()} != {expected.render()}"))
    return len(sample), tuple(failures)


def representatives(sample, k, p):
    """One vector per class (alpha_k, alpha mod p off k), in the order
    the classes first occur: alpha mod p with alpha_k at k."""
    reps = {}
    for alpha in sample:
        rep = tuple(a if i == k else a % p for i, a in enumerate(alpha))
        reps.setdefault(rep, None)
    return list(reps)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize(
    "name", ["a2", "a3", "markov", "mixed-pair", "cycle3-frozen"])
def test_invariance_images_match_per_vector_split_apply(name, p,
                                                        monkeypatch):
    # the check re-reads one representative per residue class: its report
    # must be the per-vector twin's, texts and order included, also under
    # a split mutant that fails it; and each image it re-reads must be
    # split_apply's at that representative, term for term
    images = []
    moving = frobenius.express_rational

    def recording(image, steps):
        images.append(image)
        return moving(image, steps)

    monkeypatch.setattr(frobenius, "express_rational", recording)
    q = corpus.load(name)
    initial = initial_seed(q, GF(p))
    sample = small_box(q.n, p)
    seeds = (initial, initial.mutate(min(q.mutable)))
    for seed in seeds:
        for k in sorted(q.mutable):
            images.clear()
            report = splitting_invariance_check(seed, k, p, sample)
            assert report.ok, (name, p, k, report.failures[:1])
            assert ((report.checked, report.failures)
                    == per_vector_report(seed, k, p, sample))
            reps = representatives(sample, k, p)
            assert len(images) == len(reps)
            for alpha, got, want in zip(
                    reps, images, per_vector_images(seed, k, p, reps)):
                assert (got.num, got.den) == (want.num, want.den), alpha
    monkeypatch.setattr(LaurentPoly, "mul_split", split_off_by_one)
    for seed in seeds:
        for k in sorted(q.mutable):
            report = splitting_invariance_check(seed, k, p, sample)
            assert not report.ok
            assert ((report.checked, report.failures)
                    == per_vector_report(seed, k, p, sample))


@st.composite
def shift_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    q = p ** draw(st.integers(min_value=1, max_value=2))
    r = draw(st.sampled_from([0, q - 1]))
    n = draw(st.integers(min_value=1, max_value=3))
    c = draw(gf_polys(p, n, max_size=8))
    rho = draw(st.tuples(*[st.integers(min_value=0, max_value=q - 1)] * n))
    beta = draw(st.tuples(*[st.integers(min_value=-5, max_value=5)] * n))
    return p, q, r, c, rho, beta


@given(shift_cases())
def test_mul_split_of_a_shifted_monomial_is_a_unit_shift(case):
    # the identity behind the check's residue classes:
    # split(c * x^(rho + q*beta)) = x^beta * split(c * x^rho)
    p, q, r, c, rho, beta = case
    fld, n = GF(p), c.n
    far = LaurentPoly.monomial(fld, n, [a + q * b for a, b in zip(rho, beta)])
    near = c.mul_split(LaurentPoly.monomial(fld, n, rho), q, r)
    shifted = LaurentPoly.monomial(fld, n, beta) * near
    assert (list(c.mul_split(far, q, r).terms.items())
            == list(shifted.terms.items()))


def test_invariance_edge_vectors_raise_as_checked_alone():
    # a vector with an entry that is not an int raises the same error
    # alone and after a vector of its residue class; entries past 2^63
    # and bools take the class path and pass
    seed = initial_seed(corpus.load("a2"), GF(3))
    big = 3 * 2 ** 62
    for sample, k, error, text in (
            ([(2 ** 63 - 1, 0)], 0, BudgetExceededError, "max_raw_products"),
            ([(1.0, 0)], 0, ValueError, r"entry 1\.0, not an int"),
            ([(0, 0), (0, 3.0)], 0, ValueError, r"entry 3\.0, not an int"),
            ([(1, 0), (1.0, 0)], 0, ValueError, r"entry 1\.0, not an int"),
            ([(1, 0), (1.0, 0)], 1, ValueError, r"entry 1\.0, not an int"),
            ([(1, 2, 3)], 0, ValueError, "wrong length")):
        with pytest.raises(error, match=text):
            splitting_invariance_check(seed, k, 3, sample)
    for sample, k in (([(0, 0), (0, big)], 0),
                      ([(0, 1), (0, big + 1)], 0),
                      ([(1, 0), (True, 0)], 0),
                      ([(1, 0), (True, 0)], 1)):
        report = splitting_invariance_check(seed, k, 3, sample)
        assert report.ok and report.checked == 2


def test_invariance_boxes_at_p7():
    t0 = time.perf_counter()
    checked = 0
    for name in ("a2", "a3", "markov"):
        q = corpus.load(name)
        seed = initial_seed(q, GF(7))
        sample = list(itertools.product(range(-14, 15), repeat=q.n))
        for k in sorted(q.mutable):
            report = splitting_invariance_check(seed, k, 7, sample)
            assert report.ok, (name, k, report.failures[:1])
            checked += report.checked
    assert checked == 148_016
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"{elapsed:.1f}s"


def test_invariance_boxes_at_p5_at_a_mutated_seed():
    # criterion 3 checks these boxes at the initial seeds
    t0 = time.perf_counter()
    checked = 0
    for name in ("a3", "markov"):
        q = corpus.load(name)
        seed = initial_seed(q, GF(5)).mutate(0)
        sample = list(itertools.product(range(-10, 11), repeat=q.n))
        for k in sorted(q.mutable):
            report = splitting_invariance_check(seed, k, 5, sample)
            assert report.ok, (name, k, report.failures[:1])
            checked += report.checked
    assert checked == 55_566
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"{elapsed:.1f}s"


# -- sink witnesses ----------------------------------------------------------------


def test_sink_witness_a2():
    for p in (2, 3, 5):
        seed = initial_seed(corpus.load("a2"), GF(p))
        w = freg_witness_sink(seed, p)
        assert w.sink == 1
        assert w.e == 1
        assert w.verified
        assert w.value.is_one()


def test_sink_witness_needs_larger_e():
    # doubled arrow into the sink: exchange exponent 2 forces 2^e > 2
    from clusterfrob import Quiver
    q = Quiver(2, ((0, 2), (-2, 0)), frozenset())
    w2 = freg_witness_sink(initial_seed(q, GF(2)), 2)
    assert w2.e == 2 and w2.verified
    w3 = freg_witness_sink(initial_seed(q, GF(3)), 3)
    assert w3.e == 1 and w3.verified


def test_sink_witness_all_acyclic_corpus():
    for name in corpus.ACYCLIC_NAMES:
        seed = initial_seed(corpus.load(name), GF(3))
        w = freg_witness_sink(seed, 3)
        assert w.verified, name


def test_sink_witness_rejects_cyclic():
    seed = initial_seed(corpus.load("markov"), GF(5))
    with pytest.raises(NotAcyclicError):
        freg_witness_sink(seed, 5)
