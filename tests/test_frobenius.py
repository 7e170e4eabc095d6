"""Splitting maps in prime characteristic."""

import itertools
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clusterfrob import (GF, FieldMismatchError, LaurentPoly,
                         MutationAtFrozenError, NotAcyclicError,
                         RationalExpr, SplittingMap, cluster_substitution,
                         corpus, freg_witness_sink, frobenius, hom_generator,
                         initial_seed, split_apply,
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


def test_invariance_fails_for_a_split_off_by_one(monkeypatch):
    # keeping the exponents = 1 mod p, stored at (e - 1)/p, is a
    # p^(-1)-linear map but not the standard splitting: it must be caught
    # in the fused split the check runs
    mul_split = LaurentPoly.mul_split

    def shifted(self, other, q, r, groups=None):
        return mul_split(self, other, q, 1, groups)

    monkeypatch.setattr(LaurentPoly, "mul_split", shifted)
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


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize(
    "name", ["a2", "a3", "markov", "mixed-pair", "cycle3-frozen"])
def test_invariance_images_match_per_vector_split_apply(name, p,
                                                        monkeypatch):
    # the check caches the cleared x'^alpha_k and splits c * x^m in one
    # fused step; every image must be the old path's, term for term
    images = []
    express_rational = frobenius.express_rational

    def recording(image, steps):
        images.append(image)
        return express_rational(image, steps)

    monkeypatch.setattr(frobenius, "express_rational", recording)
    q = corpus.load(name)
    initial = initial_seed(q, GF(p))
    sample = small_box(q.n, p)
    for seed in (initial, initial.mutate(min(q.mutable))):
        for k in sorted(q.mutable):
            images.clear()
            report = splitting_invariance_check(seed, k, p, sample)
            assert report.ok, (name, p, k, report.failures[:1])
            assert len(images) == len(sample)
            for alpha, got, want in zip(
                    sample, images, per_vector_images(seed, k, p, sample)):
                assert (got.num, got.den) == (want.num, want.den), alpha


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
    assert elapsed < 20.0, f"{elapsed:.1f}s"


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
