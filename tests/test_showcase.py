"""The a-fold triangle: relation, grading, splitting certificate,
graded obstruction."""

import pytest

from clusterfrob import (GF, QQ, BadCharacteristicError, Grading, LaurentPoly,
                         RationalExpr, explore, graded_obstruction_check,
                         markov_M, markov_freg_certificate, markov_quiver,
                         markov_seed)
from clusterfrob.showcase import default_obstruction_sample


def test_markov_quiver_matrix():
    q = markov_quiver(2)
    assert q.b == ((0, 2, -2), (-2, 0, 2), (2, -2, 0))
    assert q.frozen == frozenset()
    assert not q.is_acyclic()
    with pytest.raises(ValueError):
        markov_quiver(1)


def test_relation_recomputed():
    for a in (2, 3, 4):
        for fld in (QQ, GF(5)):
            m = markov_M(a, fld)
            xyz = LaurentPoly.monomial(fld, 3, (1, 1, 1))
            power_sum = LaurentPoly.from_terms(
                fld, 3,
                [((a, 0, 0), 1), ((0, a, 0), 1), ((0, 0, a), 1)])
            assert (m * RationalExpr(xyz)).equals(
                RationalExpr(power_sum))


def test_markov_M_is_laurent():
    m = markov_M(3, QQ).as_laurent()
    assert m.terms == {(2, -1, -1): 1, (-1, 2, -1): 1, (-1, -1, 2): 1}


def test_grading_weights_and_degrees():
    g = Grading(2)
    assert g.weights == (1, 1, 1, -1)
    assert g.degree((1, 1, 1, 0)) == 3
    assert g.degree((0, 0, 0, 1)) == -1
    assert Grading(5).weights == (1, 1, 1, 2)
    with pytest.raises(ValueError):
        g.degree((1, 0, 0))


def test_relation_homogeneous_for_every_a():
    for a in range(2, 7):
        g = Grading(a)
        poly = g.relation_poly(QQ)
        assert g.is_homogeneous(poly)
        # all terms sit in degree a
        assert {g.degree(e) for e in poly.terms} == {a}


def test_cluster_variables_homogeneous_degree_one():
    result = explore(markov_seed(2, QQ), 3)
    assert result.variable_count > 3
    for v in result.variables:
        assert v.coordinate_sums() == {1}


def test_certificate_p5_p7_value_exactly_one():
    for p in (5, 7, 11):
        cert = markov_freg_certificate(p)
        assert cert.passed
        assert cert.value.is_one()
        assert cert.p == p and cert.e == 1


def test_certificate_higher_e():
    cert = markov_freg_certificate(5, e=2)
    assert cert.passed and cert.value.is_one()


def test_certificate_twist_is_m_cubed_over_six():
    cert = markov_freg_certificate(5)
    m = markov_M(2, GF(5))
    # 1/6 = 1 in GF(5)
    assert cert.map.twist.equals(m ** 3)


def test_certificate_refuses_characteristic_2_and_3():
    for p in (2, 3):
        with pytest.raises(BadCharacteristicError):
            markov_freg_certificate(p)


def test_certificate_rejects_composite():
    with pytest.raises(ValueError):
        markov_freg_certificate(9)


def test_obstruction_a3_and_a4():
    # a homogeneous positive-degree element splits to zero (p does not
    # divide its degree) or to something of degree d/p > 0, so no
    # failures can occur; the report confirms on the default sample
    for a, p in ((3, 5), (4, 3), (3, 2)):
        report = graded_obstruction_check(a, p)
        assert report.ok
        assert report.relation_homogeneous
        assert report.deg_m == a - 3
        assert report.checked == len(default_obstruction_sample(a))
        assert report.checked > 50


def test_obstruction_rejects_small_a():
    with pytest.raises(ValueError):
        graded_obstruction_check(2, 5)


def test_obstruction_rejects_nonpositive_sample():
    with pytest.raises(ValueError):
        graded_obstruction_check(3, 5, sample=[(0, 0, 0, 1)])


def test_default_sample_is_positive_degree():
    for a in (3, 4):
        g = Grading(a)
        sample = default_obstruction_sample(a)
        assert sample
        assert all(g.degree(e) > 0 for e in sample)


def test_seed_field_parameter():
    s = markov_seed(3, GF(7))
    assert s.field == GF(7)
    assert s.quiver == markov_quiver(3)
