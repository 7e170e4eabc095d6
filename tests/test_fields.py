"""Coefficient fields: coercion, inversion, equality."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clusterfrob import GF, QQ, FieldMismatchError, is_prime
from clusterfrob.fields import require_same_field


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]


def test_is_prime_carmichael():
    # 561 = 3*11*17 fools the plain Fermat test.
    assert not is_prime(561)
    assert not is_prime(1)
    assert not is_prime(-7)
    assert is_prime(2**31 - 1)


def test_is_prime_rejects_a_pseudoprime_to_the_bases_through_37():
    # a strong pseudoprime to all twelve prime bases 2..37; base 41
    # exposes it
    n = 399165290221 * 798330580441
    assert n == 318665857834031151167461
    assert not is_prime(n)
    with pytest.raises(ValueError, match="is not prime"):
        GF(n)
    assert is_prime(2**61 - 1)
    assert GF(2**61 - 1).invert(2) * 2 % (2**61 - 1) == 1


def test_is_prime_refuses_past_its_exact_range():
    # the least strong pseudoprime to every prime base through 41: from it
    # on, Miller-Rabin on those bases no longer decides primality
    bound = 1287836182261 * 2575672364521
    assert bound == 3_317_044_064_679_887_385_961_981
    for n in (bound, bound + 2, 2**89 - 1):
        with pytest.raises(ValueError, match=str(bound)):
            is_prime(n)
        with pytest.raises(ValueError, match=str(bound)):
            GF(n)


def test_qq_coercion():
    # canonical form: an int while integral, else a reduced Fraction
    assert QQ.coerce(3) == 3 and type(QQ.coerce(3)) is int
    assert QQ.coerce("6/3") == 2 and type(QQ.coerce("6/3")) is int
    assert type(QQ.coerce(Fraction(4, 2))) is int
    assert type(QQ.coerce(True)) is int
    assert QQ.coerce("3/4") == Fraction(3, 4)
    assert QQ.coerce(Fraction(-1, 2)) == Fraction(-1, 2)
    assert type(QQ.coerce("-2/4")) is Fraction
    assert (QQ.zero, QQ.one) == (0, 1)
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert QQ.char == 0
    assert QQ.name == "QQ"
    for value in (1.5, 2.0):  # never a float, integral or not
        with pytest.raises(TypeError):
            QQ.coerce(value)


def test_qq_invert():
    assert QQ.invert(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.invert(2) == Fraction(1, 2) and type(QQ.invert(2)) is Fraction
    for c, inverse in ((1, 1), (-1, -1), (Fraction(1, 3), 3),
                       (Fraction(-1, 5), -5)):
        assert QQ.invert(c) == inverse and type(QQ.invert(c)) is int
    with pytest.raises(ZeroDivisionError):
        QQ.invert(0)


def test_gf_canonical_residues():
    f = GF(7)
    assert f.coerce(10) == 3
    assert f.coerce(-1) == 6
    assert f.coerce(0) == 0
    assert f.char == 7
    assert f.name == "GF(7)"


def test_gf_fraction_coercion():
    f = GF(7)
    # 3/4 = 3 * 4^{-1} = 3 * 2 = 6 mod 7
    assert f.coerce(Fraction(3, 4)) == 6
    with pytest.raises(ZeroDivisionError):
        f.coerce(Fraction(1, 7))


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_gf_interned():
    assert GF(5) is GF(5)
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert GF(5) != QQ


def test_require_same_field():
    require_same_field(QQ, QQ)
    with pytest.raises(FieldMismatchError):
        require_same_field(QQ, GF(5))


@given(st.integers(min_value=-200, max_value=200))
def test_gf_invert_roundtrip(n):
    f = GF(11)
    c = f.coerce(n)
    if c == 0:
        with pytest.raises(ZeroDivisionError):
            f.invert(c)
    else:
        assert c * f.invert(c) % 11 == 1
