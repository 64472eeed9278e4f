"""Contract tests for rationals, valuations, and combinatorial scalars."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oddharmonic.exact import (
    PLUS_INFINITY,
    as_rational,
    int_valuation,
    padic_valuation,
    pochhammer,
)

F = Fraction

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
small_primes = st.sampled_from([2, 3, 5, 7, 11, 13])


def test_valuation_examples():
    assert padic_valuation(F(4, 3), 3) == -1
    assert padic_valuation(F(50), 5) == 2
    assert padic_valuation(F(13, 9), 3) == -2
    assert padic_valuation(F(0), 7) == PLUS_INFINITY
    # the unchecked integer entry point behind it
    assert int_valuation(-72, 2) == 3 and int_valuation(72, 3) == 2
    assert int_valuation(13, 3) == 0
    assert int_valuation(0, 7) == PLUS_INFINITY


def test_valuation_rejects_nonprime():
    with pytest.raises(ValueError):
        padic_valuation(F(1, 2), 6)
    with pytest.raises(ValueError):
        padic_valuation(F(1, 2), 1)


def test_floats_are_refused():
    # 0.1 is 3602879701896397/2**55 exactly, whose v_5 is 0, not -1
    with pytest.raises(ValueError, match="0.1"):
        padic_valuation(0.1, 5)
    with pytest.raises(ValueError, match="0.5"):
        pochhammer(0.5, 3)
    with pytest.raises(ValueError):
        as_rational(2.0)
    assert padic_valuation("1/10", 5) == -1
    assert as_rational(3) == 3 and as_rational(F(2, 7)) == F(2, 7)
    assert pochhammer("1/2", 2) == F(3, 4)
    # a float prime used to be truncated by is_prime and then used as is,
    # so v_7.5(1/49) came out 0 instead of v_7 = -2
    with pytest.raises(TypeError):
        padic_valuation(F(1, 49), 7.5)
    with pytest.raises(TypeError):
        padic_valuation(F(1, 49), F(7))
    assert padic_valuation(F(1, 49), 7) == -2


def test_plus_infinity_ordering():
    assert PLUS_INFINITY > 10**100
    assert not PLUS_INFINITY > PLUS_INFINITY
    assert PLUS_INFINITY >= PLUS_INFINITY
    assert not PLUS_INFINITY < -5
    assert PLUS_INFINITY + 3 == PLUS_INFINITY
    assert 3 + PLUS_INFINITY == PLUS_INFINITY
    assert not isinstance(PLUS_INFINITY, int)  # v_p(0) never passes for a finite valuation


@given(rationals, rationals, small_primes)
def test_valuation_is_multiplicative(a, b, p):
    assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)


@given(rationals, rationals, small_primes)
def test_valuation_ultrametric(a, b, p):
    va, vb = padic_valuation(a, p), padic_valuation(b, p)
    vsum = padic_valuation(a + b, p)
    assert vsum >= min(va, vb)
    if va != vb:
        assert vsum == min(va, vb)


def test_pochhammer_examples():
    assert pochhammer(F(7, 3), 0) == 1
    assert pochhammer(F(1, 2), 2) == F(3, 4)
    assert pochhammer(F(-2), 4) == 0


def _pochhammer_reference(a, i):
    result = F(1)
    for j in range(i):
        result *= a + j
    return result


@pytest.mark.parametrize("a", [
    F(0), F(1), F(-3), F(-1),            # integer factors that reach zero
    F(-7, 2), F(-5, 3), F(-11, 4),       # negative fractions whose factors change sign
    F(2, 9), F(13, 6), F(-1, 1000),
])
def test_pochhammer_matches_reference(a):
    for i in range(0, 13):
        assert pochhammer(a, i) == _pochhammer_reference(a, i), (a, i)
    with pytest.raises(ValueError):
        pochhammer(a, -1)


@given(rationals, st.integers(0, 8))
def test_pochhammer_recurrence(a, i):
    assert pochhammer(a, i + 1) == pochhammer(a, i) * (a + i)


def test_canonical_string_round_trip():
    for q in (F(23, 15), F(-7, 2), F(4), F(0), F(-3)):
        text = str(q)
        assert Fraction(text) == q
    assert str(F(4, 3)) == "4/3"
    assert str(F(4)) == "4"
    assert str(F(0)) == "0"
