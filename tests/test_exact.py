"""Contract tests for rationals, valuations, and combinatorial scalars."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

import oddharmonic
from oddharmonic.exact import as_rational, int_valuation
from reference import pochhammer, valuation

F = Fraction


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
small_primes = st.sampled_from([2, 3, 5, 7, 11, 13])


def test_valuation_examples():
    assert valuation(F(4, 3), 3) == -1
    assert valuation(F(50), 5) == 2
    assert valuation(F(13, 9), 3) == -2
    assert valuation(F(1, 49), 7) == -2
    assert int_valuation(-72, 2) == 3 and int_valuation(72, 3) == 2
    assert int_valuation(13, 3) == 0


def test_floats_are_refused():
    # 0.1 is 3602879701896397/2**55 exactly, whose v_5 is 0, not -1
    with pytest.raises(ValueError, match="0.1"):
        as_rational(0.1)
    with pytest.raises(ValueError, match="0.5"):
        pochhammer(0.5, 3)
    with pytest.raises(ValueError):
        as_rational(2.0)
    assert valuation(as_rational("1/10"), 5) == -1
    assert as_rational(3) == 3 and as_rational(F(2, 7)) == F(2, 7)
    assert pochhammer("1/2", 2) == F(3, 4)


def test_zero_has_no_valuation():
    # no infinity stands in for v_p(0): the call is refused
    with pytest.raises(ValueError):
        int_valuation(0, 7)


MODULES = sorted(Path(oddharmonic.__file__).parent.glob("*.py"))


def test_modules_are_found():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_holds_no_float(path):
    # no float literal, no float(...) call and no inf or nan attribute
    # (math.inf, math.nan)
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), node.lineno
        if isinstance(node, ast.Call):
            assert getattr(node.func, "id", None) != "float", node.lineno
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("inf", "nan"), node.lineno


@given(rationals, rationals, small_primes)
def test_valuation_is_multiplicative(a, b, p):
    assume(a and b)
    assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


@given(rationals, rationals, small_primes)
def test_valuation_ultrametric(a, b, p):
    assume(a and b and a + b)
    va, vb = valuation(a, p), valuation(b, p)
    vsum = valuation(a + b, p)
    assert vsum >= min(va, vb)
    if va != vb:
        assert vsum == min(va, vb)


# `pochhammer` is the tests' own rising factorial, which the term-by-term
# pFq reference in test_hyper is built from; these keep it checked.

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
