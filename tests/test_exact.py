"""Contract tests for rationals, valuations, and combinatorial scalars."""

import ast
import dataclasses
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

import oddharmonic
from oddharmonic.certificates import (
    BoundCheck,
    Certificate,
    decimal_bound_checks,
    verify_odd_noninteger,
)
from oddharmonic.exact import as_rational, int_valuation
from oddharmonic.primes import WindowReport, window_report
from oddharmonic.sums import STAR_ODD, Composition, SumSpec
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
    for value in ("x", None):  # neither a float nor a rational
        with pytest.raises(ValueError, match="not a rational"):
            as_rational(value)
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


# -- frozen value objects -------------------------------------------------------

# Each case: a value, an equal one built another way, an unequal one of the
# same class, and its repr, __match_args__ and protocol-2 pickle as written
# when the five classes were frozen dataclasses.
VALUE_CASES = {
    "Composition": (
        lambda: Composition((1, -2)), lambda: Composition([1, -2]),
        lambda: Composition((-2, 1)),
        "Composition(indices=(1, -2))", ("indices",),
        b'\x80\x02coddharmonic.sums\nComposition\nq\x00)\x81q\x01}q\x02(X\x07\x00\x00'
        b'\x00indicesq\x03K\x01J\xfe\xff\xff\xff\x86q\x04X\x05\x00\x00\x00depthq\x05K'
        b'\x02X\x06\x00\x00\x00weightq\x06K\x03X\x0c\x00\x00\x00all_positiveq\x07\x89X'
        b'\x0b\x00\x00\x00_magnitudesq\x08K\x01K\x02\x86q\tX\x05\x00\x00\x00_textq\nX'
        b'\x04\x00\x00\x001,-2q\x0bub.'),
    "SumSpec": (
        lambda: STAR_ODD, lambda: SumSpec(ordering="star", parity="odd"),
        lambda: SumSpec("star", "standard"),
        "SumSpec(ordering='star', parity='odd')", ("ordering", "parity"),
        b'\x80\x02coddharmonic.sums\nSumSpec\nq\x00)\x81q\x01}q\x02(X\x08\x00\x00\x00ord'
        b'eringq\x03X\x04\x00\x00\x00starq\x04X\x06\x00\x00\x00parityq\x05X\x03\x00\x00'
        b'\x00oddq\x06ub.'),
    "Certificate": (
        lambda: verify_odd_noninteger(12, (1, 1)),
        lambda: Certificate("WindowValuation", 12, Composition((1, 1)), 3, prime=11,
                            valuation=-1),
        lambda: Certificate("WindowValuation", 12, Composition((1, 1)), 3, prime=11,
                            valuation=-1, best_effort=True),
        "Certificate(kind='WindowValuation', n=12, composition=Composition(indices=(1, 1)), "
        "rule_index=3, prime=11, valuation=-1, bound=None, best_effort=False)",
        ("kind", "n", "composition", "rule_index", "prime", "valuation", "bound",
         "best_effort"),
        b'\x80\x02coddharmonic.certificates\nCertificate\nq\x00)\x81q\x01}q\x02(X\x04'
        b'\x00\x00\x00kindq\x03X\x0f\x00\x00\x00WindowValuationq\x04X\x01\x00\x00\x00nq'
        b'\x05K\x0cX\x0b\x00\x00\x00compositionq\x06coddharmonic.sums\nComposition\nq'
        b'\x07)\x81q\x08}q\t(X\x07\x00\x00\x00indicesq\nK\x01K\x01\x86q\x0bX\x05\x00\x00'
        b'\x00depthq\x0cK\x02X\x06\x00\x00\x00weightq\rK\x02X\x0c\x00\x00\x00all_positiv'
        b'eq\x0e\x88X\x0b\x00\x00\x00_magnitudesq\x0fK\x01K\x01\x86q\x10X\x05\x00\x00'
        b'\x00_textq\x11X\x03\x00\x00\x001,1q\x12ubX\n\x00\x00\x00rule_indexq\x13K\x03X'
        b'\x05\x00\x00\x00primeq\x14K\x0bX\t\x00\x00\x00valuationq\x15J\xff\xff\xff\xffX'
        b'\x05\x00\x00\x00boundq\x16NX\x0b\x00\x00\x00best_effortq\x17\x89ub.'),
    "WindowReport": (
        lambda: window_report(2),
        lambda: WindowReport(r=2, max_nonmember=22, threshold=12, verified_run=2000),
        lambda: window_report(2, closed_open=True),
        "WindowReport(r=2, max_nonmember=22, threshold=12, verified_run=2000)",
        ("r", "max_nonmember", "threshold", "verified_run"),
        b'\x80\x02coddharmonic.primes\nWindowReport\nq\x00)\x81q\x01}q\x02(X\x01\x00\x00'
        b'\x00rq\x03K\x02X\r\x00\x00\x00max_nonmemberq\x04K\x16X\t\x00\x00\x00thresholdq'
        b'\x05K\x0cX\x0c\x00\x00\x00verified_runq\x06M\xd0\x07ub.'),
    "BoundCheck": (
        lambda: decimal_bound_checks()[0],
        lambda: BoundCheck(12, (1, 2), F(3206763260191418474, 11758263767342717625),
                           F(27273, 100000), True),
        lambda: decimal_bound_checks()[1],
        "BoundCheck(n=12, composition=(1, 2), value=Fraction(3206763260191418474, "
        "11758263767342717625), threshold=Fraction(27273, 100000), ok=True)",
        ("n", "composition", "value", "threshold", "ok"),
        b'\x80\x02coddharmonic.certificates\nBoundCheck\nq\x00)\x81q\x01}q\x02(X\x01\x00'
        b'\x00\x00nq\x03K\x0cX\x0b\x00\x00\x00compositionq\x04K\x01K\x02\x86q\x05X\x05'
        b'\x00\x00\x00valueq\x06cfractions\nFraction\nq\x07\x8a\x08j\xa8{\xea1\xb6\x80,'
        b'\x8a\t\xb9\x1a\xcf3\x99\xbe-\xa3\x00\x86q\x08Rq\tX\t\x00\x00\x00thresholdq\nh'
        b'\x07M\x89jJ\xa0\x86\x01\x00\x86q\x0bRq\x0cX\x02\x00\x00\x00okq\r\x88ub.'),
}


@pytest.mark.parametrize("name", VALUE_CASES)
def test_record_is_a_frozen_value(name):
    make, make_twin, make_other, text, match_args, old_pickle = VALUE_CASES[name]
    value, twin, other = make(), make_twin(), make_other()
    fields = tuple(getattr(value, field) for field in match_args)
    assert type(value).__name__ == name
    # == and hash by the fields alone, and only within the class
    assert twin == value and hash(twin) == hash(value) == hash(fields)
    assert other != value and value != fields
    # assignment and deletion refused, to a field or any other name
    for field in (match_args[0], "note"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field)
    assert value == twin
    assert repr(value) == text
    assert type(value).__match_args__ == match_args
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and hash(back) == hash(value), protocol
        assert list(vars(back).items()) == list(vars(value).items()), protocol
    # a pickle written by the dataclass version loads with the same state
    back = pickle.loads(old_pickle)
    assert back == value and repr(back) == text
    assert list(vars(back).items()) == list(vars(value).items())
