"""Terminating series evaluation and the identity suites at unit scale."""

import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from oddharmonic.hyper import (
    DegenerateLowerParameter,
    NonTerminatingSeries,
    alternating_binomial_sum,
    alternating_binomial_sums,
    binomial_inversion,
    binomial_transform,
    chu_vandermonde_prefixes,
    consecutive_product_sum_prefixes,
    consecutive_product_sums,
    euler_binomial_harmonic,
    harmonic_via_hyper_prefixes,
    odd_harmonic_closed_form,
    odd_power_sum_identity_prefixes,
    pfq,
    pfq_rows,
)
from oddharmonic.sums import STRICT_ODD, STRICT_STANDARD, harmonic_sum
from reference import alternating_reference, block_sum, pochhammer

F = Fraction
HALF, THREEHALF = F(1, 2), F(3, 2)


# -- series evaluation ---------------------------------------------------------

def test_pfq_examples():
    assert pfq((HALF, 0), (THREEHALF,), 1) == 1
    assert pfq((HALF, -1), (THREEHALF,), 1) == F(2, 3)
    assert pfq((1, -1), (4,), -1) == F(5, 4)


def test_pfq_truncates_at_first_vanishing_parameter():
    # upper -1 truncates before upper -3 matters
    assert pfq((-1, -3), (5,), 1) == 1 + F((-1) * (-3), 5)


def test_pfq_rejects_bad_specs():
    with pytest.raises(NonTerminatingSeries):
        pfq((HALF, HALF), (THREEHALF,), 1)
    with pytest.raises(DegenerateLowerParameter):
        pfq((HALF, -3), (-1,), 1)
    # a nonpositive lower parameter beyond the truncation range is fine
    assert pfq((HALF, -2), (-7,), 1) is not None


def test_pfq_refuses_floats():
    with pytest.raises(ValueError):
        pfq((0.5, -1), (THREEHALF,), 1)
    with pytest.raises(ValueError):
        pfq((HALF, -1), (1.5,), 1)
    with pytest.raises(ValueError):
        pfq((HALF, -1), (THREEHALF,), 1.0)
    assert pfq(("1/2", -1), ("3/2",), "1") == F(2, 3)


def _pfq_reference(upper, lower, x):
    """The series term by term from rising factorials, up to index -a
    for the largest nonpositive-integer upper parameter a; the upper
    rising factorials must vanish at the next index."""
    last = min(-int(a) for a in upper if F(a).denominator == 1 and a <= 0)
    total = F(0)
    for i in range(last + 1):
        num = math.prod(pochhammer(a, i) for a in upper)
        den = math.prod(pochhammer(b, i) for b in lower)
        total += num / den * F(x) ** i / math.factorial(i)
    assert math.prod(pochhammer(a, last + 1) for a in upper) == 0
    return total


PFQ_CASES = [
    # denominators > 1 on both sides, and differing between them
    pytest.param((HALF, F(2, 3), -4), (F(5, 2), F(7, 3)), F(3, 7), id="fractions"),
    pytest.param((F(3, 4), -5, F(7, 6)), (F(5, 8), F(2, 9)), F(11, 5), id="fractions-mixed"),
    pytest.param((HALF, HALF, -5), (THREEHALF, THREEHALF), F(-4, 9), id="negative-x"),
    pytest.param((1, -6), (9,), -1, id="x-minus-one"),
    pytest.param((-3, F(2, 5)), (F(7, 4),), 0, id="x-zero"),
    pytest.param((0, HALF), (THREEHALF,), 5, id="upper-zero"),
    # nonpositive-integer lower parameters beyond the truncation range,
    # so the step factors b + i are negative
    pytest.param((-3, F(5, 3)), (-7,), 2, id="lower-negative"),
    pytest.param((-4, -6), (-9, F(1, 3)), F(-3, 2), id="lower-negative-two"),
    pytest.param((-2, -5), (THREEHALF,), 1, id="first-stop-truncates"),
]


@pytest.mark.parametrize("upper, lower, x", PFQ_CASES)
def test_pfq_matches_term_by_term_definition(upper, lower, x):
    expected = _pfq_reference(upper, lower, x)
    assert pfq(upper, lower, x) == expected
    if 0 in upper or x == 0:
        assert expected == 1


@pytest.mark.parametrize("upper, lower, x", PFQ_CASES)
def test_pfq_rows_match_term_by_term_definition(upper, lower, x):
    # the case without its truncating parameter; row k puts 1-k back
    fixed = list(upper)
    fixed.remove(max(a for a in upper if F(a).denominator == 1 and a <= 0))
    rows = pfq_rows(fixed, lower, x)
    for k in range(1, 11):
        full = (*fixed, 1 - k)
        try:
            expected = _pfq_reference(full, lower, x)
        except ZeroDivisionError:  # a lower parameter vanishes in range
            with pytest.raises(DegenerateLowerParameter):
                pfq(full, lower, x)
            with pytest.raises(DegenerateLowerParameter):
                next(rows)
            break
        assert next(rows) == expected == pfq(full, lower, x), k


def test_pfq_rows_edge_cases():
    # a fixed nonpositive-integer upper parameter truncates the rows past k = 3
    rows = list(islice(pfq_rows((F(2, 3), -2), (THREEHALF,), F(-5, 2)), 8))
    assert rows == [_pfq_reference((F(2, 3), -2, 1 - k), (THREEHALF,), F(-5, 2))
                    for k in range(1, 9)]
    # a lower parameter -3 vanishes at index 3, inside the range from k = 5 on
    rows = pfq_rows((HALF,), (-3,), 1)
    for k in range(1, 5):
        assert next(rows) == pfq((HALF, 1 - k), (-3,), 1) == _pfq_reference(
            (HALF, 1 - k), (-3,), 1)
    with pytest.raises(DegenerateLowerParameter):
        pfq((HALF, -4), (-3,), 1)
    with pytest.raises(DegenerateLowerParameter):
        next(rows)
    # the parameters are checked at the call
    with pytest.raises(ValueError):
        pfq_rows((0.5,), (THREEHALF,), 1)


# -- power-sum identities --------------------------------------------------------
# A `*_prefixes` generator yields the values at n = 1..n_max; `_at` takes
# the one at n_max.

def _at(rows):
    *_, last = rows
    return last


def test_power_sum_identity_examples():
    lhs, rhs = _at(odd_power_sum_identity_prefixes(1, 3, F(1, 2)))
    assert lhs == rhs == 1
    lhs, rhs = _at(odd_power_sum_identity_prefixes(2, 1, 1))
    assert lhs == rhs == F(4, 3)
    lhs, rhs = _at(odd_power_sum_identity_prefixes(3, 2, F(1, 3)))
    assert lhs == rhs


def test_alternating_power_sum_identity_examples():
    lhs, rhs = _at(odd_power_sum_identity_prefixes(1, 1, 1, -1))
    assert lhs == rhs == 1
    lhs, rhs = _at(odd_power_sum_identity_prefixes(2, 1, 1, -1))
    assert lhs == rhs == F(2, 3)
    lhs, rhs = _at(odd_power_sum_identity_prefixes(4, 2, F(1, 2), -1))
    assert lhs == rhs
    with pytest.raises(ValueError):
        odd_power_sum_identity_prefixes(2, 1, 1, 0)


def test_power_sum_identities_small_grid():
    xs = (F(1), F(1, 2), F(1, 3), F(2, 5))
    for s in range(1, 4):
        for x in xs:
            for sign in (1, -1):
                rows = odd_power_sum_identity_prefixes(8, s, x, sign)
                for n, (lhs, rhs) in enumerate(rows, start=1):
                    assert lhs == rhs, (n, s, x, sign)


# -- depth-one evaluations ---------------------------------------------------------

def test_depth1_via_hyper_examples():
    assert _at(harmonic_via_hyper_prefixes(1, 4, 1, parity="odd")) == 1
    assert _at(harmonic_via_hyper_prefixes(2, 1, 1, parity="odd")) == F(4, 3)
    assert _at(harmonic_via_hyper_prefixes(2, 1, -1, parity="odd")) == F(2, 3)
    with pytest.raises(ValueError):
        harmonic_via_hyper_prefixes(2, 1, 0, parity="odd")
    with pytest.raises(ValueError):
        harmonic_via_hyper_prefixes(2, 1, 1, parity="even")
    with pytest.raises(TypeError):
        harmonic_via_hyper_prefixes(2, 1, 1)  # the parity must be named


def test_depth1_via_hyper_matches_direct():
    for s in range(1, 4):
        for sign in (1, -1):
            values = harmonic_via_hyper_prefixes(12, s, sign, parity="odd")
            for n, value in enumerate(values, start=1):
                assert value == harmonic_sum(STRICT_ODD, n, (sign * s,)), (n, s, sign)


def test_closed_form():
    assert odd_harmonic_closed_form(1) == 1
    assert odd_harmonic_closed_form(2) == F(4, 3)
    assert odd_harmonic_closed_form(3) == F(23, 15)
    for n in range(1, 21):
        assert odd_harmonic_closed_form(n) == harmonic_sum(STRICT_ODD, n, (1,))
    with pytest.raises(ValueError, match="need n >= 1"):
        odd_harmonic_closed_form(0)


def test_standard_depth1_via_hyper():
    assert _at(harmonic_via_hyper_prefixes(1, 2, 1, parity="standard")) == 1
    assert _at(harmonic_via_hyper_prefixes(2, 1, 1, parity="standard")) == F(3, 2)
    assert _at(harmonic_via_hyper_prefixes(2, 1, -1, parity="standard")) == F(1, 2)
    for s in range(1, 4):
        for sign in (1, -1):
            values = harmonic_via_hyper_prefixes(10, s, sign, parity="standard")
            for n, value in enumerate(values, start=1):
                assert value == harmonic_sum(STRICT_STANDARD, n, (sign * s,)), (n, s, sign)


def test_euler_binomial_form():
    for n in range(1, 25):
        assert euler_binomial_harmonic(n) == harmonic_sum(STRICT_STANDARD, n, (1,))


# -- Chu-Vandermonde ---------------------------------------------------------------

def test_chu_vandermonde_examples():
    assert list(chu_vandermonde_prefixes(0, F(5, 7), F(9, 4))) == [(1, 1)]
    assert list(chu_vandermonde_prefixes(1, HALF, THREEHALF)) == [(1, 1), (F(2, 3), F(2, 3))]
    rows = list(chu_vandermonde_prefixes(3, F(2, 5), F(7, 3)))
    assert len(rows) == 4 and all(lhs == rhs for lhs, rhs in rows)
    # c = -2 vanishes at index 2, inside the range from n = 3 on
    rows = chu_vandermonde_prefixes(5, F(2, 5), -2)
    assert [lhs == rhs for lhs, rhs in islice(rows, 3)] == [True] * 3
    with pytest.raises(DegenerateLowerParameter):
        next(rows)


def test_chu_vandermonde_random_pairs():
    rng = random.Random(7)
    for _ in range(60):
        b = F(rng.randint(-9, 9), rng.randint(1, 9))
        while True:
            c = F(rng.randint(-9, 9), rng.randint(1, 9))
            if not (c.denominator == 1 and c <= 0 and -c < 8):
                break
        rows = list(chu_vandermonde_prefixes(7, b, c))
        assert rows == [(_pfq_reference((-n, b), (c,), 1), pochhammer(c - b, n) / pochhammer(c, n))
                        for n in range(8)], (b, c)
        assert all(lhs == rhs for lhs, rhs in rows), (b, c)


# -- block product sums --------------------------------------------------------------

def test_block_sum_examples():
    assert _at(consecutive_product_sums(1, 2)) == F(4, 3)
    assert _at(consecutive_product_sums(2, 1)) == F(1, 2)
    assert _at(consecutive_product_sums(2, 2)) == F(7, 12)
    assert _at(consecutive_product_sum_prefixes(2, 1))[0] == F(1, 2)
    assert _at(consecutive_product_sum_prefixes(2, 2))[0] == F(7, 12)
    assert _at(consecutive_product_sum_prefixes(1, 3))[0] == F(23, 15)


def test_block_sums_agree():
    for m in range(1, 6):
        for n, (via, direct) in enumerate(consecutive_product_sum_prefixes(m, 10), start=1):
            assert via == direct, (m, n)
    for n, direct in enumerate(consecutive_product_sums(1, 10), start=1):
        assert direct == harmonic_sum(STRICT_ODD, n, (1,))


# -- prefix generators ---------------------------------------------------------------

def _power_sum_reference(n, s, x, sign):
    y = sign * x * x
    return (sum((y ** k / (2 * k + 1) ** s for k in range(n)), F(0)),
            alternating_reference(n, lambda k: _pfq_reference(
                (HALF,) * s + (1 - k,), (THREEHALF,) * s, y)))


def _depth1_reference(n, s, sign, parity):
    a = HALF if parity == "odd" else F(1)
    return alternating_reference(n, lambda k: _pfq_reference(
        (a,) * s + (1 - k,), (a + 1,) * s, sign))


def _block_reference(m, n):
    via = alternating_reference(n, lambda k: _pfq_reference(
        (1, 1 - k), (m + k,), -1) / (math.factorial(m - 1) * (m + k - 1)))
    return via, block_sum(m, n)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_prefixes_match_references(s):
    # each generator's n-th value against its identity at n, summed term by term
    for x in (F(0), F(-2, 3), F(5, 4)):
        for sign in (1, -1):
            rows = list(odd_power_sum_identity_prefixes(7, s, x, sign))
            assert rows == [_power_sum_reference(n, s, x, sign) for n in range(1, 8)], (x, sign)
    for sign in (1, -1):
        for parity, den in (("odd", lambda j: 2 * j + 1), ("standard", lambda j: j + 1)):
            values = list(harmonic_via_hyper_prefixes(8, s, sign, parity=parity))
            assert values == [_depth1_reference(n, s, sign, parity) for n in range(1, 9)]
            assert values == [sum((F(sign ** j, den(j) ** s) for j in range(n)), F(0))
                              for n in range(1, 9)], (sign, parity)
    for m in (s, s + 2):  # block widths 1..5 over the three cases
        refs = [_block_reference(m, n) for n in range(1, 9)]
        assert list(consecutive_product_sums(m, 8)) == [direct for _, direct in refs]
        assert list(consecutive_product_sum_prefixes(m, 8)) == refs


def test_prefixes_reject_bad_arguments():
    # at the call, before any value is asked for
    with pytest.raises(ValueError):
        odd_power_sum_identity_prefixes(3, 1, 1, 0)
    with pytest.raises(ValueError):
        harmonic_via_hyper_prefixes(3, 1, 1, parity="even")
    with pytest.raises(ValueError):
        consecutive_product_sum_prefixes(0, 3)
    with pytest.raises(ValueError):
        consecutive_product_sums(0, 3)
    with pytest.raises(ValueError):
        chu_vandermonde_prefixes(-1, HALF, THREEHALF)


# -- binomial sums over one common denominator -------------------------------------------

def _mixed_sequence(rng, length):
    """Zeros, ints and fractions of both signs; the denominators are
    coprime, share factors or divide each other, so the common
    denominator grows at random positions and sometimes stays put."""
    out = []
    for _ in range(length):
        kind = rng.randrange(5)
        if kind == 0:
            out.append(0)
        elif kind == 1:
            out.append(rng.randint(-40, 40))
        else:
            out.append(F(rng.randint(-99, 99), rng.choice((2, 3, 5, 7, 9, 11, 13, 35, 64, 1001))))
    return out


# the lcm grows at -1/3, 4/7, -2/9, 1/4 and 5/11, each time after kept values
# that must be rescaled
GROWING = [F(1, 2), F(-1, 3), 0, 5, F(4, 7), F(-2, 9), -3, F(1, 4), F(5, 11), F(-1, 1)]


def test_alternating_binomial_sum_matches_reference():
    rng = random.Random(20261018)
    sequences = [GROWING, [0] * 6, [F(1, 6)] * 5, [-7]]
    sequences += [_mixed_sequence(rng, rng.randint(1, 14)) for _ in range(120)]
    for values in sequences:
        f = lambda k: values[k - 1]  # noqa: E731
        for n in range(0, len(values) + 1):
            assert alternating_binomial_sum(n, f) == alternating_reference(n, f), (values, n)
        assert list(alternating_binomial_sums(values)) == [
            alternating_reference(n, f) for n in range(1, len(values) + 1)], values


def test_inversion_and_transform_match_reference():
    rng = random.Random(4091)
    sequences = [GROWING] + [_mixed_sequence(rng, rng.randint(1, 14)) for _ in range(120)]
    for values in sequences:
        f = [F(v) for v in values]
        size = range(1, len(f) + 1)
        assert binomial_inversion(values) == [
            sum(((-1) ** (m - k) * math.comb(m, k) * f[k - 1] for k in range(1, m + 1)), F(0))
            for m in size], values
        assert binomial_transform(values) == [
            sum((math.comb(m, k) * f[k - 1] for k in range(1, m + 1)), F(0))
            for m in size], values


def test_binomial_sums_refuse_floats():
    with pytest.raises(ValueError, match="float"):
        alternating_binomial_sum(3, lambda k: 0.5)
    with pytest.raises(ValueError, match="float"):
        binomial_inversion([1, 0.5])
    with pytest.raises(ValueError, match="float"):
        binomial_transform([F(1, 2), 2.0])
    with pytest.raises(ValueError):
        binomial_transform([])
    with pytest.raises(ValueError, match="nonempty"):
        binomial_inversion([])
    assert alternating_binomial_sum(2, lambda k: "1/3") == F(1, 3)


# -- binomial inversion ----------------------------------------------------------------

def test_inversion_formula_fixed_points():
    # under the 1-indexed formula a constant list inverts to an
    # alternating one, and f(k) = k*c inverts to (c, 0, 0, ...)
    c = F(3)
    assert binomial_inversion([c] * 5) == [c, -c, c, -c, c]
    assert binomial_inversion([c * k for k in range(1, 6)]) == [c, 0, 0, 0, 0]
    assert binomial_transform([c, 0, 0, 0]) == [c * k for k in range(1, 5)]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=40),
                min_size=1, max_size=8))
def test_inversion_round_trip(values):
    assert binomial_transform(binomial_inversion(values)) == list(map(F, values))
    assert binomial_inversion(binomial_transform(values)) == list(map(F, values))


def test_inversion_corollaries():
    # hypergeometric values at +-1 recover alternating binomial sums of
    # the depth-one odd sums, and likewise for the block sums
    for s in (1, 2):
        for sign in (1, -1):
            for n in range(1, 9):
                lhs = pfq((HALF,) * s + (1 - n,), (THREEHALF,) * s, sign)
                rhs = alternating_binomial_sum(
                    n, lambda k: harmonic_sum(STRICT_ODD, k, (sign * s,)))
                assert lhs == rhs, (s, sign, n)
    for m in range(1, 5):
        blocks = list(consecutive_product_sums(m, 8))
        for n in range(1, 9):
            lhs = pfq((1, 1 - n), (m + n,), -1)
            rhs = (math.factorial(m - 1) * (m + n - 1)
                   * alternating_binomial_sum(n, lambda k: blocks[k - 1]))
            assert lhs == rhs, (m, n)


def test_inversion_corollary_matches_example():
    # g(m) = (-1)^(m-1) * pfq(...) when f(k) is the depth-one odd sum
    f = [harmonic_sum(STRICT_ODD, k, (1,)) for k in range(1, 5)]
    g = binomial_inversion(f)
    for m in range(1, 5):
        expected = (-1) ** (m - 1) * pfq((HALF, 1 - m), (THREEHALF,), 1)
        assert g[m - 1] == expected
