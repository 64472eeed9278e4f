"""Terminating generalized hypergeometric series and binomial identities.

A series with a nonpositive-integer upper parameter truncates at the
first vanishing rising factorial, so every evaluation here is a finite
sum of exact rationals.  `pfq` folds the terms in integers over one
common denominator and reduces once at the end.  The identity helpers
return both sides instead of a boolean so that a failing comparison is
diagnosable.

An identity at n combines the series for k = 1..n, so checking it for
every n up to n_max repeats the smaller series.  The `*_prefixes`
generators give the values for n = 1..n_max instead: each series is
evaluated once and kept (at most n_max values), and the left-hand sides
are running prefix sums.  The per-n functions build on the same series
and term helpers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterator, Sequence

from .exact import as_rational, double_factorial, pochhammer


class NonTerminatingSeries(ValueError):
    """No upper parameter is a nonpositive integer."""


class DegenerateLowerParameter(ValueError):
    """A lower parameter vanishes within the truncated range."""


HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)
_HYPER_BASE = {"odd": HALF, "standard": Fraction(1)}


def pfq(upper: Sequence, lower: Sequence, x) -> Fraction:
    """Terminating series sum_i prod(a_j)_i / prod(b_j)_i * x^i / i!.

    The truncation index is the smallest -a over nonpositive-integer
    upper parameters a.  Lower parameters that hit zero inside that range
    are rejected.
    """
    ups = [as_rational(a) for a in upper]
    lows = [as_rational(b) for b in lower]
    x = as_rational(x)
    stops = [-int(a) for a in ups if a.denominator == 1 and a <= 0]
    if not stops:
        raise NonTerminatingSeries(f"no nonpositive-integer upper parameter in {ups}")
    k_max = min(stops)
    for b in lows:
        if b.denominator == 1 and b <= 0 and -int(b) < k_max:
            raise DegenerateLowerParameter(f"lower parameter {b} vanishes in range")
    # With a = p/q and b = u/w, the term ratio prod(a+i)/prod(b+i) * x/(i+1)
    # is prod(p+iq) prod(w) x_num / (prod(q) prod(u+iw) x_den (i+1)).  The
    # term and the sum share one integer denominator, reduced at the end.
    num_scale = x.numerator * math.prod(b.denominator for b in lows)
    den_scale = x.denominator * math.prod(a.denominator for a in ups)
    term = total = den = 1
    for i in range(k_max):
        step_num = num_scale
        for a in ups:
            step_num *= a.numerator + i * a.denominator
        step_den = den_scale * (i + 1)
        for b in lows:
            step_den *= b.numerator + i * b.denominator
        term *= step_num
        den *= step_den
        total = total * step_den + term
    return Fraction(total, den)


def alternating_binomial_sum(n: int, f: Callable[[int], Fraction]) -> Fraction:
    """sum_{k=1}^{n} (-1)^(k-1) * C(n,k) * f(k)."""
    total = Fraction(0)
    sign = 1
    for k in range(1, n + 1):
        total += sign * math.comb(n, k) * f(k)
        sign = -sign
    return total


def _binomial_prefixes(n_max: int, f: Callable[[int], Fraction]) -> Iterator[Fraction]:
    """alternating_binomial_sum(n, f) for n = 1..n_max, with each f(k)
    evaluated once and kept for the larger n."""
    values = []
    for n in range(1, n_max + 1):
        values.append(f(n))
        yield alternating_binomial_sum(n, lambda k: values[k - 1])


def _power_sum_parts(s: int, x, sign: int):
    """The k-th left-hand term (k >= 0) and the k-th series (k >= 1) of
    the power-sum identity."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x = as_rational(x)
    y = sign * x * x
    return (lambda k: y ** k / (2 * k + 1) ** s,
            lambda k: pfq((HALF,) * s + (1 - k,), (THREE_HALVES,) * s, y))


def odd_power_sum_identity(n: int, s: int, x, sign: int = 1) -> tuple[Fraction, Fraction]:
    """Both sides of: sum (sign x^2)^k/(2k+1)^s over k < n equals the
    binomial combination of terminating series with halves parameters at
    sign x^2 (the alternating variant when sign = -1)."""
    term, series = _power_sum_parts(s, x, sign)
    return sum(map(term, range(n)), Fraction(0)), alternating_binomial_sum(n, series)


def odd_power_sum_identity_prefixes(n_max: int, s: int, x,
                                    sign: int = 1) -> Iterator[tuple[Fraction, Fraction]]:
    """odd_power_sum_identity(n, s, x, sign) for n = 1..n_max, lazily,
    with each series evaluated once."""
    term, series = _power_sum_parts(s, x, sign)
    return zip(accumulate(map(term, range(n_max))), _binomial_prefixes(n_max, series))


def _harmonic_series(s: int, sign: int, parity: str) -> Callable[[int], Fraction]:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if parity not in _HYPER_BASE:
        raise ValueError(f"parity must be odd or standard, got {parity!r}")
    a = _HYPER_BASE[parity]
    return lambda k: pfq((a,) * s + (1 - k,), (a + 1,) * s, sign)


def harmonic_via_hyper(n: int, s: int, sign: int = 1, *, parity: str) -> Fraction:
    """Depth-one sum of the given parity (alternating when sign = -1) as a
    binomial combination of terminating series evaluated at +-1.

    With a = 1/2 for odd and a = 1 for standard parity, each ratio
    (a)_i / (a+1)_i = a / (a+i) is the reciprocal of the i-th denominator.
    """
    return alternating_binomial_sum(n, _harmonic_series(s, sign, parity))


def harmonic_via_hyper_prefixes(n_max: int, s: int, sign: int = 1, *,
                                parity: str) -> Iterator[Fraction]:
    """harmonic_via_hyper(n, s, sign, parity=parity) for n = 1..n_max,
    lazily, with each series evaluated once."""
    return _binomial_prefixes(n_max, _harmonic_series(s, sign, parity))


def odd_harmonic_closed_form(n: int) -> Fraction:
    """sum (-2)^(k-1) C(n,k) (k-1)!/(2k-1)!!, the double-factorial form
    of the odd harmonic number."""
    if n < 1:
        raise ValueError("need n >= 1")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction((-2) ** (k - 1) * math.comb(n, k) * math.factorial(k - 1),
                          double_factorial(2 * k - 1))
    return total


def chu_vandermonde(n: int, b, c) -> tuple[Fraction, Fraction]:
    """Both sides of 2F1(-n, b; c; 1) = (c-b)_n / (c)_n."""
    if n < 0:
        raise ValueError("need n >= 0")
    b, c = as_rational(b), as_rational(c)
    lhs = pfq((-n, b), (c,), 1)
    rhs = pochhammer(c - b, n) / pochhammer(c, n)
    return lhs, rhs


def _block_term(m: int, k: int) -> Fraction:
    return Fraction(1, math.prod(range(2 * k + 1, 2 * k + m + 1)))


def _block_series(m: int) -> Callable[[int], Fraction]:
    fact = math.factorial(m - 1)
    return lambda k: pfq((1, 1 - k), (m + k,), -1) / (fact * (m + k - 1))


def consecutive_product_sum(m: int, n: int) -> Fraction:
    """sum over k < n of 1 / ((2k+1)(2k+2)...(2k+m)).

    At m = 1 this is the odd harmonic number.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    return sum((_block_term(m, k) for k in range(n)), Fraction(0))


def consecutive_product_sum_via_hyper(m: int, n: int) -> Fraction:
    """The same block sum via 2F1(1, 1-k; m+k; -1) values (beta-function
    reduction of the iterated integral)."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    return alternating_binomial_sum(n, _block_series(m))


def consecutive_product_sum_prefixes(m: int, n_max: int) -> Iterator[tuple[Fraction, Fraction]]:
    """(consecutive_product_sum_via_hyper(m, n), consecutive_product_sum(m, n))
    for n = 1..n_max, lazily, with each series evaluated once."""
    if m < 1:
        raise ValueError("need m >= 1")
    return zip(_binomial_prefixes(n_max, _block_series(m)),
               accumulate(_block_term(m, k) for k in range(n_max)))


def euler_binomial_harmonic(n: int) -> Fraction:
    """sum (-1)^(k-1) C(n,k) / k, which equals the harmonic number."""
    return alternating_binomial_sum(n, lambda k: Fraction(1, k))


def binomial_inversion(values: Sequence) -> list[Fraction]:
    """g(m) = sum_{k=1}^{m} (-1)^(m-k) C(m,k) f(k) for a 1-indexed list f.

    Inverse of `binomial_transform`.
    """
    f = [as_rational(v) for v in values]
    if not f:
        raise ValueError("need a nonempty sequence")
    out = []
    for m in range(1, len(f) + 1):
        total = Fraction(0)
        for k in range(1, m + 1):
            term = math.comb(m, k) * f[k - 1]
            total += term if (m - k) % 2 == 0 else -term
        out.append(total)
    return out


def binomial_transform(values: Sequence) -> list[Fraction]:
    """f(m) = sum_{k=1}^{m} C(m,k) g(k) for a 1-indexed list g."""
    g = [as_rational(v) for v in values]
    if not g:
        raise ValueError("need a nonempty sequence")
    return [sum((math.comb(m, k) * g[k - 1] for k in range(1, m + 1)), Fraction(0))
            for m in range(1, len(g) + 1)]
