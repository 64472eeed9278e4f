"""Terminating generalized hypergeometric series and binomial identities.

A series with a nonpositive-integer upper parameter truncates at the
first vanishing rising factorial, so every evaluation here is a finite
sum of exact rationals.  `pfq` folds the terms in integers over one
common denominator and reduces once at the end.  Binomial combinations
work the same way: the values f(1), f(2), ... are kept as integer
numerators over their lcm (grown, and the kept numerators rescaled, when
a new denominator does not divide it), a row at n is one integer sum
with C(n,k) built along it, and each row is reduced once.  The identity
helpers return both sides instead of a boolean so that a failing
comparison is diagnosable.

An identity at n combines the series for k = 1..n, so the identities
at n = 1..n_max share their series.  The `*_prefixes` generators give
them all: each series is evaluated once and kept (at most n_max
values), and the left-hand sides are running prefix sums.  The value at
one n is the generator's n-th element.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

from .exact import as_rational, pochhammer


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
    uppers = [(a.numerator, a.denominator) for a in ups]
    lowers = [(b.numerator, b.denominator) for b in lows]
    num_scale = x.numerator * math.prod(w for _, w in lowers)
    den_scale = x.denominator * math.prod(q for _, q in uppers)
    term = total = den = 1
    for i in range(k_max):
        step_num = num_scale
        for p, q in uppers:
            step_num *= p + i * q
        step_den = den_scale * (i + 1)
        for u, w in lowers:
            step_den *= u + i * w
        term *= step_num
        den *= step_den
        total = total * step_den + term
    return Fraction(total, den)


def _append_over_lcm(nums: list[int], den: int, value) -> int:
    """Append value to the numerators kept over den and return the new
    common denominator, the lcm of den and value's denominator; the kept
    numerators are rescaled when it grows."""
    value = as_rational(value)
    scale = value.denominator // math.gcd(den, value.denominator)
    if scale != 1:
        den *= scale
        nums[:] = [a * scale for a in nums]
    nums.append(value.numerator * (den // value.denominator))
    return den


def _binomial_row(nums: list[int], den: int) -> Fraction:
    """sum_{k=1}^{n} (-1)^(k-1) C(n,k) nums[k-1] / den, n = len(nums)."""
    n = len(nums)
    total, c = 0, 1
    for k, a in enumerate(nums, start=1):
        c = c * (n - k + 1) // k
        total += c * a if k & 1 else -c * a
    return Fraction(total, den)


def alternating_binomial_sum(n: int, f: Callable[[int], Fraction]) -> Fraction:
    """sum_{k=1}^{n} (-1)^(k-1) * C(n,k) * f(k)."""
    nums, den = [], 1
    for k in range(1, n + 1):
        den = _append_over_lcm(nums, den, f(k))
    return _binomial_row(nums, den)


def alternating_binomial_sums(values: Iterable) -> Iterator[Fraction]:
    """alternating_binomial_sum(n, f) for n = 1, 2, ... with f(k) the k-th
    of values, lazily, each value taken once and kept for the larger n."""
    nums, den = [], 1
    for value in values:
        den = _append_over_lcm(nums, den, value)
        yield _binomial_row(nums, den)


def _power_sum_parts(s: int, x, sign: int):
    """The k-th left-hand term (k >= 0) and the k-th series (k >= 1) of
    the power-sum identity."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x = as_rational(x)
    y = sign * x * x
    return (lambda k: y ** k / (2 * k + 1) ** s,
            lambda k: pfq((HALF,) * s + (1 - k,), (THREE_HALVES,) * s, y))


def odd_power_sum_identity_prefixes(n_max: int, s: int, x,
                                    sign: int = 1) -> Iterator[tuple[Fraction, Fraction]]:
    """Both sides, for n = 1..n_max, of: sum (sign x^2)^k/(2k+1)^s over
    k < n equals the binomial combination of terminating series with
    halves parameters at sign x^2 (the alternating variant when sign = -1)."""
    term, series = _power_sum_parts(s, x, sign)
    return zip(accumulate(map(term, range(n_max))),
               alternating_binomial_sums(map(series, range(1, n_max + 1))))


def _harmonic_series(s: int, sign: int, parity: str) -> Callable[[int], Fraction]:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if parity not in _HYPER_BASE:
        raise ValueError(f"parity must be odd or standard, got {parity!r}")
    a = _HYPER_BASE[parity]
    return lambda k: pfq((a,) * s + (1 - k,), (a + 1,) * s, sign)


def harmonic_via_hyper_prefixes(n_max: int, s: int, sign: int = 1, *,
                                parity: str) -> Iterator[Fraction]:
    """Depth-one sums of the given parity (alternating when sign = -1) for
    n = 1..n_max, as binomial combinations of terminating series at +-1.

    With a = 1/2 for odd and a = 1 for standard parity, each ratio
    (a)_i / (a+1)_i = a / (a+i) is the reciprocal of the i-th denominator.
    """
    return alternating_binomial_sums(map(_harmonic_series(s, sign, parity), range(1, n_max + 1)))


def odd_harmonic_closed_form(n: int) -> Fraction:
    """sum (-2)^(k-1) C(n,k) (k-1)!/(2k-1)!!, the double-factorial form
    of the odd harmonic number."""
    if n < 1:
        raise ValueError("need n >= 1")
    # Over the common denominator (2n-1)!!, term k has the factor
    # (2n-1)!!/(2k-1)!! = (2k+1)(2k+3)...(2n-1), built from k = n down.
    total, tail = 0, 1
    for k in range(n, 0, -1):
        total += (-2) ** (k - 1) * math.comb(n, k) * math.factorial(k - 1) * tail
        tail *= 2 * k - 1
    return Fraction(total, tail)


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


def consecutive_product_sums(m: int, n_max: int) -> Iterator[Fraction]:
    """sum over k < n of 1 / ((2k+1)(2k+2)...(2k+m)) for n = 1..n_max, as
    one running sum; at m = 1, the odd harmonic numbers."""
    if m < 1:
        raise ValueError("need m >= 1")
    return accumulate(_block_term(m, k) for k in range(n_max))


def consecutive_product_sum_prefixes(m: int, n_max: int) -> Iterator[tuple[Fraction, Fraction]]:
    """(via, direct) block sums for n = 1..n_max: binomial combinations of
    2F1(1, 1-k; m+k; -1) values (beta-function reduction of the iterated
    integral), and `consecutive_product_sums`."""
    direct = consecutive_product_sums(m, n_max)
    return zip(alternating_binomial_sums(map(_block_series(m), range(1, n_max + 1))), direct)


def euler_binomial_harmonic(n: int) -> Fraction:
    """sum (-1)^(k-1) C(n,k) / k, which equals the harmonic number."""
    return alternating_binomial_sum(n, lambda k: Fraction(1, k))


def binomial_inversion(values: Sequence) -> list[Fraction]:
    """g(m) = sum_{k=1}^{m} (-1)^(m-k) C(m,k) f(k) for a 1-indexed list f.

    Inverse of `binomial_transform`.  g(m) is (-1)^(m-1) times the
    alternating binomial sum of f at m.
    """
    f = [as_rational(v) for v in values]
    if not f:
        raise ValueError("need a nonempty sequence")
    return [row if m % 2 else -row for m, row in enumerate(alternating_binomial_sums(f), start=1)]


def binomial_transform(values: Sequence) -> list[Fraction]:
    """f(m) = sum_{k=1}^{m} C(m,k) g(k) for a 1-indexed list g.

    f(m) is the alternating binomial sum at m of k -> (-1)^(k-1) g(k).
    """
    g = [as_rational(v) for v in values]
    if not g:
        raise ValueError("need a nonempty sequence")
    return list(alternating_binomial_sums(v if k % 2 else -v for k, v in enumerate(g, start=1)))
