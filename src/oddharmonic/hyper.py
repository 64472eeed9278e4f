"""Terminating generalized hypergeometric series and binomial identities.

A series with a nonpositive-integer upper parameter truncates at the
first vanishing rising factorial, so every evaluation here is a finite
sum of exact rationals.  The identities use families of series
pfq(fixed + (1-k,), lower, x), k = 1, 2, ..., that differ only in the
truncating parameter 1-k.  One step-factor table per family, the private
`_Series`, parses the fixed parameters once and tabulates, index by
index as k grows, the part of each term ratio that does not depend on
k; a value folds the terms in integers over one common denominator with
only (1-k+i) varying, and reduces once at the end.  `pfq_rows` yields a
family's values for k = 1, 2, ...; `pfq` is one row of such a table.
Binomial combinations work the same way: the values f(1), f(2), ... are
kept as integer numerators over their lcm (grown, and the kept
numerators rescaled, when a new denominator does not divide it), a row
at n is one integer sum with C(n,k) built along it, and each row is
reduced once.  The identity helpers return both sides instead of a
boolean so that a failing comparison is diagnosable.

An identity at n combines the series for k = 1..n, so the identities
at n = 1..n_max share their series.  The `*_prefixes` generators give
them all: each family's table is set up once and each series is
evaluated once and kept (at most n_max values), and the left-hand sides
are running prefix sums or, for `chu_vandermonde_prefixes`, a running
product.  The value at one n is the generator's n-th element.  The block
sums stay on `pfq`, since their lower parameter m+k moves with k.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, count, islice
from typing import Callable, Iterable, Iterator, Sequence

from .exact import as_rational


class NonTerminatingSeries(ValueError):
    """No upper parameter is a nonpositive integer."""


class DegenerateLowerParameter(ValueError):
    """A lower parameter vanishes within the truncated range."""


HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)
_HYPER_BASE = {"odd": HALF, "standard": Fraction(1)}


class _Series:
    """The terminating series pfq(fixed + (1-k,), lower, x) for k = 1, 2, ...

    With a = p/q over the fixed uppers and b = u/w over the lowers, the
    ratio of term i+1 to term i is (1-k+i) times the fixed step factor
    x_num prod(w) prod(p+iq) / (x_den prod(q) (i+1) prod(u+iw)); only
    (1-k+i) depends on k.  The parameters are parsed once, and each
    index's pair (step numerator, step denominator) is tabulated the first
    time a value reaches it.
    """

    __slots__ = ("_uppers", "_lowers", "_num_scale", "_den_scale", "_stop", "_zero", "_steps")

    def __init__(self, fixed: Sequence, lower: Sequence, x):
        uppers = [as_rational(a) for a in fixed]
        lowers = [as_rational(b) for b in lower]
        x = as_rational(x)
        self._uppers = [(a.numerator, a.denominator) for a in uppers]
        self._lowers = [(b.numerator, b.denominator) for b in lowers]
        self._num_scale = x.numerator * math.prod(w for _, w in self._lowers)
        self._den_scale = x.denominator * math.prod(q for _, q in self._uppers)
        # The last index at which the fixed uppers leave a term nonzero, and
        # the first step index at which a lower's factor u+iw vanishes.
        self._stop = min((-p for p, q in self._uppers if q == 1 and p <= 0), default=None)
        self._zero = min((-u for u, w in self._lowers if w == 1 and u <= 0), default=None)
        self._steps: list[tuple[int, int]] = []

    def value(self, k: int) -> Fraction:
        """pfq(fixed + (1-k,), lower, x), k >= 1: the terms up to index
        k-1 or the fixed stop, whichever is smaller, folded over one
        integer denominator and reduced once."""
        last = k - 1 if self._stop is None else min(k - 1, self._stop)
        if self._zero is not None and self._zero < last:
            raise DegenerateLowerParameter(f"lower parameter {-self._zero} vanishes in range")
        steps = self._steps
        for i in range(len(steps), last):
            step_num = self._num_scale
            for p, q in self._uppers:
                step_num *= p + i * q
            step_den = self._den_scale * (i + 1)
            for u, w in self._lowers:
                step_den *= u + i * w
            steps.append((step_num, step_den))
        term = total = den = 1
        for i in range(last):
            step_num, step_den = steps[i]
            term *= step_num * (1 - k + i)
            den *= step_den
            total = total * step_den + term
        return Fraction(total, den)


def pfq(upper: Sequence, lower: Sequence, x) -> Fraction:
    """Terminating series sum_i prod(a_j)_i / prod(b_j)_i * x^i / i!.

    The truncation index is the smallest -a over nonpositive-integer
    upper parameters a.  Lower parameters that hit zero inside that range
    are rejected.  The value is one row of the `_Series` whose varying
    parameter is the upper parameter with that smallest stop.
    """
    ups = [as_rational(a) for a in upper]
    stops = [(-a.numerator, j) for j, a in enumerate(ups)
             if a.denominator == 1 and a.numerator <= 0]
    if not stops:
        raise NonTerminatingSeries(f"no nonpositive-integer upper parameter in {ups}")
    stop, j = min(stops)
    return _Series(ups[:j] + ups[j + 1:], lower, x).value(stop + 1)


def pfq_rows(upper: Sequence, lower: Sequence, x) -> Iterator[Fraction]:
    """pfq(upper + (1-k,), lower, x) for k = 1, 2, ..., without end.

    The parameters are checked at the call and set up once for all rows.
    """
    return map(_Series(upper, lower, x).value, count(1))


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


def odd_power_sum_identity_prefixes(n_max: int, s: int, x,
                                    sign: int = 1) -> Iterator[tuple[Fraction, Fraction]]:
    """Both sides, for n = 1..n_max, of: sum (sign x^2)^k/(2k+1)^s over
    k < n equals the binomial combination of terminating series with
    halves parameters at sign x^2 (the alternating variant when sign = -1)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x = as_rational(x)
    y = sign * x * x
    series = pfq_rows((HALF,) * s, (THREE_HALVES,) * s, y)
    return zip(accumulate(y ** k / (2 * k + 1) ** s for k in range(n_max)),
               alternating_binomial_sums(islice(series, n_max)))


def harmonic_via_hyper_prefixes(n_max: int, s: int, sign: int = 1, *,
                                parity: str) -> Iterator[Fraction]:
    """Depth-one sums of the given parity (alternating when sign = -1) for
    n = 1..n_max, as binomial combinations of terminating series at +-1.

    With a = 1/2 for odd and a = 1 for standard parity, each ratio
    (a)_i / (a+1)_i = a / (a+i) is the reciprocal of the i-th denominator.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if parity not in _HYPER_BASE:
        raise ValueError(f"parity must be odd or standard, got {parity!r}")
    a = _HYPER_BASE[parity]
    return alternating_binomial_sums(islice(pfq_rows((a,) * s, (a + 1,) * s, sign), n_max))


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


def chu_vandermonde_prefixes(n_max: int, b, c) -> Iterator[tuple[Fraction, Fraction]]:
    """Both sides of 2F1(-n, b; c; 1) = (c-b)_n / (c)_n for n = 0..n_max,
    the right one as a running product of (c-b+i) / (c+i)."""
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    b, c = as_rational(b), as_rational(c)
    ratios = ((c - b + i) / (c + i) for i in range(n_max))
    # The left side is asked first, so a c that vanishes in range raises
    # DegenerateLowerParameter before the product divides by zero.
    return zip(islice(pfq_rows((b,), (c,), 1), n_max + 1),
               accumulate(ratios, operator.mul, initial=Fraction(1)))


def _block_term(m: int, k: int) -> Fraction:
    return Fraction(1, math.prod(range(2 * k + 1, 2 * k + m + 1)))


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
    fact = math.factorial(m - 1)
    series = (pfq((1, 1 - k), (m + k,), -1) / (fact * (m + k - 1)) for k in range(1, n_max + 1))
    return zip(alternating_binomial_sums(series), direct)


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
