"""Terminating generalized hypergeometric series and binomial identities.

A series with a nonpositive-integer upper parameter truncates at the
first vanishing rising factorial, so every evaluation here is a finite
sum of exact rationals.  The identity helpers return both sides instead
of a boolean so that a failing comparison is diagnosable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from .exact import as_rational, binomial, double_factorial, pochhammer


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
    total = Fraction(1)
    term = Fraction(1)
    for i in range(k_max):
        for a in ups:
            term *= a + i
        for b in lows:
            term /= b + i
        term *= Fraction(x, i + 1)
        total += term
    return total


def alternating_binomial_sum(n: int, f: Callable[[int], Fraction]) -> Fraction:
    """sum_{k=1}^{n} (-1)^(k-1) * C(n,k) * f(k)."""
    total = Fraction(0)
    sign = 1
    for k in range(1, n + 1):
        total += sign * binomial(n, k) * f(k)
        sign = -sign
    return total


def odd_power_sum_identity(n: int, s: int, x, sign: int = 1) -> tuple[Fraction, Fraction]:
    """Both sides of: sum (sign x^2)^k/(2k+1)^s over k < n equals the
    binomial combination of terminating series with halves parameters at
    sign x^2 (the alternating variant when sign = -1)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x = as_rational(x)
    y = sign * x * x
    lhs = Fraction(0)
    power = Fraction(1)
    for k in range(n):
        lhs += power / (2 * k + 1) ** s
        power *= y
    rhs = alternating_binomial_sum(
        n, lambda k: pfq((HALF,) * s + (1 - k,), (THREE_HALVES,) * s, y))
    return lhs, rhs


def harmonic_via_hyper(n: int, s: int, sign: int = 1, *, parity: str) -> Fraction:
    """Depth-one sum of the given parity (alternating when sign = -1) as a
    binomial combination of terminating series evaluated at +-1.

    With a = 1/2 for odd and a = 1 for standard parity, each ratio
    (a)_i / (a+1)_i = a / (a+i) is the reciprocal of the i-th denominator.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if parity not in _HYPER_BASE:
        raise ValueError(f"parity must be odd or standard, got {parity!r}")
    a = _HYPER_BASE[parity]
    return alternating_binomial_sum(
        n, lambda k: pfq((a,) * s + (1 - k,), (a + 1,) * s, sign))


def odd_harmonic_closed_form(n: int) -> Fraction:
    """sum (-2)^(k-1) C(n,k) (k-1)!/(2k-1)!!, the double-factorial form
    of the odd harmonic number."""
    if n < 1:
        raise ValueError("need n >= 1")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction((-2) ** (k - 1) * binomial(n, k) * math.factorial(k - 1),
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


def consecutive_product_sum(m: int, n: int) -> Fraction:
    """sum over k < n of 1 / ((2k+1)(2k+2)...(2k+m)).

    At m = 1 this is the odd harmonic number.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    total = Fraction(0)
    for k in range(n):
        den = 1
        for j in range(1, m + 1):
            den *= 2 * k + j
        total += Fraction(1, den)
    return total


def consecutive_product_sum_via_hyper(m: int, n: int) -> Fraction:
    """The same block sum via 2F1(1, 1-k; m+k; -1) values (beta-function
    reduction of the iterated integral)."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    fact = math.factorial(m - 1)
    return alternating_binomial_sum(
        n, lambda k: pfq((1, 1 - k), (m + k,), -1) / (fact * (m + k - 1)))


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
            term = binomial(m, k) * f[k - 1]
            total += term if (m - k) % 2 == 0 else -term
        out.append(total)
    return out


def binomial_transform(values: Sequence) -> list[Fraction]:
    """f(m) = sum_{k=1}^{m} C(m,k) g(k) for a 1-indexed list g."""
    g = [as_rational(v) for v in values]
    if not g:
        raise ValueError("need a nonempty sequence")
    return [sum((binomial(m, k) * g[k - 1] for k in range(1, m + 1)), Fraction(0))
            for m in range(1, len(g) + 1)]
