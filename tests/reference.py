"""Reference helpers the tests share: the p-adic valuation of a rational,
rising factorials for the term-by-term pFq reference of test_hyper, and
the alternating binomial sums and block sums that the identity suites
are checked against, summed one Fraction term at a time."""

import math
from fractions import Fraction

from oddharmonic.exact import as_rational, int_valuation


def valuation(a, p):
    """v_p of a nonzero rational, from its numerator and denominator."""
    a = Fraction(a)
    return int_valuation(a.numerator, p) - int_valuation(a.denominator, p)


def pochhammer(a, i: int) -> Fraction:
    """Rising factorial a(a+1)...(a+i-1), with the empty product 1 at i=0;
    a float a is refused."""
    if i < 0:
        raise ValueError("need i >= 0")
    a = as_rational(a)
    p, q = a.numerator, a.denominator
    return Fraction(math.prod(p + j * q for j in range(i)), q ** i)


def alternating_reference(n, f):
    """sum_{k=1}^{n} (-1)^(k-1) C(n,k) f(k), one Fraction term at a time."""
    return sum(((-1) ** (k - 1) * math.comb(n, k) * Fraction(f(k)) for k in range(1, n + 1)),
               Fraction(0))


def block_sum(m, n):
    """sum over k < n of 1 / ((2k+1)(2k+2)...(2k+m))."""
    return sum((Fraction(1, math.prod(range(2 * k + 1, 2 * k + m + 1))) for k in range(n)),
               Fraction(0))
