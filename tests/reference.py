"""Reference helpers the tests share: the p-adic valuation of a rational,
and rising factorials for the term-by-term pFq reference of test_hyper."""

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
