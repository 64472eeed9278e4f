"""Reduced rationals, p-adic valuations, and combinatorial scalars.

Values are plain `fractions.Fraction` instances: arbitrary precision,
always reduced, denominator positive, zero canonically 0/1.  The string
form is the canonical serialization ("num/den", or "num" for integers)
and `Fraction(text)` parses it back.  No floating point enters a value;
the one float is `math.inf`, the valuation of zero.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Union

from . import primes

PLUS_INFINITY = math.inf  # orders above every int

Valuation = Union[int, float]


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and "num/den" strings to Fraction.

    Floats are refused: 0.1 is the binary fraction nearest 1/10, and
    taking it exactly would put that rounding into a value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValueError(f"not a rational: {value!r} is a float")
    try:
        return Fraction(value)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"not a rational: {value!r}") from exc


def int_valuation(m: int, p: int) -> Valuation:
    """Exponent of p in the integer m; PLUS_INFINITY for m = 0.

    Nothing is checked: p must already be known to be prime, as the
    Bertrand and window primes of `primes` are.  `padic_valuation`
    is the checked entry point for any rational.
    """
    if m == 0:
        return PLUS_INFINITY
    v = 0
    m = abs(m)
    while m % p == 0:
        m //= p
        v += 1
    return v


def padic_valuation(a, p: int) -> Valuation:
    """Exponent of the prime p in a, i.e. the n with a = p**n * q1/q2 and
    q1, q2 coprime to p.  Returns PLUS_INFINITY for a = 0."""
    p = operator.index(p)
    if not primes.is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    a = as_rational(a)
    if a == 0:
        return PLUS_INFINITY
    return int_valuation(a.numerator, p) - int_valuation(a.denominator, p)


def pochhammer(a, i: int) -> Fraction:
    """Rising factorial a(a+1)...(a+i-1), with the empty product 1 at i=0."""
    if i < 0:
        raise ValueError("need i >= 0")
    a = as_rational(a)
    p, q = a.numerator, a.denominator
    return Fraction(math.prod(p + j * q for j in range(i)), q ** i)
