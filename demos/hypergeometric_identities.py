#!/usr/bin/env python3
"""Terminating hypergeometric evaluations of the depth-one sums.

Each identity is checked by computing both sides as exact rationals.  The
`*_prefixes` generators yield the values for n = 1, 2, ..., so the value
at one n is the last one they yield.
"""

from fractions import Fraction

from oddharmonic import (
    STRICT_ODD,
    STRICT_STANDARD,
    alternating_binomial_sum,
    binomial_inversion,
    binomial_transform,
    chu_vandermonde_prefixes,
    consecutive_product_sum_prefixes,
    euler_binomial_harmonic,
    harmonic_sum,
    harmonic_via_hyper_prefixes,
    odd_harmonic_closed_form,
    odd_power_sum_identity_prefixes,
    pfq,
)

F = Fraction

print("A terminating 3F2 value:")
print("  pfq((1/2, 1/2, -3), (3/2, 3/2), 1) =",
      pfq((F(1, 2), F(1, 2), -3), (F(3, 2), F(3, 2)), 1))

print("\nPower-sum identity at x = 1/3, n = 5, s = 2 (both sides):")
*_, (lhs, rhs) = odd_power_sum_identity_prefixes(5, 2, F(1, 3))
print(f"  {lhs} == {rhs}: {lhs == rhs}")

print("\nDepth-one odd sums via hypergeometric values at +-1:")
for n in (3, 10):
    for s in (1, 2):
        direct = harmonic_sum(STRICT_ODD, n, (s,))
        *_, via = harmonic_via_hyper_prefixes(n, s, parity="odd")
        print(f"  n={n:>2} s={s}: {via} == {direct}: {via == direct}")

print("\nDouble-factorial closed form of the odd harmonic number:")
for n in (4, 9):
    direct = harmonic_sum(STRICT_ODD, n, (1,))
    print(f"  n={n}: {odd_harmonic_closed_form(n)} == {direct}")

print("\nChu-Vandermonde, rational parameters, n = 0..4:")
for n, (lhs, rhs) in enumerate(chu_vandermonde_prefixes(4, F(2, 5), F(7, 3))):
    print(f"  n={n}: 2F1(-n, 2/5; 7/3; 1) = {lhs} == (c-b)_n/(c)_n = {rhs}")

print("\nBlock product sums two ways (m consecutive integers per term):")
for m, n in ((2, 5), (4, 7)):
    *_, (via, direct) = consecutive_product_sum_prefixes(m, n)
    print(f"  m={m} n={n}: {direct} == {via}: {direct == via}")

print("\nEuler's alternating-binomial form of the harmonic number:")
for n in (5, 12):
    direct = harmonic_sum(STRICT_STANDARD, n, (1,))
    print(f"  n={n:>2}: {euler_binomial_harmonic(n)} == {direct}")

print("\nBinomial inversion pairs the transforms (round trip on odd sums):")
f = [harmonic_sum(STRICT_ODD, k, (1,)) for k in range(1, 7)]
g = binomial_inversion(f)
print("  f =", f)
print("  g =", g)
print("  transform(g) == f:", binomial_transform(g) == f)
print("  g(m) alternates the hypergeometric value:",
      all(g[m - 1] == (-1) ** (m - 1) * pfq((F(1, 2), 1 - m), (F(3, 2),), 1)
          for m in range(1, 7)))

print("\n(The binomial-sum helper: sum (-1)^(k-1) C(n,k) f(k).)")
print("  n=6, f = odd harmonic:",
      alternating_binomial_sum(6, lambda k: harmonic_sum(STRICT_ODD, k, (1,))))
