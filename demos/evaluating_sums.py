#!/usr/bin/env python3
"""Tour of the four sum families and the alternating variants.

Every value below is an exact rational; nothing is floated.
"""

from oddharmonic import (
    STAR_ODD,
    STAR_STANDARD,
    STRICT_ODD,
    STRICT_STANDARD,
    harmonic_sum,
    harmonic_sum_brute,
)

n = 6
comp = (1, 2)

print(f"n = {n}, composition = {comp}\n")
for spec in (STRICT_STANDARD, STAR_STANDARD, STRICT_ODD, STAR_ODD):
    value = harmonic_sum(spec, n, comp)
    print(f"  {spec.ordering:>6} / {spec.parity:<8} -> {value}")

print("\nAlternating entries (negative = sign (-1)^k on that factor):")
for comp in ((-1,), (1, -2), (-1, -1, 2)):
    value = harmonic_sum(STRICT_ODD, n, comp)
    print(f"  strict/odd {str(comp):<12} -> {value}")

print("\nThe integer fold agrees with direct enumeration:")
for spec in (STRICT_ODD, STAR_ODD):
    comp = (1, -2, 1)
    fast = harmonic_sum(spec, n, comp)
    slow = harmonic_sum_brute(spec, n, comp)
    print(f"  {spec.ordering}/odd {comp}: {fast} == {slow}: {fast == slow}")

print("\nThe classic small exceptions, exactly 1:")
print("  standard, n=1, (9):   ", harmonic_sum(STRICT_STANDARD, 1, (9,)))
print("  standard, n=3, (1,1): ", harmonic_sum(STRICT_STANDARD, 3, (1, 1)))
print("  odd,      n=1, (5):   ", harmonic_sum(STRICT_ODD, 1, (5,)))
