#!/usr/bin/env python3
"""Non-integrality certificates: which rule fires where, and why.

The verifier walks a fixed cascade and returns a witness.  Star sums need
only a prime between n and 2n; strict sums route through depth bounds,
window primes, dominance comparisons, the leading-exponent threshold,
and finally direct evaluation.
"""

import json

from oddharmonic import (
    STRICT_ODD,
    harmonic_sum,
    verify_odd_noninteger,
    verify_star_noninteger,
)

print("Star sums: one rule suffices (valuation exactly -weight):")
for n, comp in ((2, (1, 1)), (9, (2, 1)), (40, (1, 1, 1))):
    cert = verify_star_noninteger(n, comp)
    print(f"  n={n:>2} comp={comp}: {json.dumps(cert.to_json())}")

print("\nStrict odd sums: the cascade picks the earliest applicable rule:")
cases = [
    (1, (5,)),      # the trivial integer exception
    (7, (3,)),      # depth 1: Bertrand prime
    (8, (1,) * 8),  # depth past the threshold: ones-power bound < 1
    (12, (1, 1)),   # window prime 11
    (5, (1, 2)),    # no window; dominated by a reference sum < 1
    (5, (3, 1)),    # large first exponent
    (5, (1, 1)),    # nothing else applies: direct evaluation
]
for n, comp in cases:
    cert = verify_odd_noninteger(n, comp)
    print(f"  n={n:>2} comp={str(comp):<16} rule {cert.rule_index}: "
          f"{json.dumps(cert.to_json())}")

print("\nA window prime can exist yet certify nothing: at n=26 the prime 23")
print("satisfies 2*23 < 52 <= 3*23, but cancellation modulo 23 lifts the")
print("valuation of the sum to +2, so the engine falls back to the direct")
print("denominator check (and labels the certificate best-effort):")
cert = verify_odd_noninteger(26, (1, 1))
print(f"  value = {harmonic_sum(STRICT_ODD, 26, (1, 1))}")
print(f"  {json.dumps(cert.to_json())}")
