#!/usr/bin/env python3
"""The prime-window threshold table, scanned from scratch.

For each ratio r, the integers covered by some interval (r*p, (r+1)*p]
over primes p are cofinite; the threshold n_r is half the largest
uncovered integer plus one.  Above it, every 2n is covered, which hands
the certificate engine a window prime for every depth-r sum.
"""

from oddharmonic import window_prime, window_report, window_threshold

print("r, largest uncovered integer, threshold n_r, verified run")
for r in range(1, 21):
    rep = window_report(r)
    print(f"{rep.r:>2}  {rep.max_nonmember:>5}  {rep.threshold:>5}  {rep.verified_run}")

print("\nGuard: 2*n_r > (r+1)^2, so window primes always exceed r+1:")
print("  holds for r = 2..20:",
      all(2 * window_threshold(r) > (r + 1) ** 2 for r in range(2, 21)))

print("\nSpot check around the r=2 threshold (n_2 = 12):")
for n in range(9, 15):
    print(f"  window_prime(n={n}, r=2) = {window_prime(n, 2)}")

print("\nSame data as the CLI emits:  oddharmonic table nr --r-max 20")
print("LaTeX layout:                oddharmonic table nr --format latex")
