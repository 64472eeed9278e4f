"""Primality, Bertrand primes and the prime windows behind the certificates.

Primality has one source: a sieve table up to `SCAN_CAP`, built at import
and never regrown, and above it the strong probable-prime test.  A
largest-prime query walks down from the top of its range through
`is_prime`, so it stops within one prime gap and builds no sieve.

The window of a prime p at depth r is (r*p, (r+1)*p]; `_window` writes
that inequality once, in cross-multiplied integers, never floating
division: whether a prime sits in a window decides whether a certificate
applies, and boundary cases matter.  Both ends of a window grow with p, so
the integers no window covers lie below the window of 2 or between the
windows of consecutive primes, and one pass over the sieve's list of
primes reads off the threshold table.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import compress, pairwise

from .exact import Record


# window_report's defaults, which give the threshold table n_r; the sieve
# table that is_prime reads also ends at SCAN_CAP.
SCAN_CAP = 20000
SCAN_RUN = 2000


class Sieve:
    """Eratosthenes table for 2..limit plus a sorted list of primes."""

    def __init__(self, limit: int):
        limit = max(operator.index(limit), 3)
        flags = bytearray(b"\x01") * (limit + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
        self.limit = limit
        self.flags = flags
        self.primes = list(compress(range(limit + 1), flags))

    def is_prime(self, m: int) -> bool:
        if m > self.limit:
            raise ValueError(f"{m} exceeds sieve limit {self.limit}")
        return m >= 2 and bool(self.flags[m])


_TABLE = Sieve(SCAN_CAP)


# The strong probable-prime test to the prime bases 2..41 is exact below
# this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_STRONG_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_STRONG_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality: the sieve table up to its limit, above it
    the strong test to the prime bases 2..41, with no sieve built.

    Raises ValueError at or above 3.317e24, where those bases are no
    longer proven exact, and TypeError for a non-integer n such as 7.5,
    which is refused rather than truncated.
    """
    n = operator.index(n)
    if n < 2:
        return False
    if n <= _TABLE.limit:
        return _TABLE.is_prime(n)
    if n >= _STRONG_LIMIT:
        raise ValueError(f"primality of {n} is decided only below {_STRONG_LIMIT}")
    if any(n % a == 0 for a in _STRONG_BASES):  # n > 41 here
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _STRONG_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _largest_prime(lo: int, hi: int) -> int | None:
    """Largest prime in [lo, hi], or None, by a walk down from hi through
    `is_prime`, which ends within one prime gap.  Every window query comes
    here; a bound such as 7.5 is refused, not truncated."""
    lo, hi = operator.index(lo), operator.index(hi)
    for m in range(hi, max(lo, 2) - 1, -1):
        if is_prime(m):
            return m
    return None


def _window(m: int, r: int) -> tuple[int, int]:
    """The range [lo, hi] of p with r*p < m <= (r+1)*p; the window
    inequality in one place."""
    m, r = operator.index(m), operator.index(r)
    return -(-m // (r + 1)), (m - 1) // r  # p*(r+1) >= m, p*r < m


def bertrand_prime(n: int) -> int:
    """Largest prime p with n < p < 2n (exists for every n >= 2)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _largest_prime(n + 1, 2 * n - 1)


def window_prime(n: int, r: int) -> int | None:
    """Largest prime p > r+1 with p*(r+1) >= 2n and p*r < 2n, or None.

    The certificate engine tries such a prime first when showing a
    depth-r odd sum at n is not an integer; whether it certifies is then
    decided by the valuation at p, read off the numerator of the fold's
    pair modulo a power of p (it is usually negative).  The engine keeps it
    per (n, r) in its cascade point, so no cache holds it here.
    """
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    lo, hi = _window(2 * n, r)
    return _largest_prime(max(lo, r + 2), hi)


# A sieve for a window_report cap above the table; the last one is kept, so
# a table of many r at one cap sieves once.  Caps above REPORT_CAP_MAX are
# refused before any sieve is built: the sieve's time and memory grow with
# the cap, to most of a second and tens of MB at 10**7.
_large_sieve = lru_cache(maxsize=1)(Sieve)
REPORT_CAP_MAX = 10**7


class WindowReport(Record):
    """Scan evidence for one r: the largest uncovered integer and the
    threshold n above which every 2n is covered."""

    __match_args__ = ("r", "max_nonmember", "threshold", "verified_run")

    def __init__(self, r: int, max_nonmember: int, threshold: int, verified_run: int):
        super().__init__(r, max_nonmember, threshold, verified_run)


def window_report(r: int, cap: int = SCAN_CAP, run: int = SCAN_RUN,
                  *, closed_open: bool = False) -> WindowReport:
    """The largest m <= cap covered by no window (r*p, (r+1)*p].

    Both ends of a window grow with p, so the uncovered integers are 1..2r
    and, for consecutive primes p < q with (r+1)*p < r*q, the gap
    ((r+1)*p, r*q].  With closed_open=True the windows are [r*p, (r+1)*p)
    and each of those ranges shifts down by one, losing its right end.

    The `run` integers above the reported maximum are all covered, which
    is the evidence standard for treating the maximum as final.  Raises
    if cap leaves no room to verify that run, or exceeds REPORT_CAP_MAX.
    """
    r, cap, run = operator.index(r), operator.index(cap), operator.index(run)
    if r < 1 or run < 1 or cap <= run:
        raise ValueError("need r >= 1, run >= 1 and cap > run")
    if cap > REPORT_CAP_MAX:
        raise ValueError(f"cap={cap} is above the largest scan cap, {REPORT_CAP_MAX}")
    shift = 1 if closed_open else 0
    m = min(2 * r - shift, cap)
    sieve = _TABLE if cap <= _TABLE.limit else _large_sieve(cap)
    for p, q in pairwise(sieve.primes):
        if (r + 1) * p + 1 - shift > cap:  # this gap and all later ones start above cap
            break
        if (r + 1) * p < r * q:
            m = min(r * q - shift, cap)
    if m > cap - run:
        raise ValueError(
            f"cap={cap} too small: largest uncovered {m} leaves no room "
            f"for a verified run of {run}"
        )
    return WindowReport(r=r, max_nonmember=m, threshold=m // 2 + 1, verified_run=run)


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 must not hit the key 2
def window_threshold(r: int) -> int:
    """Smallest n above which a window prime exists for depth r (scanned)."""
    return window_report(r).threshold

