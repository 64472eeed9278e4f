"""Prime sieve and the prime-window searches behind the certificates.

All interval comparisons are done with cross-multiplied integers, never
with floating division: whether a prime sits in a window decides whether a
certificate applies, and boundary cases matter.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache


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
        self.primes = [i for i, f in enumerate(flags) if f]

    def is_prime(self, m: int) -> bool:
        if m > self.limit:
            raise ValueError(f"{m} exceeds sieve limit {self.limit}")
        return m >= 2 and bool(self.flags[m])

    def primes_in(self, lo: int, hi: int) -> list[int]:
        """Primes p with lo <= p <= hi."""
        if hi > self.limit:
            raise ValueError(f"{hi} exceeds sieve limit {self.limit}")
        i = bisect_left(self.primes, lo)
        j = bisect_right(self.primes, hi)
        return self.primes[i:j]


_shared = Sieve(1 << 14)


def shared_sieve(limit: int = 0) -> Sieve:
    """The process-wide sieve, regrown geometrically when a query needs more."""
    global _shared
    if limit > _shared.limit:
        _shared = Sieve(max(limit, 2 * _shared.limit))
    return _shared


# The strong probable-prime test to the prime bases 2..41 is exact below
# this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_STRONG_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_STRONG_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality: the shared sieve up to its limit, above it
    the strong test to the prime bases 2..41, which never grows the sieve.

    Raises ValueError at or above 3.317e24, where those bases are no
    longer proven exact, and TypeError for a non-integer n such as 7.5,
    which is refused rather than truncated.
    """
    n = operator.index(n)
    if n < 2:
        return False
    if n <= _shared.limit:
        return _shared.is_prime(n)
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


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in the closed interval [lo, hi]; every window query comes
    here, so a bound such as 7.5 is refused (TypeError), not truncated."""
    lo, hi = operator.index(lo), operator.index(hi)
    if hi < 2 or hi < lo:
        return []
    return shared_sieve(hi).primes_in(lo, hi)


def largest_prime_in(lo: int, hi: int) -> int | None:
    """Largest prime in the open interval (lo, hi), or None."""
    if lo >= hi:
        raise ValueError("empty interval")
    ps = primes_between(lo + 1, hi - 1)
    return ps[-1] if ps else None


@lru_cache(maxsize=4096, typed=True)  # typed: 7.0 must not hit the key 7
def bertrand_prime(n: int) -> int:
    """Largest prime p with n < p < 2n (exists for every n >= 2)."""
    if n < 2:
        raise ValueError("need n >= 2")
    p = largest_prime_in(n, 2 * n)
    if p is None:  # impossible for n >= 2
        raise RuntimeError(f"no prime in ({n}, {2 * n})")
    return p


@lru_cache(maxsize=4096, typed=True)
def window_prime(n: int, r: int) -> int | None:
    """Largest prime p > r+1 with p*(r+1) >= 2n and p*r < 2n, or None.

    The certificate engine tries such a prime first when showing a
    depth-r odd sum at n is not an integer; whether it certifies is then
    decided by the valuation at p, folded modulo a power of p or read off
    a given value (it is usually negative).
    """
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    two_n = 2 * n
    lo = -(-two_n // (r + 1))  # ceil(2n/(r+1))
    hi = (two_n - 1) // r      # largest p with p*r < 2n
    ps = primes_between(max(lo, r + 2), hi)
    return ps[-1] if ps else None


def window_covers(m: int, r: int, *, closed_open: bool = False) -> bool:
    """Is m covered by the interval (r*p, (r+1)*p] for some prime p?

    With closed_open=True the intervals are [r*p, (r+1)*p) instead; the
    largest uncovered integer then drops by exactly one.
    """
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    if closed_open:
        lo = m // (r + 1) + 1  # smallest p with p*(r+1) > m
        hi = m // r            # largest p with p*r <= m
    else:
        lo = -(-m // (r + 1))  # smallest p with p*(r+1) >= m
        hi = (m - 1) // r      # largest p with p*r < m
    return bool(primes_between(lo, hi))


@dataclass(frozen=True)
class WindowReport:
    """Scan evidence for one r: the largest uncovered integer and the
    threshold n above which every 2n is covered."""

    r: int
    max_nonmember: int
    threshold: int
    verified_run: int


def window_report(r: int, cap: int = 20000, run: int = 2000,
                  *, closed_open: bool = False) -> WindowReport:
    """Scan m = 1..cap for coverage, report the largest uncovered m.

    The `run` integers above the reported maximum are all covered, which
    is the evidence standard for treating the maximum as final.  Raises
    if cap leaves no room to verify that run.
    """
    if r < 1 or run < 1 or cap <= run:
        raise ValueError("need r >= 1, run >= 1 and cap > run")
    member = bytearray(cap + 1)
    for p in shared_sieve(cap).primes:
        start = r * p if closed_open else r * p + 1
        if start > cap:
            break
        stop = (r + 1) * p - 1 if closed_open else (r + 1) * p
        stop = min(stop, cap)
        member[start : stop + 1] = b"\x01" * (stop - start + 1)
    m = cap
    while m >= 1 and member[m]:
        m -= 1
    if m == 0:
        raise ValueError(f"no uncovered integer up to cap={cap}")
    if m > cap - run:
        raise ValueError(
            f"cap={cap} too small: largest uncovered {m} leaves no room "
            f"for a verified run of {run}"
        )
    return WindowReport(r=r, max_nonmember=m, threshold=m // 2 + 1, verified_run=run)


@lru_cache(maxsize=None)
def window_threshold(r: int, cap: int = 20000, run: int = 2000) -> int:
    """Smallest n above which a window prime exists for depth r (scanned)."""
    return window_report(r, cap, run).threshold


def threshold_guard(r: int) -> bool:
    """2*threshold(r) > (r+1)**2, so window primes exceed r+1."""
    if not 2 <= r <= 20:
        raise ValueError("guard is tabulated for 2 <= r <= 20")
    return 2 * window_threshold(r) > (r + 1) ** 2
