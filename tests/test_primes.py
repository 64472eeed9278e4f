"""Sieve correctness and the window-prime machinery."""

from fractions import Fraction

import pytest

from oddharmonic import cli, primes
from oddharmonic.certificates import depth_threshold_holds
from oddharmonic.primes import (
    Sieve,
    bertrand_prime,
    is_prime,
    window_prime,
    window_report,
    window_threshold,
)


def _trial_division(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def test_sieve_agrees_with_trial_division():
    sieve = Sieve(2000)
    for m in range(2001):
        assert sieve.is_prime(m) == _trial_division(m), m
    with pytest.raises(ValueError, match="exceeds sieve limit 100"):
        Sieve(100).is_prime(101)


def test_is_prime_beyond_sieve():
    assert is_prime(104729)          # 10000th prime
    assert not is_prime(104729 * 3)
    limit = primes._TABLE.limit
    assert is_prime(10**14 + 31)
    assert not is_prime(10**14 + 33)
    assert primes._TABLE.limit == limit   # the table does not grow to 10**7
    assert not is_prime(1)
    assert not is_prime(0)


def test_strong_test_agrees_with_a_sieve(monkeypatch):
    # a table of 2**14, so every m here goes through the strong test
    monkeypatch.setattr(primes, "_TABLE", Sieve(1 << 14))
    sieve = Sieve(200_000)
    for m in range(16_385, 200_001):
        assert is_prime(m) == sieve.is_prime(m), m
    assert primes._TABLE.limit == 1 << 14


def test_strong_pseudoprimes_to_small_bases_are_composite():
    assert not is_prime(3_215_031_751)                  # 151 * 751 * 28351
    assert not is_prime(3_825_123_056_546_413_051)      # strong to bases 2..31
    assert not is_prime(318_665_857_834_031_151_167_461)  # strong to bases 2..37
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime((2**31 - 1) * 1_000_000_007)


def test_is_prime_refuses_past_the_proven_bound():
    bound = 3_317_044_064_679_887_385_961_981  # the least strong pseudoprime to bases 2..41
    assert not is_prime(bound - 2)
    with pytest.raises(ValueError):
        is_prime(bound)
    with pytest.raises(ValueError):
        is_prime(10**30)


def test_is_prime_refuses_non_integers():
    # int(7.5) is 7, a prime; a float or Fraction is refused, not truncated
    for n in (7.5, 7.0, Fraction(15, 2), "7"):
        with pytest.raises(TypeError):
            is_prime(n)
    assert is_prime(7)
    # the window queries and the sieve refuse them the same way
    for call in (lambda: bertrand_prime(7.5), lambda: window_prime(12.5, 2),
                 lambda: depth_threshold_holds(7.5, 2), lambda: depth_threshold_holds(7, 2.0),
                 lambda: Sieve(7.5), lambda: window_report(2.5),
                 lambda: window_report(2, 20000.0), lambda: window_report(2, 20000, 2000.0)):
        with pytest.raises(TypeError):
            call()
    assert not depth_threshold_holds(7, 2)
    assert bertrand_prime(7) == 13  # cached or not, 7.0 must not pass for 7
    assert window_threshold(2) == 12  # now cached under the key 2
    for call in (lambda: bertrand_prime(7.0), lambda: depth_threshold_holds(7.0, 2),
                 lambda: window_threshold(2.0)):
        with pytest.raises(TypeError):
            call()


def test_bertrand_prime():
    assert bertrand_prime(2) == 3
    assert bertrand_prime(3) == 5
    assert bertrand_prime(12) == 23
    with pytest.raises(ValueError, match="need n >= 2"):
        bertrand_prime(1)
    for n in range(2, 400):  # the largest prime in (n, 2n), not merely one
        assert bertrand_prime(n) == max(p for p in range(n + 1, 2 * n) if _trial_division(p))


def test_prime_queries_match_a_sieve_above_the_table():
    # n here is past the table, so every query runs the strong test
    sieve = Sieve(2 * 50_300)
    near = [p for p in sieve.primes if p > 50_000]
    for n in range(50_000, 50_301):
        assert bertrand_prime(n) == max(p for p in near if n < p < 2 * n), n
    for r in range(1, 6):
        near = [p for p in sieve.primes if 100_000 <= p * (r + 1) and p * r < 100_600]
        for n in range(50_000, 50_301):
            expected = max((p for p in near
                            if p > r + 1 and p * (r + 1) >= 2 * n and p * r < 2 * n),
                           default=None)
            assert window_prime(n, r) == expected, (n, r)


def test_prime_queries_never_grow_the_table():
    table = primes._TABLE
    assert bertrand_prime(10**6) == 1_999_993
    assert window_prime(10**6, 3) == 666_649
    assert is_prime(10**14 + 31)
    assert primes._TABLE is table and table.limit == primes.SCAN_CAP


def test_bertrand_prime_past_the_proven_bound():
    # 2n - 1 is past the strong test's bound: refused, with no sieve built
    with pytest.raises(ValueError):
        bertrand_prime(2 * 10**24)


def test_window_prime_examples():
    assert window_prime(12, 2) == 11
    assert window_prime(2, 1) == 3
    assert window_prime(11, 2) is None
    assert window_prime(10, 2) == 7
    for r in (0, 6):  # outside 1 <= r <= n
        with pytest.raises(ValueError, match="need 1 <= r <= n"):
            window_prime(5, r)


def test_window_prime_conditions_hold():
    # the largest qualifying prime, so a search landing one prime low fails
    for r in range(1, 8):
        for n in range(r, 300):
            expected = max((p for p in range(r + 2, 2 * n)
                            if p * (r + 1) >= 2 * n and p * r < 2 * n and _trial_division(p)),
                           default=None)
            assert window_prime(n, r) == expected, (n, r)


def test_window_report_small():
    rep1 = window_report(1)
    assert (rep1.max_nonmember, rep1.threshold) == (2, 2)
    rep2 = window_report(2)
    assert (rep2.max_nonmember, rep2.threshold) == (22, 12)
    assert rep2.threshold == rep2.max_nonmember // 2 + 1
    assert rep2.verified_run == 2000


def test_window_report_cap_too_small():
    with pytest.raises(ValueError):
        window_report(2, cap=30, run=20)


def _marking_scan(r, cap, run, closed_open):
    """Reference for window_report: mark every integer up to cap that some
    window covers, then walk down from cap to the first unmarked one."""
    if r < 1 or run < 1 or cap <= run:
        raise ValueError("need r >= 1, run >= 1 and cap > run")
    member = bytearray(cap + 1)
    for p in Sieve(cap).primes:
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
    return m


def _outcome(scan, *args):
    try:
        return scan(*args)
    except ValueError as exc:
        return str(exc)


def _gap_rule(r, cap, run, closed_open):
    return window_report(r, cap, run, closed_open=closed_open).max_nonmember


def test_window_report_matches_marking_scan():
    for closed_open in (False, True):
        for r in range(1, 26):
            for cap in [*range(2, 301), 20000]:
                for run in (1, 20, 2000):
                    args = (r, cap, run, closed_open)
                    assert _outcome(_gap_rule, *args) == _outcome(_marking_scan, *args), args


def test_window_report_above_the_table_matches_marking_scan():
    cap = 30_000
    assert cap > primes._TABLE.limit
    built = primes._large_sieve.cache_info().misses
    for closed_open in (False, True):
        for r in range(1, 26):
            args = (r, cap, 2000, closed_open)
            assert _outcome(_gap_rule, *args) == _outcome(_marking_scan, *args), args
    assert primes._large_sieve.cache_info().misses <= built + 1  # one sieve for every r


def test_window_report_refuses_a_cap_above_its_limit(monkeypatch, capsys):
    # refused before any sieve is built, so nothing here allocates one
    def refuse(*args):
        raise AssertionError("a sieve was built")

    monkeypatch.setattr(primes, "Sieve", refuse)
    monkeypatch.setattr(primes, "_large_sieve", refuse)
    for cap in (primes.REPORT_CAP_MAX + 1, 10**10, 10**30):
        with pytest.raises(ValueError, match="cap"):
            window_report(2, cap)
    assert cli.main(["table", "nr", "--r-max", "2", "--cap", str(10**8)]) == 2
    assert capsys.readouterr().err.startswith("error: cap=100000000")
    # the limit itself is allowed: the report asks for a sieve up to it
    caps = []
    monkeypatch.setattr(primes, "_large_sieve", lambda cap: caps.append(cap) or primes._TABLE)
    window_report(2, primes.REPORT_CAP_MAX)
    assert caps == [primes.REPORT_CAP_MAX]


def test_closed_open_variant_shifts_maximum_by_one():
    for r in range(1, 21):
        left_open = window_report(r)
        closed = window_report(r, closed_open=True)
        assert left_open.max_nonmember == closed.max_nonmember + 1, r


def test_threshold_guard():
    # 2*n_r > (r+1)**2, so a window prime p >= 2*n_r/(r+1) exceeds r+1
    for r, twice in ((2, 24), (17, 3588), (20, 4462)):
        assert 2 * window_threshold(r) == twice > (r + 1) ** 2


def _covered(m, r):
    """Is m in (r*p, (r+1)*p] for some prime p?  Trial division over the p
    with m/(r+1) <= p < m/r."""
    return any(_trial_division(p) for p in range(-(-m // (r + 1)), (m - 1) // r + 1))


def test_threshold_consistent_with_coverage():
    for r in range(2, 9):
        rep = window_report(r)
        assert not _covered(rep.max_nonmember, r)
        for m in range(rep.max_nonmember + 1, rep.max_nonmember + 60):
            assert _covered(m, r)
        # from the threshold up every depth-r sum has a window prime
        nr = window_threshold(r)
        assert nr == rep.max_nonmember // 2 + 1
        assert all(window_prime(n, r) is not None for n in range(nr, nr + 40))
