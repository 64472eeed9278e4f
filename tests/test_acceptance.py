"""Acceptance checklist: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s -v tests/test_acceptance.py` to see the lines as they
print.  Criterion 4 checks the window-valuation law that holds: at a
window prime p the valuation of a strict odd sum is at least -M, where
M is the largest weight a strict index tuple can put on odd multiples of
p (at most the ceil(r/2) largest entries), so it is never -weight at
depth >= 2 (v_11 at n=12, composition (1,1), is -1, not -2).  The helper
that computes M is checked against brute enumeration.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations, product

from oddharmonic import cli, hyper
from oddharmonic.certificates import (
    TRIVIAL_INTEGER,
    WINDOW_VALUATION,
    decimal_bound_checks,
    leading_exponent_bound,
    verify_odd_noninteger,
    verify_star_noninteger,
)
from oddharmonic.primes import window_prime, window_threshold
from oddharmonic.sums import (
    STAR_ODD,
    STAR_STANDARD,
    STRICT_ODD,
    STRICT_STANDARD,
    compositions,
    harmonic_sum,
    harmonic_sum_brute,
)
from reference import valuation

F = Fraction


EXPECTED_THRESHOLDS = [2, 12, 17, 59, 73, 112, 130, 213, 572, 636,
                       699, 763, 826, 1044, 1118, 1193, 1794, 2008, 2119, 2231]


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_criterion_1_threshold_table(capsys):
    start = time.time()
    code = cli.main(["table", "nr", "--r-max", "20"])
    out = capsys.readouterr().out
    elapsed = time.time() - start
    lines = out.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    got = [int(row[2]) for row in rows]
    ok = code == 0 and got == EXPECTED_THRESHOLDS
    with capsys.disabled():
        _report("1 threshold table", ok, f"{elapsed:.1f}s")
    assert ok, f"got {got}"


def test_criterion_2_known_exceptions(capsys):
    ok = all(harmonic_sum(STRICT_STANDARD, 1, (s,)) == 1 for s in range(1, 11))
    ok &= harmonic_sum(STRICT_STANDARD, 3, (1, 1)) == 1
    ok &= all(harmonic_sum(STRICT_ODD, 1, (s,)) == 1 for s in range(1, 11))
    ok &= all(harmonic_sum(STAR_ODD, 1, (s,)) == 1 for s in range(1, 11))
    with capsys.disabled():
        _report("2 known integer exceptions", ok)
    assert ok


def test_criterion_3_nonintegrality_sweep(capsys):
    start = time.time()
    comps = list(compositions(8))
    cases = 0
    failures = []
    for n in range(2, 51):
        for comp in comps:
            if len(comp) > n:
                continue
            cases += 1
            value = harmonic_sum(STRICT_ODD, n, comp)
            star = harmonic_sum(STAR_ODD, n, comp)
            cert = verify_odd_noninteger(n, comp)
            cert_star = verify_star_noninteger(n, comp)
            if (value.denominator == 1 or star.denominator == 1
                    or cert.kind == TRIVIAL_INTEGER
                    or cert_star.kind == TRIVIAL_INTEGER):
                failures.append((n, comp))
    # the CLI front end emits the same certificates
    rng = random.Random(5)
    for n, comp in rng.sample([(n, c) for n in (13, 37) for c in comps[:40]], 10):
        code = cli.main(["verify", "--odd", "--n", str(n),
                         "--comp", ",".join(map(str, comp))])
        doc = json.loads(capsys.readouterr().out)
        if code != 0 or doc["kind"] == "TrivialInteger":
            failures.append((n, comp))
    elapsed = time.time() - start
    ok = not failures and cases == 49 * 255 - sum(
        1 for n in range(2, 8) for c in comps if len(c) > n)
    with capsys.disabled():
        _report("3 non-integrality sweep", ok, f"{cases} cases, {elapsed:.1f}s")
    assert ok, failures[:5]


def _window_multiplicity(n: int, comp: tuple[int, ...], p: int) -> int:
    """M: the largest sum of the entries s_i whose odd denominator 2k_i+1
    is divisible by p, over strict index tuples 0 <= k_1 < ... < k_r < n.

    When p*p > 2n each denominator holds p at most once, so every term
    has valuation >= -M and so does the sum.  An integer DP over index
    positions, sharing nothing with the evaluator: after position k,
    best[i] is the largest partial sum using i indices <= k.  Every
    reachable value is >= 0, so the zero fill never wins a max.
    """
    r = len(comp)
    best = [0] * (r + 1)
    for k in range(n):
        hit = (2 * k + 1) % p == 0
        for i in range(min(k + 1, r), 0, -1):
            take = best[i - 1] + (comp[i - 1] if hit else 0)
            if take > best[i]:
                best[i] = take
    return best[r]


def test_window_multiplicity_matches_enumeration():
    # the bound criterion 4 rests on, against every strict index tuple
    for p in (3, 5, 7, 11):
        for r in range(1, 5):
            for comp in product((1, 2, 3), repeat=r):
                for n in range(r, 13):
                    brute = max(
                        sum(s for s, k in zip(comp, ks) if (2 * k + 1) % p == 0)
                        for ks in combinations(range(n), r))
                    assert _window_multiplicity(n, comp, p) == brute, (n, comp, p)


def test_criterion_4_window_valuation_law(capsys):
    # At a window prime p (r*p < 2n <= (r+1)*p, p > r+1) only the odd
    # multiples j*p with j <= r lie below 2n, and p*p > 2n.  So at most
    # ceil(r/2) factors of a term carry p, v_p of the strict odd sum is
    # >= -M (see _window_multiplicity) and never -weight.
    # Leading terms can cancel mod p, so v_p > -M happens, and v_p >= 0
    # sends the cascade past the window rule.  For 2 <= r <= 6, n <= 200,
    # 20 samples each.
    start = time.time()
    rng = random.Random(424242)
    pairs = checked = fallthrough = 0
    tight = dict.fromkeys(range(2, 7), 0)
    bad = []
    for r in range(2, 7):
        for n in range(r, 201):
            p = window_prime(n, r)
            if p is None:
                continue
            pairs += 1
            odd_multiples = sum(1 for m in range(p, 2 * n, 2 * p))
            if odd_multiples != (r + 1) // 2 or p * p <= 2 * n:
                bad.append((n, r, p, "window structure"))
            for _ in range(20):
                comp = tuple(rng.randint(1, 3) for _ in range(r))
                v = valuation(harmonic_sum(STRICT_ODD, n, comp), p)
                bound = _window_multiplicity(n, comp, p)
                top = sum(sorted(comp)[r // 2:])  # the ceil(r/2) largest entries
                checked += 1
                tight[r] += v == -bound
                if not (v >= -bound >= -top and v != -sum(comp)):
                    bad.append((n, r, comp, p, v, -bound))
                cert = verify_odd_noninteger(n, comp)
                if v < 0:
                    ok_cert = (cert.kind == WINDOW_VALUATION and cert.prime == p
                               and cert.valuation == v)
                else:
                    fallthrough += 1
                    ok_cert = cert.rule_index > 3
                if not ok_cert:
                    bad.append((n, r, comp, p, v, cert.kind))
    elapsed = time.time() - start
    ok = not bad and all(tight.values())  # the bound is attained at every depth
    detail = (f"{pairs} windowed pairs, {checked} checks, {sum(tight.values())} with "
              f"v_p = -M, {fallthrough} fall-through, {elapsed:.1f}s")
    with capsys.disabled():
        _report("4 window valuation law", ok, detail)
    assert ok, f"{len(bad)} violations, first: {bad[:5]}; v_p = -M by depth: {tight}"


def test_criterion_5_decimal_bounds(capsys):
    start = time.time()
    checks = decimal_bound_checks()
    expected = {
        (1, 2): (12, F(27273, 100000)),
        (1, 2, 1): (17, F(22216, 100000)),
        (1, 1, 2): (17, F(8552, 100000)),
        (1, 2, 1, 1): (59, F(28433, 100000)),
        (1, 1, 2, 1): (59, F(10452, 100000)),
        (1, 1, 1, 2): (59, F(4060, 100000)),
        (1,) * 5: (73, F(85442, 100000)),
        (1,) * 6: (112, F(51825, 100000)),
        (1,) * 7: (130, F(20280, 100000)),
        (1,) * 8: (213, F(12835, 100000)),
        (1,) * 9: (572, F(17796, 100000)),
        (1,) * 10: (636, F(6243, 100000)),
    }
    seen = {c.composition: c for c in checks}
    ok = set(seen) == set(expected)
    for comp, (n, threshold) in expected.items():
        c = seen.get(comp)
        ok &= c is not None and c.n == n and c.threshold == threshold and c.ok
        ok &= c is not None and c.value < threshold  # strict, exact
    elapsed = time.time() - start
    with capsys.disabled():
        _report("5 exact decimal bounds", ok, f"{len(checks)} bounds, {elapsed:.1f}s")
    assert ok


def test_criterion_6_leading_exponent_bounds(capsys):
    start = time.time()
    ok = all(leading_exponent_bound(n, (1,)) == 1 for n in range(3, 12))
    ok &= max(leading_exponent_bound(n, (1, 1)) for n in range(4, 17)) == 1
    ok &= max(leading_exponent_bound(n, (1, 1, 1)) for n in range(5, 59)) == 1
    elapsed = time.time() - start
    with capsys.disabled():
        _report("6 leading-exponent bounds", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_7_identity_suites(capsys):
    start = time.time()
    bad = []
    xs = (F(1), F(1, 2), F(1, 3), F(2, 5))
    for s in range(1, 5):
        for x in xs:
            for sign, suite in ((1, "powersum"), (-1, "alt-powersum")):
                rows = hyper.odd_power_sum_identity_prefixes(20, s, x, sign)
                for n, (lhs, rhs) in enumerate(rows, start=1):
                    if lhs != rhs:
                        bad.append((suite, n, s, x))
    for s in range(1, 6):
        for sign in (1, -1):
            values = hyper.harmonic_via_hyper_prefixes(30, s, sign, parity="odd")
            for n, value in enumerate(values, start=1):
                if value != harmonic_sum(STRICT_ODD, n, (sign * s,)):
                    bad.append(("depth1", n, s, sign))
    for n in range(1, 51):
        if hyper.odd_harmonic_closed_form(n) != harmonic_sum(STRICT_ODD, n, (1,)):
            bad.append(("closed-form", n))
        if hyper.euler_binomial_harmonic(n) != harmonic_sum(STRICT_STANDARD, n, (1,)):
            bad.append(("euler", n))
    for m in range(1, 9):
        for n, (via, direct) in enumerate(hyper.consecutive_product_sum_prefixes(m, 30), start=1):
            if via != direct:
                bad.append(("blocks", m, n))
    rng = random.Random(11)
    for _ in range(50):
        b = F(rng.randint(-9, 9), rng.randint(1, 9))
        while True:
            c = F(rng.randint(-9, 9), rng.randint(1, 9))
            if not (c.denominator == 1 and c <= 0 and -c < 11):
                break
        for n, (lhs, rhs) in enumerate(hyper.chu_vandermonde_prefixes(10, b, c)):
            if lhs != rhs:
                bad.append(("chu", n, b, c))
    half, threehalf = F(1, 2), F(3, 2)
    for s in range(1, 4):
        for sign in (1, -1):
            for n in range(1, 16):
                lhs = hyper.pfq((half,) * s + (1 - n,), (threehalf,) * s, sign)
                rhs = hyper.alternating_binomial_sum(
                    n, lambda k: harmonic_sum(STRICT_ODD, k, (sign * s,)))
                if lhs != rhs:
                    bad.append(("inversion", s, sign, n))
    import math
    for m in range(1, 6):
        blocks = list(hyper.consecutive_product_sums(m, 15))
        for n in range(1, 16):
            lhs = hyper.pfq((1, 1 - n), (m + n,), -1)
            rhs = (math.factorial(m - 1) * (m + n - 1)
                   * hyper.alternating_binomial_sum(n, lambda k: blocks[k - 1]))
            if lhs != rhs:
                bad.append(("inversion-blocks", m, n))
    elapsed = time.time() - start
    ok = not bad
    with capsys.disabled():
        _report("7 identity suites", ok, f"{elapsed:.1f}s")
    assert ok, bad[:5]


def test_criterion_8_window_guard(capsys):
    start = time.time()
    # 2*n_r > (r+1)**2, so window primes exceed r+1
    ok = all(2 * window_threshold(r) > (r + 1) ** 2 for r in range(2, 21))
    missing = []
    for r in range(2, 21):
        nr = window_threshold(r)
        for n in range(nr, 3001):
            if window_prime(n, r) is None:
                missing.append((n, r))
    ok &= not missing
    elapsed = time.time() - start
    with capsys.disabled():
        _report("8 window guard and coverage", ok, f"{elapsed:.1f}s")
    assert ok, missing[:5]


def test_criterion_9_oracle_equivalence(capsys):
    start = time.time()
    rng = random.Random(90210)
    specs = (STRICT_STANDARD, STAR_STANDARD, STRICT_ODD, STAR_ODD)
    bad = []
    for _ in range(500):
        spec = rng.choice(specs)
        n = rng.randint(1, 10)
        r = rng.randint(1, min(n, 3))
        mags = [rng.randint(1, 4) for _ in range(r)]
        if spec.parity == "odd" or r == 1:
            signs = [rng.choice((1, -1)) for _ in range(r)]
        else:
            signs = [1] * r
        comp = tuple(m * s for m, s in zip(mags, signs))
        if harmonic_sum(spec, n, comp) != harmonic_sum_brute(spec, n, comp):
            bad.append((spec, n, comp))
    elapsed = time.time() - start
    ok = not bad
    with capsys.disabled():
        _report("9 oracle equivalence", ok, f"500 instances, {elapsed:.1f}s")
    assert ok, bad[:5]
