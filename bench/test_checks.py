"""Tests of the benchmark's output checks: they accept the program's real
outputs and reject corrupted ones.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oddharmonic import (  # noqa: E402
    STAR_ODD,
    STRICT_ODD,
    harmonic_sum,
    verify_odd_noninteger,
    verify_star_noninteger,
)
from oddharmonic.cli import main as cli_main  # noqa: E402


def _miller_rabin(m: int) -> bool:
    if m % 2 == 0:
        return m == 2
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def test_moduli_are_61_bit_primes():
    for q in checks.MODULI:
        assert q.bit_length() == 61 and _miller_rabin(q)


def test_trial_division_prime():
    small = [m for m in range(200) if checks.trial_division_prime(m)]
    assert small == [m for m in range(2, 200) if all(m % d for d in range(2, m))]


@pytest.mark.parametrize("star", [False, True])
def test_modular_sums_agree_with_harmonic_sum(star):
    spec = STAR_ODD if star else STRICT_ODD
    modular = checks.ModularChecker()
    for n in range(1, 13):
        for comp in [(1,), (2,), (1, 1), (1, 2), (2, 1), (1, -2), (-1, 1, 3),
                     (3, 1, 1), (1, 1, 1, 1)]:
            if len(comp) <= n:
                assert modular.check(star, n, comp, harmonic_sum(spec, n, comp)) is None


def test_modular_sums_at_large_n():
    modular = checks.ModularChecker()
    for n, comp in [(400, (1, 3)), (900, (2, -1, 1))]:
        assert modular.check(False, n, comp, harmonic_sum(STRICT_ODD, n, comp)) is None


def test_value_changed_by_one_over_2n_plus_1_is_rejected():
    modular = checks.ModularChecker()
    for star, n, comp in [(False, 12, (1, 2)), (True, 30, (2, 1, 1)), (False, 500, (1, 1))]:
        value = harmonic_sum(STAR_ODD if star else STRICT_ODD, n, comp)
        assert modular.check(star, n, comp, value) is None
        assert modular.check(star, n, comp, value + Fraction(1, 2 * n + 1)) is not None


def _cert(n, comp, star=False):
    verify = verify_star_noninteger if star else verify_odd_noninteger
    spec = STAR_ODD if star else STRICT_ODD
    return verify(n, comp).to_json(), harmonic_sum(spec, n, comp)


def _cli_lines(argv):
    out = workloads.LineClock()
    with contextlib.redirect_stdout(out):
        assert cli_main(argv) == 0
    return out.lines


def _sweep_certificates(n_max, weight_max, star):
    flag = "--star" if star else "--strict"
    lines = _cli_lines(["sweep", "--n-max", str(n_max), "--weight-max",
                        str(weight_max), flag])
    docs = [json.loads(x) for x in lines]
    spec = STAR_ODD if star else STRICT_ODD
    return [(d, harmonic_sum(spec, d["n"], checks.parse_composition(d["composition"])))
            for d in docs]


@pytest.mark.parametrize("star", [False, True])
def test_real_sweep_certificates_pass(star):
    pairs = _sweep_certificates(24, 6, star)
    kinds = {d["kind"] for d, _ in pairs}
    assert kinds == ({"StarValuation"} if star else
                     {"StarValuation", "WindowValuation", "DepthBound", "MagnitudeBound",
                      "LargeS1Bound", "DirectNonInteger"})
    modular = checks.ModularChecker()
    for doc, value in pairs:
        comp = checks.parse_composition(doc["composition"])
        assert modular.check(star, doc["n"], comp, value) is None
        assert checks.check_certificate(doc, value) is None, doc


def test_wrong_prime_is_rejected():
    doc, value = _cert(40, (1, 2, 1))
    assert doc["kind"] == "WindowValuation"
    assert checks.check_certificate(doc, value) is None
    # 19 and 37 are primes outside the window (3p < 80 <= 4p), 27 is composite
    for wrong in (19, 27, 37):
        assert checks.check_certificate(dict(doc, prime=wrong), value) is not None
    doc, value = _cert(30, (2, 1), star=True)
    assert doc["kind"] == "StarValuation"
    assert checks.check_certificate(dict(doc, prime=29), value) is not None


def test_valuation_off_by_one_is_rejected():
    for doc, value in (_cert(40, (1, 2, 1)), _cert(30, (2, 1), star=True), _cert(9, (3,))):
        assert checks.check_certificate(doc, value) is None
        for delta in (1, -1):
            bad = dict(doc, valuation=doc["valuation"] + delta)
            assert checks.check_certificate(bad, value) is not None


def test_bound_at_or_above_one_is_rejected():
    cases = ((6, (1,) * 6), (2, (1, 2)))
    depth, _ = _cert(*cases[0])
    magnitude, _ = _cert(*cases[1])
    assert depth["kind"] == "DepthBound" and magnitude["kind"] == "MagnitudeBound"
    for doc, (n, comp) in zip((depth, magnitude), cases):
        value = harmonic_sum(STRICT_ODD, n, comp)
        assert checks.check_certificate(doc, value) is None
        for bound in ("1", "3/2"):
            assert checks.check_certificate(dict(doc, bound=bound), value) is not None
        # a bound below 1 that the value exceeds
        low = str(value - Fraction(1, 10**6))
        assert checks.check_certificate(dict(doc, bound=low), value) is not None


def test_large_s1_bound_is_checked():
    doc, value = _cert(3, (4, 1))
    assert doc["kind"] == "LargeS1Bound"
    assert checks.check_certificate(doc, value) is None
    assert checks.check_certificate(dict(doc, bound="4"), value) is not None


def test_integer_value_and_wrong_kind_are_rejected():
    doc, value = _cert(12, (1, 1))
    assert checks.check_certificate(doc, Fraction(3)) is not None
    assert checks.check_certificate(dict(doc, kind="DepthBound"), value) is not None
    assert checks.check_certificate(dict(doc, rule_index=4), value) is not None


def _identity_lines(seed=0):
    return _cli_lines(["identity-check", "all", "--seed", str(seed), "--n-max", "6",
                       "--s-max", "2", "--m-max", "3", "--count", "3"])


def test_real_identity_rows_pass():
    lines = _identity_lines(seed=5)
    assert lines[0] == run.IDENTITY_HEADER
    checker = checks.IdentityChecker()
    suites = set()
    for line in lines[1:]:
        assert checker.check_row(line) is None, line
        suites.add(line.split(",", 1)[0])
    assert {"powersum", "alt-powersum", "depth1", "depth1-standard", "closed-form",
            "euler", "chu", "blocks", "blocks-depth1", "inversion",
            "inversion-blocks", "inversion-roundtrip"} <= suites


def test_flipped_equal_column_is_rejected():
    checker = checks.IdentityChecker()
    for line in _identity_lines()[1:40]:
        head, equal = line.rsplit(",", 1)
        assert equal == "True"
        assert checker.check_row(f"{head},False") is not None


def test_wrong_identity_value_is_rejected():
    checker = checks.IdentityChecker()
    for line in _identity_lines()[1:]:
        fields = line.split(",")
        if fields[0] == "inversion-roundtrip":
            continue
        wrong = str(Fraction(fields[6]) + 1)
        fields[6] = fields[7] = wrong
        assert checker.check_row(",".join(fields)) is not None, line


def test_sweep_grid_enumeration_counts():
    # sum over weights w <= W and depths d of C(w-1, d-1), all depths fit at n >= W
    keys = run.expected_sweep_keys(["sweep", "--n-min", "8", "--n-max", "8",
                                    "--weight-max", "8", "--strict"])
    assert len(keys) == 2**8 - 1


def test_inputs_depend_only_on_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 3) == workloads.make_inputs(workload, 3)
    assert workloads.make_inputs("large_n", 3) != workloads.make_inputs("large_n", 4)


def test_benchmark_refuses_a_tree_without_sources():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "bench" / path.name)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, timeout=60, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
