"""CLI surface: commands, formats, exit codes, output round-trips."""

import contextlib
import gc
import hashlib
import json
import math
import os
import sys
import tracemalloc
from fractions import Fraction

import pytest

from oddharmonic import cli, hyper, primes
from oddharmonic.certificates import (
    _Point,
    verify_odd_noninteger,
    verify_star_noninteger,
)
from oddharmonic.cli import main
from oddharmonic.sums import (
    STAR_ODD,
    STRICT_ODD,
    STRICT_STANDARD,
    _fold,
    compositions,
    harmonic_sum,
    harmonic_sum_pairs,
)
from reference import alternating_reference, block_sum


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--odd", "--strict", "--n", "3", "--comp", "1")
    assert code == 0
    assert out.strip() == "23/15"


def test_eval_families_and_json(capsys):
    code, out, _ = run(capsys, "eval", "--star", "--odd", "--n", "2", "--comp", "1,1")
    assert (code, out.strip()) == (0, "13/9")
    code, out, _ = run(capsys, "eval", "--standard", "--n", "3", "--comp", "1,1")
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(capsys, "eval", "--n", "2", "--comp", "-1")
    assert (code, out.strip()) == (0, "2/3")
    # the bytes json.dumps writes, for a fraction, a negative and an integer
    for comp, n, line in (("1", 3, '{"value": "23/15"}\n'),
                          ("1,-2", 5, '{"value": "-20354/297675"}\n'),
                          ("1", 1, '{"value": "1"}\n')):
        code, out, err = run(capsys, "eval", "--n", str(n), "--comp", comp, "--format", "json")
        assert (code, out, err) == (0, line, "")
        assert json.loads(out) == {"value": str(harmonic_sum(STRICT_ODD, n, comp))}


def test_eval_output_reparses(capsys):
    for comp in ("1", "2,1", "1,1,2"):
        _, out, _ = run(capsys, "eval", "--n", "6", "--comp", comp)
        value = Fraction(out.strip())
        assert str(value) == out.strip()


def test_eval_usage_errors(capsys):
    code, _, err = run(capsys, "eval", "--n", "3", "--comp", "1,x")
    assert code == 2 and "composition" in err
    code, _, err = run(capsys, "eval", "--n", "2", "--comp", "1,1,1")
    assert code == 2
    code, _, err = run(capsys, "eval", "--n", "4", "--standard", "--comp", "1,-2")
    assert code == 2


def test_values_past_the_int_digit_limit(capsys):
    # Both outputs run past the interpreter's default 4300-digit limit on
    # int-to-decimal conversion; the CLI lifts it for the call only.
    limit = sys.get_int_max_str_digits()
    ones = (1,) * 12
    code, value_out, _ = run(capsys, "eval", "--n", "1000", "--comp", "6")
    assert code == 0
    code, cert_out, _ = run(capsys, "verify", "--n", "400",
                            "--comp", ",".join(map(str, ones)))
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    doc = json.loads(cert_out)
    assert doc["kind"] == "DepthBound"
    assert len(doc["bound"]) > 4300
    sys.set_int_max_str_digits(0)  # to parse the outputs back
    try:
        assert Fraction(value_out.strip()) == harmonic_sum(STRICT_ODD, 1000, (6,))
        assert Fraction(doc["bound"]) == verify_odd_noninteger(400, ones).bound
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_trivial_exception(capsys):
    code, out, _ = run(capsys, "verify", "--odd", "--n", "1", "--comp", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "TrivialInteger" and doc["rule_index"] == 0


def test_verify_window_case(capsys):
    code, out, _ = run(capsys, "verify", "--odd", "--n", "12", "--comp", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "WindowValuation"
    assert doc["prime"] == 11 and doc["valuation"] == -1


def test_verify_star(capsys):
    code, out, _ = run(capsys, "verify", "--star", "--n", "2", "--comp", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "StarValuation" and doc["valuation"] == -2


# `verify --format plain` writes one line from the certificate's fields,
# apart from the JSON writer: a window and a star valuation, and a depth
# bound with its bound.
VERIFY_PLAIN = [
    (("--n", "12", "--comp", "1,1"),
     "WindowValuation n=12 comp=1,1 prime=11 valuation=-1 bound=None"),
    (("--n", "8", "--comp", "1,1,1,1,1,1,1,1"),
     "DepthBound n=8 comp=1,1,1,1,1,1,1,1 prime=None valuation=None "
     "bound=36971666162404353154041181039505702912/5339287220427077485151957233061373046875"),
    (("--n", "12", "--comp", "1,1", "--star"),
     "StarValuation n=12 comp=1,1 prime=23 valuation=-2 bound=None"),
]


@pytest.mark.parametrize("argv, line", VERIFY_PLAIN, ids=["window", "depth", "star"])
def test_verify_plain_line(capsys, argv, line):
    assert run(capsys, "verify", *argv, "--format", "plain") == (0, line + "\n", "")


def test_verify_rejects_standard(capsys):
    assert run(capsys, "verify", "--standard", "--n", "3", "--comp", "1") == (
        2, "", "error: verify covers odd sums only; drop --standard\n")


@pytest.mark.parametrize("family", ["--strict", "--star"])
def test_sweep_rejects_standard(capsys, family):
    # the cascade certifies odd sums only; --standard must not pass for them
    code, out, err = run(capsys, "sweep", "--n-max", "4", "--weight-max", "2",
                         "--standard", family)
    assert (code, out) == (2, "")
    assert err == "error: sweep covers odd sums only; drop --standard\n"


def test_sweep_deterministic_and_sound(capsys):
    args = ("sweep", "--n-min", "2", "--n-max", "5", "--weight-max", "4")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    docs = [json.loads(line) for line in lines]
    assert all(d["kind"] != "TrivialInteger" for d in docs)
    # graded-lex over compositions within each n
    first_n2 = [d["composition"] for d in docs if d["n"] == 2]
    assert first_n2[:4] == ["1", "2", "1,1", "3"]


EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
# The benchmark's sweep grid, n = 2..40 at weight <= 8: 9,423 lines per family.
BENCH_GRID = ("--n-max", "40", "--weight-max", "8")
BENCH_GRID_SHA256 = {
    "--strict": "6bb292a0cc626b4e5314c134444627d6280ca433a3fbcdf2835bf0485d51b232",
    "--star": "ee2b3dceeb819c64cac75ba74f8df378bc00f2cecf45e0480e9acb8450b6ae25",
}


# SHA-256 and line count of the stdout of each sweep, recorded when every
# (n, composition) of a sweep was evaluated on its own.
PINNED_SWEEPS = [
    ("--strict", (), "4b6ec35239c95846e9bd88f1b42b28636f0c6d5eec4ef706f5973656cf63a8cb", 621),
    ("--star", (), "6b287c65c89c0aaa969a94742a38ebd699bc439309238d621ef56a2373ee1ed5", 621),
    ("--strict", ("--n-min", "0"),
     "43029e2cfd3821d4efa06b7ac76376aa967a137503d37413d7753d23c565e791", 627),
    ("--strict", ("--n-min", "1"),
     "43029e2cfd3821d4efa06b7ac76376aa967a137503d37413d7753d23c565e791", 627),
    ("--star", ("--n-min", "0"),
     "331f91def02a314d1137a98041d1c68375190cc92ca7c036f3d16ab0cbc4477d", 627),
    ("--star", ("--n-min", "1"),
     "331f91def02a314d1137a98041d1c68375190cc92ca7c036f3d16ab0cbc4477d", 627),
    ("--strict", ("--n-min", "13"), EMPTY_SHA256, 0),
    ("--star", ("--n-min", "13"), EMPTY_SHA256, 0),
    ("--strict", ("--weight-max", "0"), EMPTY_SHA256, 0),
    ("--star", ("--weight-max", "0"), EMPTY_SHA256, 0),
    ("--strict", ("--depth-max", "3"),
     "ff49876a0ef25d0c348c038358d4e6778d7089b8813c327a037e3331f9e4fe94", 431),
    ("--star", ("--depth-max", "3"),
     "72e80f18f10cc44ed41f8d63c09770ea729ce2f7f8f148a40edd9a93777bb1cc", 431),
    # later flags win; here compositions reach past --n-max, and n below 1
    ("--strict", ("--n-min", "-3", "--n-max", "4", "--weight-max", "5"),
     "3f8b7a945eeabdfd2379df7505a6cbadc6dc47d8724af7bd63e2da139016f6f6", 75),
    ("--star", ("--n-min", "-3", "--n-max", "4", "--weight-max", "5"),
     "287fe443c7e947c4b5a5fef5128e0e420fbc3459d5b9f0aeb1a487bbdf643305", 75),
    # the benchmark's sweep grid; the strict one has 127 LargeS1Bound lines
    ("--strict", BENCH_GRID, BENCH_GRID_SHA256["--strict"], 9423),
    ("--star", BENCH_GRID, BENCH_GRID_SHA256["--star"], 9423),
]


@pytest.mark.parametrize("family, flags, digest, lines", PINNED_SWEEPS)
def test_sweep_output_digest(capsys, family, flags, digest, lines):
    code, out, err = run(capsys, "sweep", "--n-max", "12", "--weight-max", "6",
                         family, *flags)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The sweeps that CI pins at large n, n = 1990..2000 at weight <= 5, with
# their SHA-256: 341 lines each.  Strict rows are read off exact pairs (286
# WindowValuation and 55 StarValuation lines), star rows off residues.
LARGE_SWEEPS = [
    ("--strict", "629d8163b9fe221224bb48a3868dac2b700dda5a1a13207189ef60872db0faa2"),
    ("--star", "9cf0ad2e7a74ccff872988a832db0985260f3a559b1b920eebb4d71c9a8912b5"),
]


@pytest.mark.parametrize("family, digest", LARGE_SWEEPS)
def test_large_n_sweep_digest(capsys, family, digest):
    code, out, err = run(capsys, "sweep", "--n-min", "1990", "--n-max", "2000",
                         "--weight-max", "5", family)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 341
    assert hashlib.sha256(out.encode()).hexdigest() == digest


VERIFIERS = {"--strict": verify_odd_noninteger, "--star": verify_star_noninteger}


def _case(line):
    doc = json.loads(line)
    return doc["n"], tuple(int(t) for t in doc["composition"].split(","))


def test_sweep_lines_are_the_json_of_their_certificates(capsys):
    # every line of every pinned sweep is what json.dumps makes of the
    # to_json of the single-case certificate
    for family, flags, digest, lines in PINNED_SWEEPS:
        code, out, _ = run(capsys, "sweep", "--n-max", "12", "--weight-max", "6",
                           family, *flags)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
        assert len(out.splitlines()) == lines
        for line in out.splitlines():
            cert = VERIFIERS[family](*_case(line))
            assert line == json.dumps(cert.to_json()), (family, flags, line)


@pytest.mark.parametrize("family", ["--strict", "--star"])
def test_sweep_and_verify_run_one_cascade(capsys, family):
    # over the benchmark grid, each sweep line is the certificate that
    # verify_* issues for its case
    code, out, err = run(capsys, "sweep", *BENCH_GRID, family)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 9423
    verifier = VERIFIERS[family]
    for line in lines:
        n, comp = _case(line)
        assert json.loads(line) == verifier(n, comp).to_json(), line


@pytest.mark.parametrize("family", ["--strict", "--star"])
def test_sweep_checks_no_case_it_built(capsys, monkeypatch, family):
    # sweep built its compositions itself, so no row re-checks its case
    def refuse(*args):
        raise AssertionError("sweep re-checked a case")

    monkeypatch.setattr("oddharmonic.certificates._verify", refuse)
    for _, flags, digest, lines in [s for s in PINNED_SWEEPS if s[0] == family]:
        code, out, err = run(capsys, "sweep", "--n-max", "12", "--weight-max", "6",
                             family, *flags)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("family", ["--strict", "--star"])
def test_sweep_builds_no_fraction_per_row(capsys, monkeypatch, family):
    # each row's certificate reads the fold's unreduced pair
    def refuse(*args):
        raise AssertionError("sweep reduced a row to a Fraction")

    monkeypatch.setattr("oddharmonic.cli.harmonic_sum_prefixes", refuse)
    code, out, err = run(capsys, "sweep", *BENCH_GRID, family)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BENCH_GRID_SHA256[family]


@pytest.mark.parametrize("family", ["--strict", "--star"])
def test_sweep_split_over_warm_caches_matches_one_call(capsys, family):
    # the benchmark cuts each family's n-range into calls in one process;
    # the prime and threshold caches they leave warm must not change a line
    for cuts in ((3, 17, 30), (12, 13, 40), (5,), (39, 40)):
        bounds = (2,) + cuts + (41,)
        out = "".join(run(capsys, "sweep", "--n-min", str(lo), "--n-max", str(hi - 1),
                          "--weight-max", "8", family)[1]
                      for lo, hi in zip(bounds, bounds[1:]))
        assert hashlib.sha256(out.encode()).hexdigest() == BENCH_GRID_SHA256[family], cuts
    # a float is still refused by the prime lookups, cached or not, not truncated
    with pytest.raises(TypeError):
        primes.bertrand_prime(7.0)
    with pytest.raises(TypeError):
        primes.window_prime(7.0, 2)
    assert (primes.bertrand_prime(7), primes.window_prime(7, 2)) == (13, 5)


def test_sweep_refuses_a_grid_over_its_memory_budget(capsys, monkeypatch):
    # the estimate takes integers only: nothing is enumerated, no trie is
    # built and nothing is folded
    def refuse(*args):
        raise AssertionError("sweep built its grid")

    for name in ("compositions", "PrefixTrie", "_fold"):
        monkeypatch.setattr(f"oddharmonic.cli.{name}", refuse)
    for family in ("--strict", "--star"):
        code, out, err = run(capsys, "sweep", "--n-max", "2000", "--weight-max", "20", family)
        assert (code, out) == (2, "")
        assert err.startswith("error: sweep would hold about") and "MiB" in err, err
    code, _, err = run(capsys, "sweep", "--n-max", "40", "--weight-max", "20",
                       "--depth-max", "19", "--star")
    assert code == 2 and "--weight-max" in err


def _trie_state_bits(star, n_max, weight_max, depth_max):
    """Bits of every integer the sweep's tries hold at n_max, folded as the
    sweep folds them (star tries modulo the product of the Bertrand primes
    of n = 2..n_max), the number of their nodes and the number of rows."""
    spec = STAR_ODD if star else STRICT_ODD
    tries, rows = cli._sweep_grid(spec, 1, weight_max, min(depth_max, n_max))
    modulus = math.prod({primes.bertrand_prime(n) for n in range(2, n_max + 1)}) if star else None
    bits = 0
    for trie in tries:
        *_, (v, den) = _fold(spec, trie, range(n_max), 0, modulus)
        bits += sum(x.bit_length() for x in v) + (den.bit_length() if star else 0)
    return bits, sum(len(trie.parents) for trie in tries), len(rows)


def test_sweep_memory_estimate():
    # closed-form bit count against the bit lengths of 1, 3, ..., 2n-1
    for n in range(1, 300):
        assert cli._odd_product_bits(n) == sum(k.bit_length() for k in range(1, 2 * n, 2))
    # each count the estimate prices, against the tries: the compositions
    # exactly; the nodes exactly for star sums, whose tries (one per
    # weight) also hold a denominator, and from above for strict ones; the
    # bits from above, loosely for star sums, whose bound on M is loose at
    # small n and half of whose nodes hold 0
    for star, node_slack, bit_slack in ((False, 1.75, 3.5), (True, 1, 7.5)):
        for n_max, weight_max, depth_max in ((12, 6, 6), (14, 6, 3), (40, 8, 8), (30, 9, 4),
                                             (2, 4, 4), (3, 6, 6), (60, 7, 2), (200, 5, 5)):
            bits, nodes, comps = _trie_state_bits(star, n_max, weight_max, depth_max)
            nodes += weight_max * star
            counted = cli._sweep_state(2, n_max, weight_max, depth_max, star)
            assert counted[2] == comps, (star, n_max, weight_max)
            assert nodes <= counted[1] <= nodes * node_slack, (star, n_max, weight_max)
            assert bits <= counted[0] <= bits * bit_slack, (star, n_max, weight_max)
    # the trie node counts of the benchmark grid, against 1,024 fold levels
    assert [_trie_state_bits(star, 40, 8, 8)[1] - 8 for star in (False, True)] == [305, 502]
    # the benchmark grid and every grid the tests sweep fit with room to spare
    for star in (False, True):
        for grid in ((2, 40, 8, 8), (2, 12, 6, 6), (-3, 4, 5, 5), (1, 14, 6, 6),
                     (1990, 2000, 5, 5)):
            assert cli._sweep_state_bytes(*grid, star) < cli.SWEEP_STATE_LIMIT_BYTES // 100
        assert cli._sweep_state_bytes(13, 12, 6, 6, star) == 0
        assert cli._sweep_state_bytes(2, 12, 0, 0, star) == 0
    # star tries hold residues below the product of their primes, so a star
    # grid fits where its exact integers would not
    assert cli._sweep_state_bytes(2, 1000, 14, 14, True) < cli.SWEEP_STATE_LIMIT_BYTES // 4


@pytest.mark.parametrize("family", ["--strict", "--star"])
def test_sweep_memory_estimate_bounds_the_footprint(family):
    # the peak that tracemalloc sees during a sweep whose lines go to
    # os.devnull, against the estimate; a first run warms the caches that
    # outlive the call
    for n_min, n_max, weight_max in ((2, 40, 8), (2, 300, 6)):
        argv = ["sweep", "--n-min", str(n_min), "--n-max", str(n_max),
                "--weight-max", str(weight_max), family]
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            assert main(argv) == 0
            gc.collect()
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        estimate = cli._sweep_state_bytes(n_min, n_max, weight_max, weight_max,
                                          family == "--star")
        assert peak <= estimate <= 2.5 * peak, (n_max, peak, estimate)


def _star_sweeps():
    """The parsed arguments of every pinned star sweep."""
    for family, flags, _, _ in PINNED_SWEEPS:
        if family == "--star":
            yield cli._build_parser().parse_args(
                ["sweep", "--n-max", "12", "--weight-max", "6", family, *flags])


def test_star_residues_read_as_the_exact_pairs():
    # at every star row of the pinned grids, the node's residue modulo the
    # product of the grid's Bertrand primes, read as known modulo p**1,
    # gives the valuation its exact pair gives: at the row's own prime,
    # and at 3, where e exceeds 1, so a zero residue is folded again
    checked, refolded = 0, 0
    for args in _star_sweeps():
        n_lo, depth_max = max(args.n_min, 1), args.depth_max or args.weight_max
        tries, rows = cli._sweep_grid(STAR_ODD, n_lo, args.weight_max,
                                      min(depth_max, args.n_max))
        points = [_Point(STAR_ODD, n) for n in range(n_lo, args.n_max + 1)]
        modulus = math.prod({point.bertrand for point in points} - {None})
        exact = [_fold(STAR_ODD, trie, range(args.n_max), n_lo - 1) for trie in tries]
        residues = [_fold(STAR_ODD, trie, range(args.n_max), n_lo - 1, modulus)
                    for trie in tries]
        for point in points:
            pairs = {trie: next(fold) for trie, fold in zip(tries, exact)}
            held = {trie: next(fold) for trie, fold in zip(tries, residues)}
            if point.bertrand is None:
                continue
            for comp, start, trie, node in rows:
                if point.n < start:
                    continue
                (v, den), (x, held_den) = pairs[trie], held[trie]
                for p in {point.bertrand, 3} if modulus % 3 == 0 else {point.bertrand}:
                    assert x[node] % p == v[node] % p
                    want = point.valuation(comp, p, (v[node], den))
                    assert point.valuation(comp, p, (x[node], held_den), 1) == want, (point.n, comp)
                    checked += 1
                    refolded += p == 3 and x[node] % 3 == 0
    assert (checked, refolded) == (23_439, 10_970)


@pytest.mark.parametrize("family", ["--strict", "--star"])
def test_sweep_folds_star_tries_only_modulo_their_primes(capsys, monkeypatch, family):
    # star tries are folded modulo the product of the Bertrand primes of
    # n = 2..40, strict tries exactly
    moduli = []

    def spy(spec, trie, indices, skip, modulus=None):
        moduli.append((spec.star, modulus))
        return _fold(spec, trie, indices, skip, modulus)

    monkeypatch.setattr("oddharmonic.cli._fold", spy)
    code, out, err = run(capsys, "sweep", *BENCH_GRID, family)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BENCH_GRID_SHA256[family]
    star = family == "--star"
    product = math.prod({primes.bertrand_prime(n) for n in range(2, 41)}) if star else None
    assert moduli and set(moduli) == {(star, product)}


# A rule-1 fault injected at one n, the wrong prime 5 in place of 23 at
# n = 12, and what the exact reading made of it: three star rows fail the
# law, each after its zero residue modulo 5 is folded again modulo 5**e.
FAULT_STDERR = """\
FAIL n=12 comp=2: valuation law failed: v_5 of star sum at n=12, comp=2 is -1, expected -2
FAIL n=12 comp=1,1,1: valuation law failed: v_5 of star sum at n=12, comp=1,1,1 is -1, expected -3
FAIL n=12 comp=1,3: valuation law failed: v_5 of star sum at n=12, comp=1,3 is -3, expected -4
"""
FAULT_SHA256 = "d0fd16a98ee53a72c6f6c466100a7c45ba4e3a48062cd08c865c75a532e35f56"


def test_star_rule_one_fault_is_reported_exactly(capsys, monkeypatch):
    bertrand = primes.bertrand_prime
    monkeypatch.setattr("oddharmonic.primes.bertrand_prime",
                        lambda n: 5 if n == 12 else bertrand(n))
    refolds = []

    def spy(spec, trie, indices, skip, modulus=None):
        refolds.append((len(indices), tuple(trie.entries[1:]), modulus))
        return _fold(spec, trie, indices, skip, modulus)

    monkeypatch.setattr("oddharmonic.certificates._fold", spy)
    code, out, err = run(capsys, "sweep", "--n-max", "12", "--weight-max", "4", "--star")
    assert (code, err) == (1, FAULT_STDERR)
    assert len(out.splitlines()) == 156
    assert hashlib.sha256(out.encode()).hexdigest() == FAULT_SHA256
    # a row folds its chain again, once, modulo 5**e with e = 2 * weight,
    # exactly when its numerator is 0 modulo 5: here, every row at n = 12
    zeros = [(12, comp, 5 ** (2 * sum(comp))) for comp in compositions(4)
             if next(harmonic_sum_pairs(STAR_ODD, comp, 12, 12))[0] % 5 == 0]
    assert sorted(refolds) == sorted(zeros)
    # a prime above 2n leaves nothing negative to read
    monkeypatch.setattr("oddharmonic.primes.bertrand_prime",
                        lambda n: 29 if n == 12 else bertrand(n))
    code, _, err = run(capsys, "sweep", "--n-max", "12", "--weight-max", "1", "--star")
    assert (code, err) == (1, "FAIL n=12 comp=1: valuation law failed: v_29 of star sum "
                              "at n=12, comp=1 is not negative, expected -1\n")


def test_main_builds_one_parser(capsys):
    # two calls share one parser; parsing leaves it as a fresh one is, so
    # usage, help and error output stay the same
    cli._build_parser.cache_clear()
    argv, line = VERIFY_PLAIN[0]
    for _ in range(2):
        assert run(capsys, "verify", *argv, "--format", "plain") == (0, line + "\n", "")
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    fresh = cli._build_parser.__wrapped__()
    for argv in ([], ["--help"], ["sweep", "--help"], ["sweep", "--n-max", "x"],
                 ["verify", "--star", "--strict", "--n", "2", "--comp", "1"], ["bounds", "-x"]):
        seen = []
        for parser in (fresh, cli._build_parser(), cli._build_parser()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            seen.append((exc.value.code, *capsys.readouterr()))
        assert seen[0] == seen[1] == seen[2], argv
        assert seen[0][0] in (0, 2) and seen[0][1 if argv[-1:] == ["--help"] else 2]


@pytest.mark.parametrize("family, verifier", [("--strict", verify_odd_noninteger),
                                              ("--star", verify_star_noninteger)])
def test_sweep_matches_verify_without_value(capsys, family, verifier):
    # the sweep hands each certificate its value; verify evaluates its own
    code, out, _ = run(capsys, "sweep", "--n-min", "1", "--n-max", "14",
                       "--weight-max", "6", family)
    assert code == 0
    expected = [json.dumps(verifier(n, comp).to_json())
                for n in range(1, 15) for comp in compositions(6) if len(comp) <= n]
    assert out.splitlines() == expected


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "nr", "--r-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,max_nonmember,n_r"
    assert lines[2] == "2,22,12"


def test_table_latex(capsys):
    code, out, _ = run(capsys, "table", "nr", "--r-max", "12", "--format", "latex")
    assert code == 0
    assert out.startswith(r"\begin{tabular}")
    assert "$n_r$ & 2 & 12 & 17 & 59" in out
    assert out.strip().endswith(r"\end{tabular}")


def test_bounds_quick(capsys):
    code, out, _ = run(capsys, "bounds")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,composition,threshold,ok,value"
    assert all(line.split(",")[3] == "True" for line in lines[1:])
    assert any(line.startswith("12,1 2,") for line in lines)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cd3f83c1650ee1445f31d66f320e93fd215f220e4ad633891a7ecaf637d931f6")
    # every tabulated threshold is checked; there is no depth flag to cut them
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--ones-max", "5"])
    assert exc.value.code == 2


BOUNDS_PLAIN = """\
odd sum n=12 comp=1,2 < 27273/100000: OK
odd sum n=17 comp=1,2,1 < 2777/12500: OK
odd sum n=17 comp=1,1,2 < 1069/12500: OK
odd sum n=59 comp=1,2,1,1 < 28433/100000: OK
odd sum n=59 comp=1,1,2,1 < 2613/25000: OK
odd sum n=59 comp=1,1,1,2 < 203/5000: OK
odd sum n=73 comp=1,1,1,1,1 < 42721/50000: OK
odd sum n=112 comp=1,1,1,1,1,1 < 2073/4000: OK
odd sum n=130 comp=1,1,1,1,1,1,1 < 507/2500: OK
odd sum n=213 comp=1,1,1,1,1,1,1,1 < 2567/20000: OK
odd sum n=572 comp=1,1,1,1,1,1,1,1,1 < 4449/25000: OK
odd sum n=636 comp=1,1,1,1,1,1,1,1,1,1 < 6243/100000: OK
"""


def test_bounds_plain(capsys):
    assert run(capsys, "bounds", "--format", "plain") == (0, BOUNDS_PLAIN, "")


def _reference_sides(name, n, s, m, x, sign):
    """Both sides of one identity row at n, from `pfq` and direct sums."""
    n = int(n)
    half, threehalf = Fraction(1, 2), Fraction(3, 2)
    if name in ("powersum", "alt-powersum"):
        s = int(s)
        y = (-1 if name == "alt-powersum" else 1) * Fraction(x) ** 2
        return (sum((y ** k / (2 * k + 1) ** s for k in range(n)), Fraction(0)),
                alternating_reference(n, lambda k: hyper.pfq((half,) * s + (1 - k,),
                                                             (threehalf,) * s, y)))
    if name in ("depth1", "depth1-standard"):
        s, sign = int(s), int(sign)
        spec, a = (STRICT_ODD, half) if name == "depth1" else (STRICT_STANDARD, Fraction(1))
        return (alternating_reference(n, lambda k: hyper.pfq((a,) * s + (1 - k,),
                                                             (a + 1,) * s, sign)),
                harmonic_sum(spec, n, (sign * s,)))
    if name == "closed-form":
        return hyper.odd_harmonic_closed_form(n), harmonic_sum(STRICT_ODD, n, (1,))
    if name == "euler":
        return hyper.euler_binomial_harmonic(n), harmonic_sum(STRICT_STANDARD, n, (1,))
    if name == "blocks":
        m = int(m)
        return (alternating_reference(n, lambda k: hyper.pfq((1, 1 - k), (m + k,), -1)
                                      / (math.factorial(m - 1) * (m + k - 1))),
                block_sum(m, n))
    if name == "blocks-depth1":
        return block_sum(1, n), harmonic_sum(STRICT_ODD, n, (1,))
    raise AssertionError(f"no reference for {name}")


def test_identity_check_suites_small(capsys):
    xs = ("0", "-2/3", "5/4", "1")
    grids = {  # suite: (flags, expected row count)
        "powersum": (("--n-max", "7", "--s-max", "3", "--x-list", ",".join(xs)), 7 * 3 * 4),
        "alt-powersum": (("--n-max", "7", "--s-max", "3", "--x-list", ",".join(xs)),
                         7 * 3 * 4),
        "depth1": (("--n-max", "9", "--s-max", "3"), 9 * 3 * 2 * 2 + 50 * 2),
        "blocks": (("--n-max", "9", "--m-max", "4"), 9 * 4 + 9),
        "chu": (("--n-max", "4", "--count", "6"), 6 * 5),
        "inversion": (("--n-max", "5", "--m-max", "2", "--s-max", "2"),
                      2 * 2 * 5 + 2 * 5 + 8),
    }
    for suite, (extra, count) in grids.items():
        code, out, _ = run(capsys, "identity-check", suite, *extra)
        assert code == 0, suite
        lines = out.strip().splitlines()
        assert lines[0] == "suite,n,s,m,x,sign,lhs,rhs,equal"
        assert len(lines) == 1 + count, suite
        assert all(line.endswith("True") for line in lines[1:]), suite
        if suite in ("chu", "inversion"):
            continue
        # each row at n is the prefix of its series group at n
        rows = [line.split(",") for line in lines[1:]]
        for name, n, s, m, x, sign, lhs, rhs, _ in rows:
            assert ((Fraction(lhs), Fraction(rhs))
                    == _reference_sides(name, n, s, m, x, sign)), (name, n, s, m, x, sign)
        if suite.endswith("powersum"):
            assert {(n, s, x) for _, n, s, _, x, *_ in rows} == {
                (str(n), str(s), x) for n in range(1, 8) for s in (1, 2, 3) for x in xs}


# SHA-256 of the stdout of `identity-check all`, recorded when every
# binomial combination was summed one Fraction at a time; 2,334 lines
# with the header.  The seed moves only the chu and inversion-roundtrip rows.
@pytest.mark.parametrize("seed, digest", [
    ("0", "0a29f4a2c80cec29019959a89e9455f1dd87fb2dad66235208d718bc230102f3"),
    ("41", "cf6c926188f9b9c7dc281d238af2783ca1c14e9a711df69a436c0afc85ff6b99"),
])
def test_identity_output_digest(capsys, seed, digest):
    code, out, err = run(capsys, "identity-check", "all", "--seed", seed)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2334
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_inversion_grid_digest(capsys):
    # recorded when each inversion row was its own binomial sum over f(1..n)
    code, out, err = run(capsys, "identity-check", "inversion", "--n-max", "60",
                         "--s-max", "4", "--m-max", "6")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 849
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "80fb1764c40224ac71eed80854f956641082f15f2fffa2c15ea0725801c4e865")


def test_identity_check_evaluates_each_series_once(capsys, monkeypatch):
    # one series value per (group, n) of the suites, none for the direct
    # sides; pfq sets up its own series only where the lower parameter
    # moves with n (the blocks and inversion-blocks rows, 8 * 30 + 5 * 15)
    values, pfqs = [], []
    value, pfq = hyper._Series.value, hyper.pfq
    monkeypatch.setattr(hyper._Series, "value",
                        lambda self, k: values.append(k) or value(self, k))
    monkeypatch.setattr(hyper, "pfq", lambda *args: pfqs.append(args) or pfq(*args))
    code, _, _ = run(capsys, "identity-check", "all", "--seed", "0")
    assert code == 0
    assert (len(values), len(pfqs)) == (2195, 315)


def test_identity_check_rejects_counts_below_one(capsys):
    for flag in ("--n-max", "--s-max", "--m-max", "--count"):
        for value in ("0", "-1"):
            code, out, err = run(capsys, "identity-check", "all", flag, value)
            assert code == 2, (flag, value)
            assert out == ""
            assert err.startswith("error:") and flag in err, err
    code, out, _ = run(capsys, "identity-check", "chu", "--n-max", "1", "--count", "1")
    assert code == 0 and len(out.strip().splitlines()) == 1 + 2


def test_identity_check_rejects_zero_denominator_x(capsys):
    for x_list in ("1/0", "1,2/0", "0/0"):
        code, out, err = run(capsys, "identity-check", "powersum", "--x-list", x_list)
        assert code == 2, x_list
        assert out == ""
        assert err.startswith("error:") and "zero denominator" in err, err
    for x_list, entry in (("1,x", "x"), (",1", ""), ("1,", ""), ("1, 2/3/4", "2/3/4"),
                          ("1.5e", "1.5e")):
        code, out, err = run(capsys, "identity-check", "powersum", "--x-list", x_list)
        assert (code, out) == (2, ""), x_list
        assert err == f"error: --x-list entry {entry!r} is not a rational\n", err


def test_identity_check_depth1_small(capsys):
    code, out, _ = run(capsys, "identity-check", "depth1", "--n-max", "4", "--s-max", "2")
    assert code == 0
    assert all(line.endswith("True") for line in out.strip().splitlines()[1:])


def test_identity_check_inversion_s_max_is_not_capped(capsys):
    code, out, _ = run(capsys, "identity-check", "inversion", "--s-max", "5")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(row[-1] == "True" for row in rows)
    assert {row[2] for row in rows if row[0] == "inversion"} == {"1", "2", "3", "4", "5"}
