"""Certificate engine: rule routing, soundness, and the bound tables."""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, starmap
from pathlib import Path

import pytest

from oddharmonic.certificates import (
    DEPTH_BOUND,
    DIRECT_NON_INTEGER,
    LARGE_S1_BOUND,
    MAGNITUDE_BOUND,
    STAR_VALUATION,
    TRIVIAL_INTEGER,
    WINDOW_VALUATION,
    Certificate,
    _Point,
    _tail_pairs,
    decimal_bound_checks,
    depth_threshold_holds,
    leading_exponent_bound,
    verify_odd_noninteger,
    verify_star_noninteger,
)
from oddharmonic.exact import int_valuation
from oddharmonic.primes import bertrand_prime, window_prime
from oddharmonic.sums import (
    STAR_ODD,
    STRICT_ODD,
    Composition,
    PrefixTrie,
    _den_valuation,
    compositions,
    harmonic_sum,
    harmonic_sum_pairs,
)
from reference import read_valuation, valuation

F = Fraction


# -- star certificates --------------------------------------------------------

def test_star_certificate_examples():
    cert = verify_star_noninteger(2, (1, 1))
    assert cert.kind == STAR_VALUATION
    assert (cert.prime, cert.valuation) == (3, -2)
    assert harmonic_sum(STAR_ODD, 2, (1, 1)) == F(13, 9)

    cert = verify_star_noninteger(2, (1,))
    assert (cert.prime, cert.valuation) == (3, -1)

    cert = verify_star_noninteger(1, (5,))
    assert cert.kind == TRIVIAL_INTEGER
    assert harmonic_sum(STAR_ODD, 1, (5,)) == 1


def test_star_valuation_is_minus_weight():
    # repetition makes the all-equal tuple the unique minimal term
    for n in range(2, 25):
        for comp in ((1,), (2,), (1, 1), (2, 3), (1, 1, 1)):
            if len(comp) > n:
                continue
            cert = verify_star_noninteger(n, comp)
            assert cert.valuation == -sum(comp)


def test_star_rejects_alternating():
    with pytest.raises(ValueError):
        verify_star_noninteger(3, (1, -1))


def test_non_integral_n_gets_no_certificate():
    with pytest.raises((TypeError, ValueError)):
        verify_odd_noninteger(7.5, (1, 2))
    with pytest.raises((TypeError, ValueError)):
        verify_star_noninteger(7.5, (1, 2))
    assert verify_odd_noninteger(7, (1, 2)).n == 7


# -- window valuations --------------------------------------------------------

def test_window_valuation_is_negative_but_not_weight():
    # a window prime divides only ceil(r/2) odd numbers below 2n, so the
    # valuation is negative yet exceeds -weight at depth >= 2
    assert window_prime(12, 2) == 11
    assert read_valuation(STRICT_ODD, 12, (1, 1), 11) == -1
    assert read_valuation(STRICT_ODD, 12, (2, 3), 11) == -2
    assert window_prime(2, 1) == 3
    assert read_valuation(STRICT_ODD, 2, (1,), 3) == -1  # depth 1: exactly -weight


def test_window_prime_can_fail_to_certify():
    # cancellation mod p can lift the valuation to zero or above; no
    # negative valuation is returned, and the sum is still a non-integer
    # by other primes
    known = [
        (26, 2, (1, 1), 23, 2),
        (10, 3, (1, 1, 1), 5, 0),
        (14, 3, (1, 1, 1), 7, 1),
        (7, 2, (2, 1), 5, 0),
    ]
    for n, r, comp, p, v in known:
        assert window_prime(n, r) == p
        assert valuation(harmonic_sum(STRICT_ODD, n, comp), p) == v
        assert read_valuation(STRICT_ODD, n, comp, p) is None
        assert harmonic_sum(STRICT_ODD, n, comp).denominator > 1
        assert verify_odd_noninteger(n, comp).kind != TRIVIAL_INTEGER


def test_window_valuation_negative_or_fallthrough_across_grid():
    for r in (2, 3):
        for n in range(r, 60):
            p = window_prime(n, r)
            if p is None:
                continue
            for comp in ((1,) * r, (2,) + (1,) * (r - 1), (1,) * (r - 1) + (3,)):
                v = read_valuation(STRICT_ODD, n, comp, p)
                if v is None:
                    # window prime useless here; the cascade still certifies
                    cert = verify_odd_noninteger(n, comp)
                    assert cert.kind != TRIVIAL_INTEGER
                    continue
                # p*p > 2n and only ceil(r/2) odd multiples of p lie below
                # 2n, so at most the ceil(r/2) largest entries carry p
                assert 0 > v >= -sum(sorted(comp)[r // 2:])


def test_rules_1_and_3_at_large_n():
    # pinned from the exact values, which take seconds each to evaluate;
    # rules 1 and 3 now take the valuation modulo a power of the prime
    cert = verify_odd_noninteger(20000, (1, 2, 1, 3))
    assert (cert.kind, cert.prime, cert.valuation) == (WINDOW_VALUATION, 9973, -4)
    cert = verify_star_noninteger(20000, (2, 1, 1))
    assert (cert.kind, cert.prime, cert.valuation) == (STAR_VALUATION, 39989, -4)


# -- depth threshold ----------------------------------------------------------

def test_depth_threshold():
    assert not depth_threshold_holds(2, 2)
    assert not depth_threshold_holds(30000, 17)
    assert depth_threshold_holds(30000, 18)
    assert depth_threshold_holds(100, 15)
    with pytest.raises(ValueError):
        depth_threshold_holds(2, 5)


# n_r for each depth r: the largest n at which the depth rule holds, as the
# earlier interval-arithmetic (mpmath, 96-bit) version of the rule decided it.
_DEPTH_CROSSOVERS = {
    6: 6, 7: 12, 8: 24, 9: 51, 10: 106, 11: 221, 12: 462, 13: 965, 14: 2013,
    15: 4202, 16: 8769, 17: 18302, 18: 38197, 19: 79720, 20: 166380,
    21: 347246, 22: 724725, 23: 1512549, 24: 3156789, 25: 6588425,
    26: 13750473, 27: 28698133, 28: 59894876, 29: 125004514, 30: 260892575,
}


def test_depth_threshold_crossovers():
    for r, n_r in _DEPTH_CROSSOVERS.items():
        assert depth_threshold_holds(n_r, r), r
        assert not depth_threshold_holds(n_r + 1, r), r
    # the threshold grows with n, so failing at n = r means failing for all n
    for r in range(1, 6):
        assert not depth_threshold_holds(r, r), r


def test_import_leaves_mpmath_unloaded():
    # nor dataclasses, inspect or json, which no computation needs; a
    # certificate's dict still comes out, importing json only then
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, oddharmonic, oddharmonic.cli\n"
            "print(sorted({'mpmath', 'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n"
            "print(oddharmonic.verify_odd_noninteger(12, (1, 1)).to_json())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, doc = proc.stdout.splitlines()
    assert loaded == "[]"
    assert doc == str({"kind": "WindowValuation", "n": 12, "composition": "1,1", "prime": 11,
                       "valuation": -1, "bound": None, "rule_index": 3})


# -- tail coefficients and the leading-exponent bound ---------------------------

def _tail_coefficients(n, tail):
    """The reduced tail coefficients c[0..n-r] behind rule 5."""
    return tuple(starmap(F, _tail_pairs(n, tail)))


def _tail_coeff_brute(n, tail, k1):
    total = F(0)
    for tup in combinations(range(k1 + 1, n), len(tail)):
        den = 1
        for k, s in zip(tup, tail):
            den *= (2 * k + 1) ** s
        total += F(1, den)
    return total


def test_tail_coefficients_examples():
    assert _tail_coefficients(3, (1,)) == (F(8, 15), F(1, 5))
    assert _tail_coefficients(3, (2,)) == (F(34, 225), F(1, 25))
    # depth equals n: single coefficient
    assert _tail_coefficients(2, (1,)) == (F(1, 3),)


def test_tail_coefficients_against_bruteforce():
    for n in (4, 6, 9):
        for tail in ((1,), (2,), (1, 1), (2, 1), (1, 1, 1)):
            if len(tail) + 1 > n:
                continue
            tc = _tail_coefficients(n, tail)
            assert len(tc) == n - len(tail)
            for k1, c in enumerate(tc):
                assert c == _tail_coeff_brute(n, tail, k1)
                assert c > 0


def test_tail_coefficients_recompose_the_sum():
    for n in (5, 8):
        for comp in ((1, 2), (2, 1, 1), (3, 1)):
            tc = _tail_coefficients(n, comp[1:])
            total = sum(
                (c / F((2 * k + 1) ** comp[0]) for k, c in enumerate(tc)),
                F(0),
            )
            assert total == harmonic_sum(STRICT_ODD, n, comp)


def test_leading_exponent_bound_example():
    # n=3, tail (1): p=3, coefficients (8/15, 1/5); v_3(1/5)=0, v_3(8/15)=-1
    assert leading_exponent_bound(3, (1,)) == 1


def test_leading_exponent_bound_range_checks():
    with pytest.raises(ValueError):
        leading_exponent_bound(2, (1,))      # needs depth < n
    with pytest.raises(ValueError, match="need 2 <= depth"):
        leading_exponent_bound(2, (1, -1))   # the range error comes first
    with pytest.raises(ValueError, match="tail must be all-positive"):
        leading_exponent_bound(5, (1, -1))


def test_leading_exponent_bound_matches_reduced_valuations():
    # the bound takes v_p on unreduced (numerator, denominator) pairs; a
    # reference on the reduced brute-force coefficients must agree; its
    # prime, the largest in (n-r+1, 2n-2r+2), comes from trial division
    for n in range(3, 15):
        for tail in compositions(4):
            r = len(tail) + 1
            if r >= n:
                continue
            p = max(q for q in range(n - r + 2, 2 * n - 2 * r + 2)
                    if all(q % d for d in range(2, q)))
            vals = [valuation(_tail_coeff_brute(n, tail, k1), p)
                    for k1 in range(n - r + 1)]
            v_ref = vals.pop((p - 1) // 2)
            assert leading_exponent_bound(n, tail) == max(v_ref, v_ref - min(vals)), (n, tail)


def test_large_first_exponent_forces_noninteger():
    # exact non-integrality for first exponents just above the bound
    for n in range(3, 21):
        for tail in [t for t in compositions(3) if len(t) + 1 <= min(n - 1, 4)]:
            bound = leading_exponent_bound(n, tail)
            for s1 in range(bound + 1, bound + 6):
                value = harmonic_sum(STRICT_ODD, n, (s1,) + tail)
                assert value.denominator > 1, (n, tail, s1)


# -- the cascade ----------------------------------------------------------------

def test_cascade_examples():
    assert verify_odd_noninteger(1, (5,)).kind == TRIVIAL_INTEGER
    assert verify_odd_noninteger(7, (3,)).kind == STAR_VALUATION

    cert = verify_odd_noninteger(5, (1, 1))
    assert cert.kind == DIRECT_NON_INTEGER          # no window at n=5, r=2

    cert = verify_odd_noninteger(12, (1, 1))
    assert cert.kind == WINDOW_VALUATION
    assert (cert.prime, cert.valuation) == (11, -1)

    cert = verify_odd_noninteger(10, (1, 7))        # window prime 7 exists
    assert cert.kind == WINDOW_VALUATION
    assert cert.prime == 7

    cert = verify_odd_noninteger(5, (1, 2))         # no window; dominates (1,2)
    assert cert.kind == MAGNITUDE_BOUND
    assert cert.bound < 1

    cert = verify_odd_noninteger(5, (3, 1))         # needs the exponent bound
    assert cert.kind == LARGE_S1_BOUND
    assert cert.bound == 1


def test_rule_5_looks_up_its_prime_once(monkeypatch):
    # the point finds the Bertrand prime of n, rule 5 that of n - r + 1,
    # which it both reads the tail valuations at and writes
    calls = []

    def counted(n):
        calls.append(n)
        return bertrand_prime(n)

    monkeypatch.setattr("oddharmonic.primes.bertrand_prime", counted)
    cert = verify_odd_noninteger(17, (2, 1, 1))
    assert (cert.kind, cert.prime) == (LARGE_S1_BOUND, bertrand_prime(15))
    assert calls == [17, 15]


def test_cascade_depth_rules():
    cert = verify_odd_noninteger(8, (1,) * 8)       # 8 >= e(log(15)/2+1) ~ 6.4
    assert cert.kind == DEPTH_BOUND
    assert cert.bound < 1


def _certify(spec, n, comp, pair):
    return Certificate(*_Point(spec, n).certify(Composition(comp), pair))


def _fold_pair(spec, n, comp):
    return next(harmonic_sum_pairs(spec, comp, n, n))


def test_given_value_is_what_each_rule_checks():
    # rule 1 reads its valuation off the fold's pair
    for verifier, spec in ((verify_star_noninteger, STAR_ODD),
                           (verify_odd_noninteger, STRICT_ODD)):
        num, den = _fold_pair(spec, 9, (2,))
        cert = _certify(spec, 9, (2,), (num, den))
        assert cert == verifier(9, (2,))
        with pytest.raises(RuntimeError, match="valuation law"):
            _certify(spec, 9, (2,), (num * cert.prime, den))
        # v_p of this value is 0: no negative valuation was found at all
        with pytest.raises(RuntimeError, match="is not negative, expected -2"):
            _certify(spec, 9, (2,), (num * cert.prime ** 2, den))
    # so does rule 3; at (2, 3) the numerator carries one 11 (e = 3), so
    # dividing it out moves the valuation from -2 to -3; at (1, 1), e = 1
    # and one more 11 in the numerator leaves nothing negative to read
    num, den = _fold_pair(STRICT_ODD, 12, (2, 3))
    cert = _certify(STRICT_ODD, 12, (2, 3), (num, den))
    assert cert == verify_odd_noninteger(12, (2, 3))
    assert (cert.kind, cert.prime, cert.valuation) == (WINDOW_VALUATION, 11, -2)
    cert = _certify(STRICT_ODD, 12, (2, 3), (num // 11, den))
    assert (cert.kind, cert.prime, cert.valuation) == (WINDOW_VALUATION, 11, -3)
    num, den = _fold_pair(STRICT_ODD, 12, (1, 1))
    assert _certify(STRICT_ODD, 12, (1, 1), (num, den)) == verify_odd_noninteger(12, (1, 1))
    assert _certify(STRICT_ODD, 12, (1, 1), (num * 11, den)).kind != WINDOW_VALUATION
    # and the final denominator check, after each of rules 2-6
    for n, comp in ((8, (1,) * 8), (12, (1, 1)), (5, (1, 2)), (5, (3, 1)), (5, (1, 1))):
        _, den = _fold_pair(STRICT_ODD, n, comp)
        with pytest.raises(RuntimeError, match="integer value 3 "):
            _certify(STRICT_ODD, n, comp, (3 * den, den))


def test_verify_takes_no_value():
    # the cascade reads only the fold's own pairs, which verify_* never has
    for verifier in (verify_odd_noninteger, verify_star_noninteger):
        for value in (Fraction(1, 3), 1, (1, 3)):
            with pytest.raises(TypeError):
                verifier(9, (2,), value=value)


def _grid_cases():
    """Both families over n <= 40, weight <= 8, with the fold's pairs."""
    for spec, verifier in ((STRICT_ODD, verify_odd_noninteger),
                           (STAR_ODD, verify_star_noninteger)):
        for comp in compositions(8):
            pairs = harmonic_sum_pairs(spec, comp, len(comp), 40)
            for n, pair in enumerate(pairs, start=len(comp)):
                yield verifier, n, comp, pair


def _valuation_from_both_integers(num, den, p):
    v = int_valuation(num, p) - int_valuation(den, p)
    return v if v < 0 else None


def test_given_pair_is_read_through_the_closed_form():
    # the fold's own pair has the closed-form denominator valuation e, so
    # its numerator modulo p**e gives what the two integer valuations give
    specs = {verify_odd_noninteger: STRICT_ODD, verify_star_noninteger: STAR_ODD}
    points, checked = {}, 0
    for verifier, n, comp, (num, den) in _grid_cases():
        spec, comp = specs[verifier], Composition(comp)
        point = points.get((spec, n))
        if point is None:
            point = points[spec, n] = _Point(spec, n)
        ps = {bertrand_prime(2 * n)}  # above 2n, so e = 0
        if n >= 2:
            ps.add(bertrand_prime(n))
        if not spec.star:
            ps.add(window_prime(n, comp.depth) or 3)
        if n % 7 == 0:
            ps.update((3, 5, 7))  # e up to 19 times the key
        for p in ps:
            assert int_valuation(den, p) == _den_valuation(spec, n, comp, p), (n, comp, p)
            assert (point.valuation(comp, p, (num, den))
                    == _valuation_from_both_integers(num, den, p)), (n, comp, p)
            checked += 1
    assert checked == 53_761


def test_fold_denominator_has_the_closed_form_valuation():
    # what the single reading relies on, out to n = 200 at weight <= 4: at
    # the Bertrand prime and at the window prime of every depth, which can
    # lie below n, where e exceeds the key
    checked = above_key = 0
    for spec in (STRICT_ODD, STAR_ODD):
        for comp in map(Composition, compositions(4)):
            pairs = harmonic_sum_pairs(spec, comp, max(2, comp.depth), 200)
            for n, (_, den) in enumerate(pairs, start=max(2, comp.depth)):
                ps = {bertrand_prime(n)} | {window_prime(n, r) for r in range(1, min(n, 4) + 1)}
                for p in ps - {None}:
                    e = _den_valuation(spec, n, comp, p)
                    assert int_valuation(den, p) == e, (spec, n, comp, p)
                    checked += 1
                    above_key += e > PrefixTrie.key_of(spec, comp)
    assert (checked, above_key) == (22_848, 11_070)


def test_given_value_needs_no_primality_test(monkeypatch):
    # the primes of rules 1 and 3 come from prime searches; the fold's pair
    # is read at them with integers, so is_prime is never asked again
    cases = [(verify_star_noninteger, STAR_ODD, 9, (2,)),
             (verify_odd_noninteger, STRICT_ODD, 9, (2,)),
             (verify_odd_noninteger, STRICT_ODD, 12, (1, 1)),
             (verify_odd_noninteger, STRICT_ODD, 40, (1, 2, 1))]
    expected = [verifier(n, comp) for verifier, _, n, comp in cases]
    assert [c.kind for c in expected] == [STAR_VALUATION] * 2 + [WINDOW_VALUATION] * 2
    pairs = [_fold_pair(spec, n, comp) for _, spec, n, comp in cases]
    # a point finds its Bertrand prime when made and its window prime with
    # its depth facts, both by prime searches; only then is is_prime refused
    points = [_Point(spec, n) for _, spec, n, _ in cases]
    for point, (_, _, _, comp) in zip(points, cases):
        if len(comp) > 1:
            point._depth(len(comp))

    def refuse(m):
        raise AssertionError(f"is_prime({m}) called")

    monkeypatch.setattr("oddharmonic.primes.is_prime", refuse)
    for point, (_, _, _, comp), pair, cert in zip(points, cases, pairs, expected):
        assert Certificate(*point.certify(Composition(comp), pair)) == cert


def test_cascade_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_odd_noninteger(3, (1, -1))
    with pytest.raises(ValueError):
        verify_odd_noninteger(2, (1, 1, 1))


def test_best_effort_labeling():
    # evidence-carrying rules (1-3) and the tabulated regime (n below the
    # window threshold for the depth) are not best-effort
    assert not verify_odd_noninteger(7, (3,)).best_effort
    assert not verify_odd_noninteger(12, (1, 1)).best_effort
    assert not verify_odd_noninteger(5, (1, 2)).best_effort
    assert not verify_odd_noninteger(5, (3, 1)).best_effort
    assert not verify_odd_noninteger(5, (1, 1)).best_effort
    # window prime exists at n=26 but certifies nothing; the direct
    # fallback is outside the tabulated regime, so it carries the label
    cert = verify_odd_noninteger(26, (1, 1))
    assert cert.kind == DIRECT_NON_INTEGER
    assert cert.best_effort
    assert cert.to_json()["best_effort"] is True


def test_certificate_json_shape():
    doc = verify_odd_noninteger(12, (1, 1)).to_json()
    assert doc == {
        "kind": "WindowValuation",
        "n": 12,
        "composition": "1,1",
        "prime": 11,
        "valuation": -1,
        "bound": None,
        "rule_index": 3,
    }
    doc = verify_odd_noninteger(5, (1, 2)).to_json()
    assert doc["kind"] == "MagnitudeBound"
    assert Fraction(doc["bound"]) < 1


def test_json_line_is_the_json_of_to_json():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the DepthBound's bound runs past 4300 digits
    try:
        certs = [verify_odd_noninteger(1, (5,)), verify_star_noninteger(1, (2,)),
                 verify_odd_noninteger(7, (3,)), verify_star_noninteger(9, (1, 2)),
                 verify_odd_noninteger(12, (1, 1)), verify_odd_noninteger(5, (1, 2)),
                 verify_odd_noninteger(5, (3, 1)), verify_odd_noninteger(5, (1, 1)),
                 verify_odd_noninteger(26, (1, 1)), verify_odd_noninteger(400, (1,) * 12),
                 Certificate(DIRECT_NON_INTEGER, 9, Composition((2, 1)), rule_index=6,
                             prime=7, valuation=-3, bound=Fraction(-5, 3), best_effort=True)]
        assert {c.kind for c in certs} == {
            TRIVIAL_INTEGER, STAR_VALUATION, WINDOW_VALUATION, DEPTH_BOUND,
            MAGNITUDE_BOUND, LARGE_S1_BOUND, DIRECT_NON_INTEGER}
        assert certs[8].best_effort and len(certs[9].json_line()) == 8348
        for cert in certs:
            assert cert.json_line() == json.dumps(cert.to_json()), cert.kind
    finally:
        sys.set_int_max_str_digits(limit)


def test_point_line_is_the_certificate_line():
    # a rule-4 line writes its bound's cached text, every other line the
    # fields' own; both must give the certificate's line
    kinds = {}
    for n in range(2, 17):
        point = _Point(STRICT_ODD, n)
        for comp in map(Composition, compositions(8, n)):
            cert = Certificate(*point.certify(comp))
            assert point.line(comp) == cert.json_line(), (n, comp)
            kinds.setdefault(cert.kind, set()).add(comp.depth)
    assert kinds[MAGNITUDE_BOUND] == {2, 3, 4, 5, 6, 7}


def test_certificate_is_a_frozen_value():
    # assignment refused, to a field or any other name; == and hash by
    # fields; pickles
    cert = verify_odd_noninteger(12, (1, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cert, "note", "x")
    for name, value in (("prime", 13), ("kind", DEPTH_BOUND), ("best_effort", True)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cert, name, value)
    twin = Certificate(WINDOW_VALUATION, 12, Composition((1, 1)), rule_index=3,
                       prime=11, valuation=-1)
    assert twin == cert and hash(twin) == hash(cert)
    fields = ("kind", "n", "composition", "rule_index", "prime", "valuation", "bound",
              "best_effort")
    variant = Certificate(DIRECT_NON_INTEGER, 13, Composition((1, 2)), 6, 7, -2, F(1, 3), True)
    for field in fields:
        other = Certificate(**{**{name: getattr(cert, name) for name in fields},
                               field: getattr(variant, field)})
        assert other != cert, field
    certs = [cert, verify_odd_noninteger(5, (1, 2)), verify_odd_noninteger(26, (1, 1)),
             verify_star_noninteger(9, (1, 2)), verify_odd_noninteger(1, (5,))]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for c in certs:
            back = pickle.loads(pickle.dumps(c, protocol))
            assert back == c and hash(back) == hash(c), (protocol, c)
            assert back.json_line() == c.json_line()


def test_certificates_are_reproducible():
    for n, comp in ((12, (1, 1)), (5, (1, 2)), (9, (2,)), (26, (1, 1))):
        a = verify_odd_noninteger(n, comp)
        b = verify_odd_noninteger(n, comp)
        assert a == b
        assert a.to_json() == b.to_json()


def test_cascade_soundness_sample():
    # whatever rule fires, the exact value is non-integral
    for n in range(2, 26):
        for comp in compositions(5):
            if len(comp) > n:
                continue
            cert = verify_odd_noninteger(n, comp)
            assert cert.kind != TRIVIAL_INTEGER
            assert harmonic_sum(STRICT_ODD, n, comp).denominator > 1


# -- decimal bound table ---------------------------------------------------------

def test_decimal_bounds_small_depths():
    checks = decimal_bound_checks()
    assert {c.composition for c in checks} == {
        (1, 2), (1, 2, 1), (1, 1, 2), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2),
        *((1,) * r for r in range(5, 11)),
    }
    assert all(c.ok for c in checks)
    by_comp = {c.composition: c for c in checks}
    assert by_comp[(1, 2)].n == 12
    assert by_comp[(1, 2)].threshold == F(27273, 100000)
    assert by_comp[(1, 2, 1)].n == 17
    assert by_comp[(1, 2, 1, 1)].n == 59
