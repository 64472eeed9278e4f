"""Non-integrality certificates for odd multiple harmonic sums.

Every all-positive odd sum (strict or star) with n >= 2 is non-integral;
the verifier emits a machine-checkable witness saying which argument
applies.  The star family needs only one rule: a prime between n and 2n
forces valuation -weight.  The strict family runs a fixed cascade:

  1. depth 1              -> StarValuation (valuation exactly -weight)
  2. depth past threshold -> DepthBound (the ones-power bound is < 1)
  3. window prime exists  -> WindowValuation (exact valuation < 0)
  4. dominance comparator -> MagnitudeBound (exact reference sum < 1)
  5. large first exponent -> LargeS1Bound (tail-coefficient valuations)
  6. fallback             -> DirectNonInteger (exact denominator > 1)

Ties resolve to the earliest rule, so certificates are reproducible.
The cascade runs in one private object per (family, n), `_Point`, which
holds what no composition changes: the Bertrand prime, the valuation e
of the fold's denominator at each (prime, key) with p**e, and per depth
the rule-2 bound, the window prime and whether rule 4 applies and rules
4-6 are best-effort.  The point is the one store of these facts: no
cache elsewhere holds a Bertrand prime, a window prime or a rule-2 decision.
`verify_*` checks its case, makes one point and wraps the fields that
`_Point.certify` returns in a `Certificate`; `sweep` makes one point per
n and writes every row it built itself with `_Point.line`.  Both write
through `_json_line`, the one writer of the JSON layout, and
`Certificate.to_json` parses that line back.  Rule 4 makes its bound and
its text once per reference, as they depend on n only through n <= the
window threshold; rule 5 reads one tail pair at a time.

Every valuation here is read one way: off the numerator x of a fold's
unreduced pair, whose denominator has a valuation e known in closed
form, with x known modulo p**a; no denominator's valuation is taken.
`_Point.valuation` reads the sum's, for rules 1 and 3, and each rule
states its precision in `_Point.certify`: rule 1 reads x modulo its
Bertrand prime p (a = 1), which decides whether v = -weight, and rule 3
reads it modulo p**e at its window prime.  Given no value, as from
`verify_*`, the chain is folded modulo that power.  A strict `sweep` row
hands over the exact unreduced pair, on which the final check num % den
== 0 needs no gcd either.  A star `sweep` row is decided by rule 1
alone, so it hands over a residue modulo a product of Bertrand primes.
Given values must be exact, except where rule 1 alone decides.  A zero
read modulo p below p**e is read again from the sum's own chain folded
modulo p**e, so a failed law reports its exact valuation, whatever value
was given.  Rule 5 reads its tail coefficients the same way, in
`_leading_exponent`, modulo p**(e+s1) for the first exponent s1 it
compares with; a zero residue there stands for a valuation >= s1, which
decides the same; `leading_exponent_bound` is the first of these reads,
at s1 = 1, 2, ..., that falls below its s1.  The primes come from the
prime searches, so no reading tests primality again.  Where the value is
cheap, rules 2, 4 and 5 check that it is not an integer too, and rule 6
is that check; a `verify_*` value check folds with the content step, as
num % den reads the same once both lose their common factor.  Every fold
of one sum here, modulo p or p**e, modulo p**(e+s1) for rule 5's
reversed tail, or exact, is `_chain`.

A caution on rule 3: at depth >= 2 a window prime p divides only
ceil(r/2) of the odd numbers below 2n (even multiples of p are never odd
denominators), so the valuation of the sum at p is NOT -weight in
general; v_11 of the depth-2 sum at n=12 is -1, for example.  Worse,
equal-valuation terms can cancel modulo p and push the valuation all the
way to zero or beyond (v_23 at n=26, composition (1,1), is +2), in which
case the window prime certifies nothing and the cascade falls through to
a later rule.  A WindowValuation certificate therefore asserts only what
it verified: the valuation at its prime is negative, hence the sum is
not an integer.  The star family is different: indices may repeat, the
all-equal tuple contributes the unique minimal term 1/p^weight, and the
valuation is exactly -weight.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import count

from . import primes
from .exact import Record, int_valuation
from .sums import (
    Composition,
    CompositionLike,
    STRICT_ODD,
    STAR_ODD,
    SumSpec,
    _chain,
    _den_valuation,
    dominates,
    harmonic_sum,
    ones_power_bound,
)

TRIVIAL_INTEGER = "TrivialInteger"
STAR_VALUATION = "StarValuation"
WINDOW_VALUATION = "WindowValuation"
DEPTH_BOUND = "DepthBound"
MAGNITUDE_BOUND = "MagnitudeBound"
LARGE_S1_BOUND = "LargeS1Bound"
DIRECT_NON_INTEGER = "DirectNonInteger"

# Decimal thresholds the reference sums are checked against (as exact
# rationals) by `decimal_bound_checks`: the rule-4 comparators at depths
# 2..4, plus the all-ones sums for depths 5..10.
_DECIMAL_THRESHOLDS: dict[tuple[int, ...], Fraction] = {
    (1, 2): Fraction(27273, 100000),
    (1, 2, 1): Fraction(22216, 100000),
    (1, 1, 2): Fraction(8552, 100000),
    (1, 2, 1, 1): Fraction(28433, 100000),
    (1, 1, 2, 1): Fraction(10452, 100000),
    (1, 1, 1, 2): Fraction(4060, 100000),
    (1,) * 5: Fraction(85442, 100000),
    (1,) * 6: Fraction(51825, 100000),
    (1,) * 7: Fraction(20280, 100000),
    (1,) * 8: Fraction(12835, 100000),
    (1,) * 9: Fraction(17796, 100000),
    (1,) * 10: Fraction(6243, 100000),
}

# Reference compositions for rule 4 at small depth, tried in table order:
# any composition that dominates one of these is bounded by the reference
# sum at the window threshold for its depth, and that sum is exactly < 1.
_MAGNITUDE_COMPARATORS = {
    r: tuple(Composition(c) for c in _DECIMAL_THRESHOLDS if len(c) == r) for r in (2, 3, 4)}


def _json_line(kind: str, n: int, composition: Composition, rule_index: int,
               prime: int | None, valuation: int | None, bound: Fraction | str | None,
               best_effort: bool) -> str:
    """A certificate's JSON line, the one place its layout is written: one
    f-string from its fields, in the order Certificate declares them, as
    json.dumps would write it; the bound may come as its text already.

    Every value is an int, null, true or a string that JSON writes as it
    is: a kind name, a composition's digits and commas, or a bound's
    digits, sign and slash.
    """
    prime = "null" if prime is None else prime
    valuation = "null" if valuation is None else valuation
    bound = "null" if bound is None else f'"{bound!s}"'
    tail = ', "best_effort": true' if best_effort else ""
    return (f'{{"kind": "{kind}", "n": {n}, '
            f'"composition": "{composition!s}", "prime": {prime}, '
            f'"valuation": {valuation}, "bound": {bound}, '
            f'"rule_index": {rule_index}{tail}}}')


class Certificate(Record):
    """Witness of (non-)integrality for one (n, composition) case."""

    __match_args__ = ("kind", "n", "composition", "rule_index", "prime", "valuation",
                      "bound", "best_effort")

    def __init__(self, kind: str, n: int, composition: Composition, rule_index: int,
                 prime: int | None = None, valuation: int | None = None,
                 bound: Fraction | None = None, best_effort: bool = False):
        super().__init__(kind, n, composition, rule_index, prime, valuation, bound,
                         best_effort)

    def to_json(self) -> dict:
        """The certificate as a dict: its JSON line, parsed."""
        import json  # only here, so that importing the package skips json
        return json.loads(self.json_line())

    def json_line(self) -> str:
        """The certificate's JSON line, written by `_json_line`."""
        return _json_line(self.kind, self.n, self.composition, self.rule_index,
                          self.prime, self.valuation, self.bound, self.best_effort)


# The fold's unreduced (numerator, denominator) of one sum.
Pair = tuple[int, int]


def leading_exponent_bound(n: int, tail: CompositionLike) -> int:
    """Threshold N: any first exponent above N makes the sum non-integral.

    Uses the Bertrand prime p of n-r+1, the largest in (n-r+1, 2n-2r+2),
    which exists since r < n; then 2p exceeds every odd denominator of
    position >= (p-1)/2, so the p-part of the term at p is isolated once
    the first exponent clears the coefficient valuations.  N = max(v, v -
    min over other coefficients) where v is the valuation of the
    coefficient at position (p-1)/2.  N is rule 5's read of the tail at
    the smallest s1 >= 1 it falls below, which is exact; see
    `_leading_exponent`.
    """
    tail = Composition.coerce(tail)
    r = tail.depth + 1
    if not 2 <= r < n:
        raise ValueError(f"need 2 <= depth = {r} < n = {n}")
    if not tail.all_positive:
        raise ValueError("tail must be all-positive")
    reads = ((_leading_exponent(n, tail.indices, s1)[0], s1) for s1 in count(1))
    return next(lead for lead, s1 in reads if lead < s1)


def _leading_exponent(n: int, tail: tuple[int, ...], s1: int) -> tuple[int, int]:
    """(N, p) of a checked tail, as read for the first exponent s1 >= 1,
    and the Bertrand prime p it was read at, which rule 5 writes, from one
    prime search.  The sum is sum over k of c[k] / (2k+1)**s_1, and c[k],
    the sum over k < k_2 < ... < k_r <= n-1 of the tail factors, is the
    strict odd sum of the reversed tail over n-1, ..., k+1: one chain
    folded from k = n-1 down yields c[k] for k = n-r down to 0, one pair
    at a time.

    The pair of c[k] has the denominator of the whole fold, of valuation
    e in closed form, less its factors at positions <= k.  As p > n-r+1,
    3p > 2(n-r)+1, so among those p divides the base 2k+1 only at k =
    (p-1)/2, once: c[k]'s denominator has valuation e - key when k >=
    (p-1)/2 and e below, key = max(tail).  The chain is folded modulo
    p**(e+s1): a nonzero residue gives c[k]'s valuation exactly, and a
    zero one says only that it is >= s1, and is read as s1.  No valuation
    is then read above the true one, and every one below s1 is read
    exactly.  So the decision s1 > N and, where it holds, N itself are
    exact: if N < s1, the reference valuation v is exact, and so is the
    minimum unless it is >= s1 > 0, where N = v either way; if N >= s1, v
    is read as s1 or exactly, and the minimum no higher, so N is still >=
    s1.  So `leading_exponent_bound` reads at s1 = 1, 2, ... and stops at
    the first read below s1, which is the true N; it stops by s1 = max(1,
    N+1), as every s1 > N gives the read N < s1."""
    p = primes.bertrand_prime(n - len(tail))
    vals, tail, key = [], Composition(tail[::-1]), max(tail)
    e, ref = _den_valuation(STRICT_ODD, n, tail, p), n - len(tail) - (p + 1) // 2
    chain = _chain(STRICT_ODD, tail, range(n - 1, 0, -1), tail.depth - 1, p ** (e + s1))
    for i, (num, _) in enumerate(chain):  # c[k] at i = n-r-k, (p-1)/2 at i = ref
        vals.append(int_valuation(num, p) - e + key * (i <= ref) if num else s1)
    v_ref = vals.pop(ref)
    return max(v_ref, v_ref - min(vals)), p


# ceil(e * 10**36) / 10**36: an upper bound on e, good to 36 decimals.
_E_NUM, _E_DEN = 2718281828459045235360287471352662498, 10**36


def depth_threshold_holds(n: int, r: int) -> bool:
    """Is r >= e * (log(2n-1)/2 + 1), certainly?

    Equivalently exp(2r/e - 2) >= 2n-1.  With e replaced by a rational
    upper bound the exponent x only shrinks, so every Taylor partial sum
    of exp(x), a sum of positive terms, is a certain lower bound: True
    as soon as one reaches 2n-1.  Once the remaining terms cannot reach
    it the answer is False, which abstains and lets the cascade continue.
    Only integers are used; a non-integer n or r raises TypeError.
    """
    n, r = operator.index(n), operator.index(r)
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    target = 2 * n - 1
    p, q = 2 * r * _E_DEN - 2 * _E_NUM, _E_NUM  # x = p / q
    if p <= 0:
        return False  # exp(x) <= 1 <= 2n-1, and x = 0 cannot occur
    # The k-th partial sum is total/den and its last term term/den,
    # with den = q**k * k! and term = p**k.
    k, total, term, den = 0, 1, 1, 1
    while total < target * den:
        # Once x <= (k+1)/2 each later term is at most half the one
        # before, so all of them together stay below the current term.
        if 2 * p <= q * (k + 1) and total + term < target * den:
            return False
        k += 1
        den *= q * k
        term *= p
        total = total * q * k + term
    return True


@lru_cache(maxsize=None)
def _reference(comp: tuple[int, ...]) -> tuple[Fraction, str]:
    """One of rule 4's at most 19 references, with its text: the strict odd
    sum of comp, or past depth 10 the ones-power bound, at the window
    threshold of its depth."""
    r = len(comp)
    ref_n = primes.window_threshold(r)
    bound = harmonic_sum(STRICT_ODD, ref_n, comp) if r <= 10 else ones_power_bound(ref_n, r)
    return bound, str(bound)


@lru_cache(maxsize=None)
def _magnitude_bound(comp: tuple[int, ...]) -> tuple[Fraction, str] | None:
    """Rule 4: the first reference of comp, of depth 2..17, whose bound is
    < 1, if any: it bounds the sum of comp at every n up to the window
    threshold of its depth, which the caller checks.  Each entry is its
    reference's shared pair, or None."""
    r = len(comp)
    refs = ((comparator.indices for comparator in _MAGNITUDE_COMPARATORS[r]
             if dominates(comp, comparator)) if r <= 4 else ((1,) * r,))
    return next((ref for ref in map(_reference, refs) if ref[0] < 1), None)


# Rules 2, 4 and 5 bound the sum without its value; it is recomputed as a
# check whenever n * depth is at most this.
_VALUE_CHECK_LIMIT = 20_000

# A certificate's fields in the order Certificate declares them: kind, n,
# composition, rule_index, prime, valuation, bound, best_effort.
Fields = tuple[str, int, Composition, int, int | None, int | None, Fraction | None, bool]


class _Point:
    """The cascade at one (family, n), with the facts no composition
    changes that the module docstring lists; e is the valuation of the
    fold's unreduced denominator.  Compositions come checked:
    all-positive, of depth <= n."""

    __slots__ = ("spec", "star", "n", "bertrand", "_powers", "_depths")

    def __init__(self, spec: SumSpec, n: int):
        self.spec, self.star, self.n = spec, spec.star, n
        self.bertrand = primes.bertrand_prime(n) if n >= 2 else None
        self._powers: dict[tuple[int, int], tuple[int, int]] = {}
        self._depths: dict[int, tuple[Fraction | None, int | None, bool, bool]] = {}

    def valuation(self, comp: Composition, p: int, value: Pair | None,
                  a: int | None = None) -> int | None:
        """v_p of the sum if it is negative, else None, read off x, the
        numerator of the fold's pair, modulo q = p**min(a, e) (a None: e):
        from the given value, or from the chain folded here modulo q.  The
        fold's denominator has valuation exactly e, in closed form, so a
        nonzero x gives v = v_p(x) - e, and a zero one at q = p**e says v
        >= 0.  A zero at q < p**e is read again from the chain folded
        modulo p**e, so a failed law reports its exact valuation.  Exact at
        every prime and every n.  p must be prime; the cascade's primes
        come from the prime searches, so p is not tested again."""
        at = p, comp.weight if self.star else max(comp.magnitudes())
        powers = self._powers.get(at)
        if powers is None:
            e = _den_valuation(self.spec, self.n, comp, p)
            powers = self._powers[at] = e, p ** e
        e, pe = powers
        q = pe if a is None or a >= e else p ** a
        x = (value or next(_chain(self.spec, comp, range(self.n), self.n - 1, q)))[0] % q
        if not x:
            return None if q == pe else self.valuation(comp, p, None)
        return (int_valuation(x, p) if x % p == 0 else 0) - e

    def _depth(self, r: int) -> tuple[Fraction | None, int | None, bool, bool]:
        """(rule-2 bound, window prime, rule 4 applies, best_effort) at
        depth r >= 2; the window prime is looked up only without a bound."""
        facts = self._depths.get(r)
        if facts is None:
            n = self.n
            bound = ones_power_bound(n, r) if depth_threshold_holds(n, r) else None
            if bound is not None and bound >= 1:
                bound = None
            window = primes.window_prime(n, r) if bound is None else None
            # Past depth 17 nothing is tabulated: rule 4 never applies and
            # rules 4-6 are always best-effort.
            threshold = primes.window_threshold(r) if r <= 17 else 0
            facts = self._depths[r] = bound, window, n <= threshold, n >= threshold
        return facts

    def certify(self, comp: Composition, value: Pair | None = None) -> Fields:
        """The fields of comp's certificate: the first rule of the cascade
        that applies.  A value, the fold's own pair (num, den) of the sum,
        replaces every evaluation of it; RuntimeError if a check fails.
        Each rule states the precision it reads: rule 1 reads num modulo
        its Bertrand prime p, and rule 3 modulo p**e at its window prime.
        So the value must be exact, except where rule 1 alone decides
        (star sums and depth 1): there num modulo p serves, and a zero
        there is checked against the sum's own fold."""
        n, r, s1 = self.n, comp.depth, comp.indices[0]
        if n == 1:
            return TRIVIAL_INTEGER, n, comp, 0, None, None, None, False
        if self.star or r == 1:
            # Rule 1: a prime n < p < 2n divides exactly one odd
            # denominator.  For star sums, and for strict sums of depth 1,
            # the term using it at every position is the unique one of
            # minimal valuation, so the sum has valuation exactly -weight.
            # The valuation is computed, not assumed.
            p = self.bertrand
            v = self.valuation(comp, p, value, 1)
            if v != -comp.weight:
                raise RuntimeError(
                    f"valuation law failed: v_{p} of {self.spec.ordering} sum at n={n}, "
                    f"comp={comp} is {'not negative' if v is None else v}, "
                    f"expected {-comp.weight}"
                )
            return STAR_VALUATION, n, comp, 1, p, v, None, False

        bound, window, tabulated, best_effort = self._depth(r)
        if bound is not None:
            fields = DEPTH_BOUND, n, comp, 2, None, None, bound, False
        # A window prime that certifies nothing is rare in principle only;
        # a later rule then certifies.
        elif window is not None and (v := self.valuation(comp, window, value)) is not None:
            return WINDOW_VALUATION, n, comp, 3, window, v, None, False
        elif tabulated and (magnitude := _magnitude_bound(comp.indices)) is not None:
            fields = MAGNITUDE_BOUND, n, comp, 4, None, None, magnitude[0], best_effort
        elif r < n and s1 > (lead := _leading_exponent(n, comp.indices[1:], s1))[0]:
            fields = LARGE_S1_BOUND, n, comp, 5, lead[1], None, Fraction(lead[0]), best_effort
        else:
            fields = DIRECT_NON_INTEGER, n, comp, 6, None, None, None, best_effort

        # Rule 6 is this check; for rules 2, 4 and 5 it is a cross-check.
        if fields[0] == DIRECT_NON_INTEGER or n * r <= _VALUE_CHECK_LIMIT:
            num, den = value or next(_chain(self.spec, comp, range(n), n - 1, content=True))
            if num % den == 0:
                raise RuntimeError(f"integer value {num // den} at n={n}, comp={comp} "
                                   f"contradicts {fields[0]} certificate")
        return fields

    def line(self, comp: Composition, value: Pair | None = None) -> str:
        """The JSON line of comp's certificate; a rule-4 line takes its
        bound's text from `_magnitude_bound`, made once per reference."""
        kind, n, comp, rule_index, prime, valuation, bound, best_effort = self.certify(
            comp, value)
        if kind == MAGNITUDE_BOUND:
            bound = _magnitude_bound(comp.indices)[1]
        return _json_line(kind, n, comp, rule_index, prime, valuation, bound, best_effort)


def _verify(spec: SumSpec, n: int, comp: CompositionLike) -> Certificate:
    """The certificate of one case, checked first: n valid for comp, and
    comp all-positive."""
    comp = Composition.coerce(comp)
    if not comp.all_positive:
        raise ValueError("integrality certificates cover all-positive compositions")
    n = spec.validate(n, comp)
    return Certificate(*_Point(spec, n).certify(comp))


def verify_star_noninteger(n: int, comp: CompositionLike) -> Certificate:
    """Certificate that the odd star sum at n >= 2 is not an integer.

    A prime n < p < 2n forces valuation exactly -weight (rule 1).
    """
    return _verify(STAR_ODD, n, comp)


def verify_odd_noninteger(n: int, comp: CompositionLike) -> Certificate:
    """Certificate that the strict odd sum at n >= 2 is not an integer.

    Runs the cascade of the module docstring; the first applicable rule
    wins.  When n * depth <= `_VALUE_CHECK_LIMIT` the exact value is also
    recomputed and its denominator checked, whichever bound rule fired.
    Certificates from rules 4-6 outside the tabulated regime (n past the
    window threshold, or depth > 17) are flagged best_effort.  Rule 1
    folds the sum modulo its Bertrand prime p, and modulo p**e only if
    that reads 0; rule 3 folds it modulo p**e at its window prime p, and
    rule 5 folds its reversed tail modulo p**(e+s1); the value check folds
    exactly, with the content step.
    """
    return _verify(STRICT_ODD, n, comp)


class BoundCheck(Record):
    """One exact comparison of a reference sum against its decimal cover."""

    __match_args__ = ("n", "composition", "value", "threshold", "ok")

    def __init__(self, n: int, composition: tuple[int, ...], value: Fraction,
                 threshold: Fraction, ok: bool):
        super().__init__(n, composition, value, threshold, ok)


def decimal_bound_checks() -> list[BoundCheck]:
    """Exact rational checks of every tabulated decimal threshold: the
    small-depth comparators and the all-ones sums of depths 5..10."""
    checks = []
    for comp, threshold in _DECIMAL_THRESHOLDS.items():
        n = primes.window_threshold(len(comp))
        value = _reference(comp)[0]
        checks.append(BoundCheck(n=n, composition=comp, value=value,
                                 threshold=threshold, ok=value < threshold))
    return checks
