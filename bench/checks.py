"""Output checks for the benchmark, written apart from the program.

Nothing here imports `oddharmonic`.  Each check recomputes what an output
claims by another route:

* `ModularSums` evaluates nested odd sums modulo 61-bit primes in plain
  integers.  It runs over the *last* exponent first (suffix sums), while
  the program's row DP runs over exponent prefixes, so the two share
  neither code nor the order of the recurrence.
* `check_certificate` re-derives a certificate's claim from its JSON
  document and the checked value alone, with its own trial division and
  its own valuation count.
* `IdentityChecker.check_row` recomputes the sides of an `identity-check` CSV row
  with its own loops.

Every check returns None when the output holds and a short reason string
when it does not, so a failed check names what went wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Two primes just below 2**61.  A wrong value passes both checks only if
# its error is a multiple of their 122-bit product.
MODULI = ((1 << 61) - 1, (1 << 61) - 31)

KIND_RULE = {
    "StarValuation": 1,
    "DepthBound": 2,
    "WindowValuation": 3,
    "MagnitudeBound": 4,
    "LargeS1Bound": 5,
    "DirectNonInteger": 6,
}


def trial_division_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def count_valuation(value: Fraction, p: int) -> int:
    """v_p of a nonzero rational, by repeated integer division."""
    v = 0
    num, den = abs(value.numerator), value.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


class ModularSums:
    """Odd nested sums at one n modulo one prime q.

    Suffix tables are memoised by exponent suffix, so a grid of
    compositions at the same n shares them.
    """

    def __init__(self, n: int, q: int, star: bool):
        self.n, self.q, self.star = n, q, star
        self.inv = [pow(2 * k + 1, -1, q) for k in range(n)]
        self._factor: dict[int, list[int]] = {}
        self._suffix: dict[tuple[int, ...], list[int]] = {(): [1] * (n + 1)}

    def factor(self, entry: int) -> list[int]:
        """f(k) = (+-1)^k / (2k+1)^|entry| mod q."""
        f = self._factor.get(entry)
        if f is None:
            q, s = self.q, abs(entry)
            f = [pow(i, s, q) for i in self.inv]
            if entry < 0:
                f = [x if k % 2 == 0 else (q - x) % q for k, x in enumerate(f)]
            self._factor[entry] = f
        return f

    def suffix(self, entries: tuple[int, ...]) -> list[int]:
        """t[k] = sum over admissible index tuples with first index >= k."""
        t = self._suffix.get(entries)
        if t is not None:
            return t
        rest = self.suffix(entries[1:])
        f = self.factor(entries[0])
        q, n = self.q, self.n
        shift = 0 if self.star else 1
        t = [0] * (n + 1)  # t[n] = 0: no index is >= n
        acc = 0
        for k in range(n - 1, -1, -1):
            acc = (acc + f[k] * rest[k + shift]) % q
            t[k] = acc
        self._suffix[entries] = t
        return t

    def value(self, entries: tuple[int, ...]) -> int:
        return self.suffix(tuple(entries))[0]


class ModularChecker:
    """Checks exact values of odd nested sums against `ModularSums`."""

    def __init__(self):
        self._tables: dict[tuple[bool, int, int], ModularSums] = {}

    def residues(self, star: bool, n: int, comp: tuple[int, ...]) -> dict[int, int]:
        out = {}
        for q in MODULI:
            key = (star, n, q)
            table = self._tables.get(key)
            if table is None:
                table = self._tables[key] = ModularSums(n, q, star)
            out[q] = table.value(tuple(comp))
        return out

    def check(self, star: bool, n: int, comp, value: Fraction) -> str | None:
        if not isinstance(value, Fraction):
            return f"value is {type(value).__name__}, not Fraction"
        if len(comp) > n:
            return "depth exceeds n"
        for q, residue in self.residues(star, n, tuple(comp)).items():
            if (value.numerator - residue * value.denominator) % q:
                return f"value disagrees with the modular evaluation mod {q}"
        return None


def parse_composition(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def check_certificate(doc: dict, value: Fraction) -> str | None:
    """Re-check one certificate from its JSON document and the checked value.

    `value` must already have passed the modular check; the certificate
    is then held to the fact it claims.
    """
    kind = doc.get("kind")
    if kind not in KIND_RULE:
        return f"unexpected kind {kind!r}"
    if doc.get("rule_index") != KIND_RULE[kind]:
        return f"rule_index {doc.get('rule_index')!r} does not match {kind}"
    n = doc["n"]
    comp = parse_composition(doc["composition"])
    if n < 2 or not comp or min(comp) < 1 or len(comp) > n:
        return f"bad case n={n} composition={doc['composition']}"
    r, weight = len(comp), sum(comp)
    if value.denominator == 1:
        return f"value {value} is an integer"

    p, claimed = doc.get("prime"), doc.get("valuation")
    if p is not None and not trial_division_prime(p):
        return f"prime {p} is not prime"
    if claimed is not None:
        if p is None:
            return "valuation without a prime"
        if count_valuation(value, p) != claimed:
            return f"v_{p} is {count_valuation(value, p)}, certificate claims {claimed}"

    if kind == "StarValuation":
        if p is None or not n < p < 2 * n:
            return f"prime {p} not in ({n}, {2 * n})"
        if claimed != -weight:
            return f"valuation {claimed} is not -weight = {-weight}"
    elif kind == "WindowValuation":
        if p is None or not (r * p < 2 * n <= (r + 1) * p and p > r + 1):
            return f"prime {p} is not a window prime for n={n}, r={r}"
        if claimed is None or claimed >= 0:
            return f"window valuation {claimed} is not negative"
    elif kind in ("DepthBound", "MagnitudeBound"):
        if doc.get("bound") is None:
            return "bound missing"
        bound = Fraction(doc["bound"])
        if not bound < 1:
            return f"bound {bound} is not below 1"
        if not 0 < value <= bound:
            return "value is not within (0, bound]"
    elif kind == "LargeS1Bound":
        if doc.get("bound") is None:
            return "bound missing"
        if not comp[0] > Fraction(doc["bound"]):
            return f"s1 = {comp[0]} does not exceed bound {doc['bound']}"
    return None


# --- identity-check rows -------------------------------------------------

def _depth_one_odd(n: int, s: int, sign: int) -> Fraction:
    return sum((Fraction(sign ** k, (2 * k + 1) ** s) for k in range(n)), Fraction(0))


def _depth_one_standard(n: int, s: int, sign: int) -> Fraction:
    return sum((Fraction(sign ** k, (k + 1) ** s) for k in range(n)), Fraction(0))


def _power_sum(n: int, s: int, y: Fraction) -> Fraction:
    """sum_{k<n} y^k / (2k+1)^s."""
    return sum((y ** k / (2 * k + 1) ** s for k in range(n)), Fraction(0))


def _block_sum(m: int, n: int) -> Fraction:
    total = Fraction(0)
    for k in range(n):
        total += Fraction(1, math.prod(range(2 * k + 1, 2 * k + m + 1)))
    return total


def _chu(n: int, b: Fraction, c: Fraction) -> Fraction:
    """(c-b)_n / (c)_n as a product."""
    out = Fraction(1)
    for j in range(n):
        out *= (c - b + j) / (c + j)
    return out


def _alt_binomial(n: int, f) -> Fraction:
    return sum((Fraction((-1) ** (k - 1) * math.comb(n, k)) * f(k)
                for k in range(1, n + 1)), Fraction(0))


class IdentityChecker:
    """Recomputes the expected value of each identity-check row."""

    def __init__(self):
        self._memo: dict[tuple, Fraction] = {}

    def _cached(self, key, fn, *args) -> Fraction:
        v = self._memo.get(key)
        if v is None:
            v = self._memo[key] = fn(*args)
        return v

    def odd(self, n, s, sign):
        return self._cached(("odd", n, s, sign), _depth_one_odd, n, s, sign)

    def block(self, m, n):
        return self._cached(("block", m, n), _block_sum, m, n)

    def expected(self, suite, n, s, m, x, sign) -> Fraction | None:
        """The value both sides must equal, or None if the row only
        asserts lhs == rhs."""
        if suite == "powersum":
            return _power_sum(n, s, Fraction(x) ** 2)
        if suite == "alt-powersum":
            return _power_sum(n, s, -Fraction(x) ** 2)
        if suite == "depth1":
            return self.odd(n, s, sign)
        if suite == "depth1-standard":
            return _depth_one_standard(n, s, sign)
        if suite in ("closed-form", "blocks-depth1"):
            return self.odd(n, 1, 1)
        if suite == "euler":
            return _depth_one_standard(n, 1, 1)
        if suite == "chu":
            b, c = (Fraction(t) for t in x.split(";"))
            return _chu(n, b, c)
        if suite == "blocks":
            return self.block(m, n)
        if suite == "inversion":
            return _alt_binomial(n, lambda k: self.odd(k, s, sign))
        if suite == "inversion-blocks":
            return (math.factorial(m - 1) * (m + n - 1)
                    * _alt_binomial(n, lambda k: self.block(m, k)))
        if suite == "inversion-roundtrip":
            return None
        raise KeyError(suite)

    def check_row(self, line: str) -> str | None:
        fields = line.split(",")
        if len(fields) != 9:
            return f"row has {len(fields)} fields"
        suite, n, s, m, x, sign, lhs, rhs, equal = fields
        try:
            lhs, rhs = Fraction(lhs), Fraction(rhs)
            n = int(n)
            s = int(s) if s else None
            m = int(m) if m else None
            sign = int(sign) if sign else 1
        except ValueError:
            return "unparsable row"
        if equal != str(lhs == rhs):
            return f"equal column {equal!r} contradicts lhs/rhs"
        if equal != "True":
            return "identity reported unequal"
        try:
            want = self.expected(suite, n, s, m, x, sign)
        except KeyError:
            return f"unknown suite {suite!r}"
        if want is not None and lhs != want:
            return f"{suite} row n={n} differs from the independent value"
        return None
