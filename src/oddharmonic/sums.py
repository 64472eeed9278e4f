"""Multiple harmonic sums in four flavors, with alternating variants.

A sum is specified by an ordering (strict: k_1 < ... < k_r, star:
k_1 <= ... <= k_r), a parity (standard denominators k+1 or odd
denominators 2k+1, positions k = 0..n-1), and a composition of exponents.
Composition entries are nonzero integers; a negative entry -s stands for
the alternating exponent: its factor is (-1)**k / base(k)**s.

Evaluation is one integer fold over the indices in the order its caller
gives: r+1 numerators over one common denominator hold the sums of every
depth, each step is one multiply-add per depth by small powers of
base(k) (star sums keep their numerators rescaled by a power of base(k)
for this), so no step needs a gcd or a division, and each state comes
out as an unreduced integer pair.  Folded over k = 0..n-1, the state
after index k-1 is the sum at n = k: `harmonic_sum_pairs` yields those
at n_min..n_max as they come, `harmonic_sum_prefixes` reduces them to
Fractions and `harmonic_sum` is its value at n.  Rule 5 of the
certificates folds a reversed tail from k = n-1 down.  Folded modulo a
prime power, the same loop gives `negative_valuation` without the
value.  Nothing is cached.  The brute-force enumerator is
an independent oracle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement, starmap
from typing import Iterable, Iterator, Union

from .exact import int_valuation


class WorkLimitExceeded(RuntimeError):
    """Brute-force enumeration would touch too many index tuples."""


@dataclass(frozen=True)
class Composition:
    """Ordered tuple of nonzero exponents; negative means alternating.

    Its depth, weight, sign pattern, magnitudes and string form are
    computed once, here, and kept out of ==, hash and repr, which see
    only the indices.
    """

    indices: tuple[int, ...]
    depth: int = field(init=False, repr=False, compare=False)
    weight: int = field(init=False, repr=False, compare=False)
    all_positive: bool = field(init=False, repr=False, compare=False)
    _magnitudes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            idx = tuple(operator.index(i) for i in self.indices)
        except TypeError as exc:
            raise ValueError(f"composition entries must be integers: "
                             f"{self.indices!r}") from exc
        if not idx:
            raise ValueError("composition must be nonempty")
        if 0 in idx:
            raise ValueError("composition entries must be nonzero")
        mags = tuple(abs(i) for i in idx)
        facts = {"indices": idx, "depth": len(idx), "weight": sum(mags),
                 "all_positive": mags == idx, "_magnitudes": mags,
                 "_text": ",".join(map(str, idx))}
        for name, value in facts.items():
            object.__setattr__(self, name, value)

    @classmethod
    def coerce(cls, value: "CompositionLike") -> "Composition":
        if isinstance(value, Composition):
            return value
        if isinstance(value, int):
            return cls((value,))
        if isinstance(value, str):
            return cls.parse(value)
        return cls(tuple(value))

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse "1,2,-3": comma-separated entries, minus = alternating."""
        try:
            entries = tuple(int(tok.strip()) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad composition {text!r}: "
                             "expected comma-separated nonzero integers") from exc
        return cls(entries)

    @classmethod
    def repeat(cls, entry: int, depth: int) -> "Composition":
        return cls((entry,) * depth)

    def magnitudes(self) -> tuple[int, ...]:
        return self._magnitudes

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __str__(self) -> str:
        return self._text


CompositionLike = Union[Composition, Iterable[int], str, int]


@dataclass(frozen=True)
class SumSpec:
    """Which of the four sum families to evaluate."""

    ordering: str  # "strict" | "star"
    parity: str    # "standard" | "odd"

    def __post_init__(self):
        if self.ordering not in ("strict", "star"):
            raise ValueError(f"ordering must be strict or star, got {self.ordering!r}")
        if self.parity not in ("standard", "odd"):
            raise ValueError(f"parity must be standard or odd, got {self.parity!r}")

    @property
    def star(self) -> bool:
        return self.ordering == "star"

    @property
    def odd(self) -> bool:
        return self.parity == "odd"

    def validate(self, n: int, comp: Composition) -> int:
        """Check n and comp for this family and return n as an int.

        n must be an integer: operator.index rejects 7.5 with TypeError
        instead of rounding it.
        """
        n = operator.index(n)
        if n < 1:
            raise ValueError("need n >= 1")
        if comp.depth > n:
            raise ValueError(f"depth {comp.depth} exceeds n = {n}")
        if not comp.all_positive and self.parity == "standard" and comp.depth > 1:
            raise ValueError("alternating entries need odd parity or depth 1")
        return n


STRICT_STANDARD = SumSpec("strict", "standard")
STAR_STANDARD = SumSpec("star", "standard")
STRICT_ODD = SumSpec("strict", "odd")
STAR_ODD = SumSpec("star", "odd")


def harmonic_sum(spec: SumSpec, n: int, comp: CompositionLike) -> Fraction:
    """Exact value of the specified nested sum."""
    return next(harmonic_sum_prefixes(spec, comp, n, n))


def harmonic_sum_prefixes(spec: SumSpec, comp: CompositionLike,
                          n_min: int, n_max: int) -> Iterator[Fraction]:
    """harmonic_sum(spec, n, comp) for n = n_min..n_max, lazily: the
    pairs of `harmonic_sum_pairs`, each reduced to a Fraction."""
    return starmap(Fraction, harmonic_sum_pairs(spec, comp, n_min, n_max))


def harmonic_sum_pairs(spec: SumSpec, comp: CompositionLike,
                       n_min: int, n_max: int) -> Iterator[tuple[int, int]]:
    """The sum at n = n_min..n_max as unreduced integer pairs (num, den),
    den > 0, lazily, from one fold up to n_max.

    num / den equals harmonic_sum(spec, n, comp).  A p-adic valuation
    (numerator's minus denominator's) and integrality (num % den == 0)
    read the same off the pair as off the reduced value, without a gcd.
    The arguments are checked at the call: depth <= n_min <= n_max.
    """
    comp = Composition.coerce(comp)
    n_min, n_max = spec.validate(n_min, comp), operator.index(n_max)
    if n_max < n_min:
        raise ValueError(f"need n_min <= n_max, got {n_min} > {n_max}")
    return _fold(spec, comp, range(n_max), n_min - 1)


def _fold(spec: SumSpec, comp: Composition, indices: Iterable[int],
          skip: int, modulus: int | None = None) -> Iterator[tuple[int, int]]:
    """Fold comp over the summation indices in the order given: after
    index k, v[j] / den is the sum over the first j exponents with every
    index among those folded so far, the earlier ones taking the earlier
    exponents, and no step divides.

    Strict sums keep den = v[0]: each step multiplies the whole vector
    by base(k)**max|s| and adds the lower neighbour from before index k.
    Star sums add the lower neighbour from after index k, which carries
    the factor 1/base(k)**|s_j|.  So that they multiply instead, their
    numerators are kept divided by base(k)**(W - M_j), with M_j = |s_1|
    + ... + |s_j| and W = M_r, and den = v[0] * base(k)**W.  Going from
    the previous base b' (1 before the first index) to b = base(k) is then
    v[0] *= b'**W and, for j = 1..r in turn, v[j] = v[j] * b'**(W - M_j)
    * b**M_j +- v[j-1]: integers in, integers out.  The state after each
    index past the first `skip` is yielded as (v[r], den), unreduced.

    With a modulus, every v[j] is reduced modulo it after each index.
    The fold only multiplies and adds, so the pair yielded is then
    congruent to the unreduced one: residues, not a value.
    """
    r = comp.depth
    mags = comp.magnitudes()
    signed = [e < 0 for e in comp.indices]
    star, odd = spec.star, spec.odd
    if star:
        heads = list(accumulate(mags))     # M_1..M_r
        weight = heads[-1]                 # W
        rests = [weight - m for m in heads]
        prev = 1                           # b', the base before index k
    else:
        scale = max(mags)
    v = [1] + [0] * r
    for i, k in enumerate(indices):
        base = 2 * k + 1 if odd else k + 1
        flip = k & 1
        if star:  # ascending: v[j-1] already includes index k
            term = v[0] = v[0] * prev ** weight
            for j in range(1, r + 1):
                term = v[j] = (v[j] * (prev ** rests[j - 1] * base ** heads[j - 1])
                               + (-term if flip and signed[j - 1] else term))
            prev = base
        else:  # descending: v[j-1] still stops before index k
            step = base ** scale
            for j in range(r, 0, -1):
                term = v[j - 1] * base ** (scale - mags[j - 1])
                v[j] = v[j] * step + (-term if flip and signed[j - 1] else term)
            v[0] *= step
        if modulus:
            for j in range(r + 1):
                v[j] %= modulus
        if i >= skip:
            yield v[r], v[0] * base ** weight if star else v[0]


def negative_valuation(spec: SumSpec, n: int, comp: CompositionLike,
                       p: int) -> int | None:
    """v_p of the sum at n if it is negative, else None; p must be prime.

    The fold's unreduced denominator is the product of base(k)**m over
    k < n, with m = weight for star sums and max|s| for strict ones, so
    its valuation e is known in closed form: m times v_p(n!), or for odd
    parity m times v_p((2n)!) - v_p(n!) by Legendre (no odd base holds
    2).  Fold the numerator modulo p**e.  A nonzero residue x gives the
    valuation exactly, v_p(x) - e < 0; a zero residue means p**e divides
    the numerator, so the valuation is >= 0.  Exact at every prime and
    every n, with no precision to choose.
    """
    comp = Composition.coerce(comp)
    n, p = spec.validate(n, comp), operator.index(p)
    if p < 2:
        raise ValueError(f"p must be prime, got {p}")

    def factorial_valuation(m: int) -> int:
        v = 0
        while m:
            m //= p
            v += m
        return v

    if not spec.odd:
        e = factorial_valuation(n)
    else:
        e = 0 if p == 2 else factorial_valuation(2 * n) - factorial_valuation(n)
    e *= comp.weight if spec.star else max(comp.magnitudes())
    x, _ = next(_fold(spec, comp, range(n), n - 1, p ** e))
    return int_valuation(x, p) - e if x else None


def harmonic_sum_brute(spec: SumSpec, n: int, comp: CompositionLike,
                       work_limit: int = 2_000_000) -> Fraction:
    """Reference oracle: direct enumeration of all index tuples.

    Independent of the integer fold on purpose.  Raises
    WorkLimitExceeded when the tuple count would exceed work_limit.
    """
    comp = Composition.coerce(comp)
    n = spec.validate(n, comp)
    r = comp.depth
    count = math.comb(n + r - 1, r) if spec.star else math.comb(n, r)
    if count > work_limit:
        raise WorkLimitExceeded(f"{count} tuples exceed work limit {work_limit}")
    chooser = combinations_with_replacement if spec.star else combinations
    total = Fraction(0)
    for tup in chooser(range(n), r):
        num, den = 1, 1
        for k, entry in zip(tup, comp.indices):
            base = 2 * k + 1 if spec.odd else k + 1
            den *= base ** abs(entry)
            if entry < 0 and (k & 1):
                num = -num
        total += Fraction(num, den)
    return total


def dominates(s: CompositionLike, t: CompositionLike) -> bool:
    """Weight-and-prefix order forcing sum(s) <= sum(t) at equal depth.

    True iff weight(s) >= weight(t) and for some split 0 <= l <= r-1 the
    first l entries satisfy s_i <= t_i and the rest s_i >= t_i.
    """
    s, t = Composition.coerce(s), Composition.coerce(t)
    if not (s.all_positive and t.all_positive):
        raise ValueError("dominance order is defined for all-positive compositions")
    if s.depth != t.depth:
        raise ValueError("dominance order needs equal depth")
    if s.weight < t.weight:
        return False
    a, b = s.indices, t.indices
    r = len(a)
    for l in range(r):
        if all(a[i] <= b[i] for i in range(l)) and all(a[i] >= b[i] for i in range(l, r)):
            return True
    return False


def ones_power_bound(n: int, r: int) -> Fraction:
    """(odd harmonic number at n) ** r / r!, an upper bound for every
    depth-r all-positive odd sum at n."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    h = harmonic_sum(STRICT_ODD, n, (1,))
    return h ** r / math.factorial(r)


def compositions(weight_max: int, depth_max: int | None = None) -> Iterator[tuple[int, ...]]:
    """All-positive compositions in graded-lex order (weight, depth, entries)."""
    if weight_max < 1:
        return
    for weight in range(1, weight_max + 1):
        dmax = weight if depth_max is None else min(weight, depth_max)
        for depth in range(1, dmax + 1):
            yield from _compositions_of(weight, depth)


def _compositions_of(weight: int, depth: int) -> Iterator[tuple[int, ...]]:
    if depth == 1:
        yield (weight,)
        return
    for first in range(1, weight - depth + 2):
        for rest in _compositions_of(weight - first, depth - 1):
            yield (first,) + rest
