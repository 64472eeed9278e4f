"""Multiple harmonic sums in four flavors, with alternating variants.

A sum is specified by an ordering (strict: k_1 < ... < k_r, star:
k_1 <= ... <= k_r), a parity (standard denominators k+1 or odd
denominators 2k+1, positions k = 0..n-1), and a composition of exponents.
Composition entries are nonzero integers; a negative entry -s stands for
the alternating exponent: its factor is (-1)**k / base(k)**s.

Evaluation is one integer fold of a prefix trie over the indices in the
order its caller gives: every node of the trie adds one entry to its
parent, and each step is one multiply-add per node by small powers of
base(k) (star sums keep their numerators rescaled by a power of base(k)
for this), so no step needs a gcd or a division, and each node's state
comes out as an unreduced integer pair.  A single composition is a
chain, and `_chain` is every fold of one sum, here and in the
certificates; `sweep` folds one trie per key for a whole grid, so a
prefix shared by many compositions is folded once.  Folded over k =
0..n-1, the state after index k-1 is the sum at n = k:
`harmonic_sum_pairs` yields those at n_min..n_max as they come, as
unreduced pairs, and so do the certificates' folds, whose valuations
need the closed-form denominator; rule 5 folds a reversed tail from k =
n-1 down.  `harmonic_sum_prefixes`, and with it `harmonic_sum` (its
value at n), wants only Fractions, so its fold also divides the whole
state by its gcd at a few checkpoints, n/2, n/4, ... down to 64 indices
(the content step): the ratios stay, the integers shrink.  Folded
modulo an integer, the loop gives residues: modulo a prime power the
valuations that `certificates._Point.valuation` reads, and modulo the
product of its Bertrand primes the tries of `sweep --star`.  Nothing is
cached.  The brute-force enumerator is an independent oracle.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, pairwise, starmap
from typing import Iterable, Iterator, Union

from .exact import Record


class WorkLimitExceeded(RuntimeError):
    """Brute-force enumeration would touch too many index tuples."""


class Composition(Record):
    """Ordered tuple of nonzero exponents; negative means alternating.

    Its depth, weight, sign pattern, magnitudes and string form are
    computed once, here, and kept out of ==, hash and repr, which see
    only the indices.
    """

    __match_args__ = ("indices",)

    def __init__(self, indices: tuple[int, ...]):
        try:
            idx = tuple(map(operator.index, indices))
        except TypeError as exc:
            raise ValueError(f"composition entries must be integers: "
                             f"{indices!r}") from exc
        if not idx:
            raise ValueError("composition must be nonempty")
        if 0 in idx:
            raise ValueError("composition entries must be nonzero")
        mags = tuple(map(abs, idx))
        vars(self).update(indices=idx, depth=len(idx), weight=sum(mags),
                          all_positive=mags == idx, _magnitudes=mags,
                          _text=",".join(map(str, idx)))

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

    def magnitudes(self) -> tuple[int, ...]:
        return self._magnitudes

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __str__(self) -> str:
        return self._text


CompositionLike = Union[Composition, Iterable[int], str, int]


class SumSpec(Record):
    """Which of the four sum families to evaluate."""

    __match_args__ = ("ordering", "parity")

    def __init__(self, ordering: str, parity: str):
        if ordering not in ("strict", "star"):
            raise ValueError(f"ordering must be strict or star, got {ordering!r}")
        if parity not in ("standard", "odd"):
            raise ValueError(f"parity must be standard or odd, got {parity!r}")
        super().__init__(ordering, parity)

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
    """harmonic_sum(spec, n, comp) for n = n_min..n_max, lazily, each a
    Fraction, from one fold up to n_max that sheds its state's common
    factor on the way (`_fold`'s content step).  The arguments are
    checked at the call, as for `harmonic_sum_pairs`."""
    return starmap(Fraction, _sum_chain(spec, comp, n_min, n_max, content=True))


def harmonic_sum_pairs(spec: SumSpec, comp: CompositionLike,
                       n_min: int, n_max: int) -> Iterator[tuple[int, int]]:
    """The sum at n = n_min..n_max as unreduced integer pairs (num, den),
    den > 0, lazily, from one fold up to n_max.

    num / den equals harmonic_sum(spec, n, comp).  A p-adic valuation
    (numerator's minus denominator's) and integrality (num % den == 0)
    read the same off the pair as off the reduced value, without a gcd.
    The arguments are checked at the call: depth <= n_min <= n_max.
    """
    return _sum_chain(spec, comp, n_min, n_max)


def _sum_chain(spec: SumSpec, comp: CompositionLike, n_min: int, n_max: int,
               content: bool = False) -> Iterator[tuple[int, int]]:
    """The checked chain of comp folded over k = 0..n_max-1, from n_min."""
    comp = Composition.coerce(comp)
    n_min, n_max = spec.validate(n_min, comp), operator.index(n_max)
    if n_max < n_min:
        raise ValueError(f"need n_min <= n_max, got {n_min} > {n_max}")
    return _chain(spec, comp, range(n_max), n_min - 1, content=content)


class PrefixTrie:
    """Compositions folded together, one node per distinct prefix.

    Node 0 is the empty prefix; node i > 0 adds entries[i] to its parent
    parents[i] < i.  Every composition in a trie shares its key, the
    power the fold scales by: max|s| for strict sums, the weight W for
    star sums (`key_of`).
    """

    def __init__(self, key: int):
        self.key = key
        self.parents = [0]
        self.entries = [0]
        self._children: dict[tuple[int, int], int] = {}

    @staticmethod
    def key_of(spec: SumSpec, comp: Composition) -> int:
        return comp.weight if spec.star else max(comp.magnitudes())

    def add(self, comp: Composition) -> int:
        """The node of comp, made with any of its prefixes still missing."""
        node = 0
        for entry in comp.indices:
            child = self._children.get((node, entry))
            if child is None:
                child = self._children[node, entry] = len(self.parents)
                self.parents.append(node)
                self.entries.append(entry)
            node = child
        return node


# A content step runs after len(indices) // 2, // 4, ... indices while
# that is at least this many; a shorter fold never runs a gcd.
_CONTENT_MIN = 64


def _fold(spec: SumSpec, trie: PrefixTrie, indices: Iterable[int], skip: int,
          modulus: int | None = None, content: bool = False) -> Iterator[tuple[list[int], int]]:
    """Fold a trie over the summation indices in the order given: after
    index k, v[i] / den is the sum over node i's prefix with every index
    among those folded so far, the earlier ones taking the earlier
    exponents, and no step divides.

    Strict sums keep den = v[0]: each step multiplies every node by
    base(k)**key, key = max|s|, and adds the parent's value from before
    index k, times base(k)**(key - |s|), so the nodes run deepest first.
    Star sums add the parent's value from after index k, so the nodes run
    parents first, and that value carries the factor 1/base(k)**|s|.  So
    that they multiply instead, their numerators are kept divided by
    base(k)**(W - M), with M the weight of the node's prefix and W = key,
    and den = v[0] * base(k)**W.  Going from the previous base b' (1
    before the first index) to b = base(k) is then v[0] *= b'**W and,
    node by node, v[i] = v[i] * b'**(W - M) * b**M +- v[parent]:
    integers in, integers out.  A node whose entry is negative carries
    its own sign.  The state after each index past the first `skip` is
    yielded as (v, den), unreduced; v is the fold's own list, valid until
    the next step.

    With a modulus, every v[i] is reduced modulo it after each index.
    The fold only multiplies and adds, so the pair yielded is then
    congruent to the unreduced one: residues, not a value.

    With content (exact folds only; indices must have a length), the
    content step divides the whole of v by g, the gcd of all its entries,
    after len(indices) // 2, // 4, ... indices, while at least _CONTENT_MIN.
    Each step is linear and homogeneous in v (star's b' lives outside
    it), so v / g folds on to the same ratios on shorter integers; the
    pairs yielded are then no longer the unreduced ones, and their
    denominator loses its closed-form valuation.  Only the Fraction path
    asks for it.
    """
    star, odd, key = spec.star, spec.odd, trie.key
    parents, entries = trie.parents, trie.entries
    nodes = range(1, len(parents))
    if star:  # (node, parent, W - M, M, alternating)
        heads = [0] * len(parents)
        for i in nodes:
            heads[i] = heads[parents[i]] + abs(entries[i])
        steps = [(i, parents[i], key - heads[i], heads[i], entries[i] < 0) for i in nodes]
        prev = 1                           # b', the base before index k
    else:     # (node, parent, key - |s|, alternating), deepest first
        steps = [(i, parents[i], key - abs(entries[i]), entries[i] < 0)
                 for i in reversed(nodes)]
    checks, m = set(), len(indices) // 2 if content else 0
    while m >= _CONTENT_MIN:
        checks.add(m)
        m //= 2
    v = [1] + [0] * len(nodes)
    for at, k in enumerate(indices):
        base = 2 * k + 1 if odd else k + 1
        flip = k & 1
        if star:  # v[parent] already includes index k
            v[0] *= prev ** key
            for i, q, rest, head, signed in steps:
                term = v[q]
                v[i] = v[i] * (prev ** rest * base ** head) + (-term if flip and signed else term)
            prev = base
        else:     # v[parent] still stops before index k
            step = base ** key
            for i, q, low, signed in steps:
                term = v[q] * base ** low
                v[i] = v[i] * step + (-term if flip and signed else term)
            v[0] *= step
        if modulus:
            for i in range(len(v)):
                v[i] %= modulus
        elif at + 1 in checks and (g := math.gcd(*v)) > 1:
            v = [x // g for x in v]
        if at >= skip:
            yield v, v[0] * base ** key if star else v[0]


def _chain(spec: SumSpec, comp: Composition, indices: Iterable[int], skip: int,
           modulus: int | None = None, content: bool = False) -> Iterator[tuple[int, int]]:
    """The fold of comp alone, whose trie is a chain 0 - 1 - ... - r: the
    pair (num, den) of its last node after each index past the first
    `skip`, as `_fold` makes it.  Nothing is checked."""
    trie = PrefixTrie(PrefixTrie.key_of(spec, comp))
    trie.add(comp)
    return ((v[-1], den) for v, den in _fold(spec, trie, indices, skip, modulus, content))


def _den_valuation(spec: SumSpec, n: int, comp: Composition, p: int) -> int:
    """v_p of the fold's unreduced denominator at n, in closed form.

    That denominator is the product of base(k)**key over k < n, so its
    valuation is key times v_p(n!), or for odd parity key times
    v_p((2n)!) - v_p(n!) by Legendre (no odd base holds 2).
    """
    if spec.odd and p == 2:
        return 0
    e, m = 0, 2 * n if spec.odd else n
    while m:
        m //= p
        e += m
    if spec.odd:
        m = n
        while m:
            m //= p
            e -= m
    return e * PrefixTrie.key_of(spec, comp)


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
    """All-positive compositions in graded-lex order (weight, depth, entries):
    one per set of depth-1 cut points in 1..weight-1, taken in lex order."""
    for weight in range(1, weight_max + 1):
        dmax = weight if depth_max is None else min(weight, depth_max)
        for depth in range(1, dmax + 1):
            for cuts in combinations(range(1, weight), depth - 1):
                yield tuple(b - a for a, b in pairwise((0, *cuts, weight)))
