"""Evaluation oracle tests and order/bound properties of the sum families."""

import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from oddharmonic.primes import is_prime
from oddharmonic.sums import (
    Composition,
    PrefixTrie,
    STAR_ODD,
    STAR_STANDARD,
    STRICT_ODD,
    STRICT_STANDARD,
    SumSpec,
    WorkLimitExceeded,
    _den_valuation,
    _fold,
    compositions,
    dominates,
    harmonic_sum,
    harmonic_sum_brute,
    harmonic_sum_pairs,
    harmonic_sum_prefixes,
    ones_power_bound,
)
from reference import read_valuation, valuation

F = Fraction

ALL_SPECS = (STRICT_STANDARD, STAR_STANDARD, STRICT_ODD, STAR_ODD)


# -- composition plumbing ----------------------------------------------------

def test_composition_parse_and_format():
    c = Composition.parse("1, 2,-3")
    assert c.indices == (1, 2, -3)
    assert str(c) == "1,2,-3"
    assert c.depth == 3 and c.weight == 6
    assert not c.all_positive
    assert Composition.parse(str(c)) == c


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        Composition((1, 0, 2))
    with pytest.raises(ValueError):
        Composition.parse("1,,2")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=10).map(tuple))
def test_composition_facts_are_computed_once_and_stay_private(entries):
    # depth, weight, sign pattern, magnitudes and str are stored at
    # construction; they must equal a recomputation, and ==, hash and repr
    # must still see the indices alone
    c = Composition(entries)
    assert c.depth == len(entries)
    assert c.weight == sum(abs(e) for e in entries)
    assert c.all_positive == all(e > 0 for e in entries)
    assert c.magnitudes() == tuple(abs(e) for e in entries)
    assert str(c) == ",".join(str(e) for e in entries)
    assert Composition.parse(str(c)) == c
    twin = Composition(list(entries))
    assert twin == c and hash(twin) == hash(c) == hash((entries,))
    assert repr(c) == f"Composition(indices={entries!r})"
    assert c != Composition(entries + (1,))
    assert {c: 1}[Composition.coerce(",".join(map(str, entries)))] == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        SumSpec("loose", "odd")
    with pytest.raises(ValueError):
        harmonic_sum(STRICT_ODD, 2, (1, 1, 1))     # depth > n
    with pytest.raises(ValueError):
        harmonic_sum(STAR_ODD, 2, (1, 1, 1))       # star also rejects depth > n
    with pytest.raises(ValueError):
        harmonic_sum(STRICT_STANDARD, 5, (1, -2))  # alternating needs odd parity
    assert harmonic_sum(STRICT_STANDARD, 5, (-2,)) is not None  # depth 1 ok
    with pytest.raises((TypeError, ValueError)):
        harmonic_sum(STRICT_ODD, 2.5, (1,))        # not the value at n = 2
    with pytest.raises((TypeError, ValueError)):
        harmonic_sum_brute(STAR_ODD, 3.0, (1,))


# -- frozen values (checked against the enumeration oracle) ------------------

def test_known_values_strict_standard():
    for s in range(1, 11):
        assert harmonic_sum(STRICT_STANDARD, 1, (s,)) == 1
    assert harmonic_sum(STRICT_STANDARD, 3, (1, 1)) == 1
    assert harmonic_sum(STRICT_STANDARD, 2, (1,)) == F(3, 2)


def test_known_values_odd():
    assert harmonic_sum(STRICT_ODD, 2, (1,)) == F(4, 3)
    assert harmonic_sum(STRICT_ODD, 3, (1,)) == F(23, 15)
    assert harmonic_sum(STRICT_ODD, 2, (-1,)) == F(2, 3)
    assert harmonic_sum(STRICT_ODD, 2, (1, 1)) == F(1, 3)
    assert harmonic_sum(STAR_ODD, 2, (1, 1)) == F(13, 9)
    assert harmonic_sum(STAR_STANDARD, 1, (7,)) == 1


def test_frozen_regression_values():
    # independently computed (enumeration + Newton identity)
    assert harmonic_sum(STRICT_ODD, 12, (1, 1)) == F(65616235922, 35137127025)
    assert harmonic_sum(STRICT_ODD, 26, (1, 1)) == F(66784782068185875410609,
                                                     23884257395269078782975)


def test_input_coercion_forms():
    spec_value = harmonic_sum(STRICT_ODD, 3, Composition((1,)))
    assert spec_value == harmonic_sum(STRICT_ODD, 3, "1")
    assert spec_value == harmonic_sum(STRICT_ODD, 3, (1,))
    assert harmonic_sum(STRICT_ODD, 3, 1) == spec_value  # bare int is depth 1


def test_values_match_oracle_spot():
    cases = [
        (STRICT_ODD, 3, (1,)),
        (STRICT_ODD, 2, (1, 1)),
        (STAR_ODD, 2, (1, 1)),
        (STAR_STANDARD, 4, (2, 1)),
        (STRICT_STANDARD, 5, (1, 2)),
        (STRICT_ODD, 6, (1, -2, 1)),
        (STAR_ODD, 5, (-1, 1)),
    ]
    for spec, n, comp in cases:
        assert harmonic_sum(spec, n, comp) == harmonic_sum_brute(spec, n, comp)


def test_work_limit():
    with pytest.raises(WorkLimitExceeded):
        harmonic_sum_brute(STRICT_ODD, 60, (1,) * 10, work_limit=1000)


# -- exactness past the enumeration oracle's reach -----------------------------

def _prefix_reference(spec, n, comp):
    """The sum by a prefix recursion in plain Fractions."""
    return _prefix_rows(spec, n, comp)[n]


def _prefix_rows(spec, n, comp):
    """The sums at m = 0..n by a prefix recursion in plain Fractions:
    row[m] sums the entries so far over tuples with every index below m."""
    row = [F(1)] * (n + 1)
    for e in comp:
        new, acc = [F(0)] * (n + 1), F(0)
        for k in range(n):
            base = 2 * k + 1 if spec.odd else k + 1
            sign = -1 if e < 0 and k & 1 else 1
            acc += row[k + 1 if spec.star else k] * F(sign, base ** abs(e))
            new[k + 1] = acc
        row = new
    return row


def test_matches_prefix_reference_up_to_n_300():
    rng = random.Random(20261018)
    for spec in ALL_SPECS:
        for n in (1, 2, 7, 40, 133, 300):
            r = rng.randint(1, min(n, 4))
            comp = [rng.randint(1, 3) for _ in range(r)]
            if spec.odd or r == 1:
                comp[rng.randrange(r)] *= -1
            comp = tuple(comp)
            assert harmonic_sum(spec, n, comp) == _prefix_reference(spec, n, comp), (
                spec, n, comp)


# (spec, composition, n_min, n_max): n_min = 1, n_min > depth, n_min = depth
PREFIX_CASES = [
    (STRICT_STANDARD, (-2,), 1, 9),
    (STRICT_STANDARD, (1, 2), 4, 10),
    (STAR_STANDARD, (2, 1, 1), 3, 8),
    (STAR_STANDARD, (-1,), 1, 9),
    (STRICT_ODD, (1, -2, 1), 3, 9),
    (STRICT_ODD, (3,), 5, 9),
    (STRICT_ODD, (-1,), 1, 1),
    (STAR_ODD, (-1, 2), 2, 8),
    (STAR_ODD, (1, 1, -1), 6, 9),
    # star sums with a negative depth-one index, over a longer range of n
    (STAR_STANDARD, (-2,), 1, 30),
    (STAR_STANDARD, (-5,), 1, 30),
]


@pytest.mark.parametrize("spec, comp, n_min, n_max", PREFIX_CASES)
def test_prefixes_match_brute_force(spec, comp, n_min, n_max):
    got = list(harmonic_sum_prefixes(spec, comp, n_min, n_max))
    assert got == [harmonic_sum_brute(spec, n, comp) for n in range(n_min, n_max + 1)]


def test_prefixes_match_prefix_reference():
    rng = random.Random(20261019)
    for spec in ALL_SPECS:
        r = rng.randint(1, 3)
        comp = [rng.randint(1, 3) for _ in range(r)]
        if spec.odd or r == 1:
            comp[rng.randrange(r)] *= -1
        comp = tuple(comp)
        for n_min in (r, r + 1, 57):
            got = list(harmonic_sum_prefixes(spec, comp, n_min, 60))
            assert got == [_prefix_reference(spec, n, comp)
                           for n in range(n_min, 61)], (spec, comp, n_min)


# Star sums of weight >= 8 and depth 5-6 with two or more alternating
# entries: each level of the star step multiplies by the previous and the
# current base to different powers and flips its sign on its own.
HIGH_WEIGHT_STAR = [
    (1, -2, 1, 3, -1),
    (-2, 1, -1, 2, 1, 1),
    (3, -1, -1, 1, 2),
    (1, 1, -3, 2, -1, -2),
]


@pytest.mark.parametrize("comp", HIGH_WEIGHT_STAR)
def test_star_high_weight_matches_prefix_reference_up_to_n_300(comp):
    assert sum(map(abs, comp)) >= 8 and sum(e < 0 for e in comp) >= 2
    rows = _prefix_rows(STAR_ODD, 300, comp)
    r = len(comp)
    assert list(harmonic_sum_prefixes(STAR_ODD, comp, r, 300)) == rows[r:]


def test_prefixes_validate_at_the_call():
    with pytest.raises(ValueError):
        harmonic_sum_prefixes(STRICT_ODD, (1, 1, 1), 2, 9)    # n_min below depth
    with pytest.raises(ValueError):
        harmonic_sum_prefixes(STRICT_ODD, (1,), 0, 9)         # n_min below 1
    with pytest.raises(ValueError):
        harmonic_sum_prefixes(STRICT_ODD, (1,), 5, 4)         # empty range
    with pytest.raises(ValueError):
        harmonic_sum_prefixes(STRICT_STANDARD, (1, -2), 2, 9)  # alternating, standard
    with pytest.raises((TypeError, ValueError)):
        harmonic_sum_prefixes(STAR_ODD, (1,), 1.5, 3.9)       # not n = 1..3
    with pytest.raises((TypeError, ValueError)):
        harmonic_sum_prefixes(STAR_ODD, (1,), 1, 3.9)
    assert list(harmonic_sum_prefixes(STAR_ODD, "1,1", 2, 2)) == [F(13, 9)]


def test_pairs_validate_at_the_call():
    # the same checks as the prefixes, which are built on the pairs
    for bad in (((1, 1, 1), 2, 9), ((1,), 0, 9), ((1,), 5, 4)):
        with pytest.raises(ValueError):
            harmonic_sum_pairs(STRICT_ODD, *bad)
    with pytest.raises(ValueError):
        harmonic_sum_pairs(STRICT_STANDARD, (1, -2), 2, 9)
    with pytest.raises((TypeError, ValueError)):
        harmonic_sum_pairs(STAR_ODD, (1,), 1.5, 3.9)
    with pytest.raises((TypeError, ValueError)):
        harmonic_sum_pairs(STAR_ODD, (1,), 1, 3.9)


@pytest.mark.parametrize("spec, comp, n_min, n_max", PREFIX_CASES)
def test_pairs_are_the_prefixes_unreduced(spec, comp, n_min, n_max):
    pairs = list(harmonic_sum_pairs(spec, comp, n_min, n_max))
    assert all(type(num) is int and type(den) is int and den > 0 for num, den in pairs)
    assert [F(num, den) for num, den in pairs] == list(
        harmonic_sum_prefixes(spec, comp, n_min, n_max))


P61 = 2**61 - 1  # prime; every odd denominator below 4000 is a unit mod it


def _sum_mod_p61(spec, n, comp):
    """The same prefix recursion for odd parity, in integers modulo P61."""
    row = [1] * (n + 1)
    for e in comp:
        new, acc = [0] * (n + 1), 0
        for k in range(n):
            term = pow((2 * k + 1) ** abs(e), -1, P61)
            if e < 0 and k & 1:
                term = -term
            acc = (acc + row[k + 1 if spec.star else k] * term) % P61
            new[k + 1] = acc
        row = new
    return row[n]


@pytest.mark.parametrize("spec, comp", [(STRICT_ODD, (1, -2, 1)), (STAR_ODD, (2, -1)),
                                        (STAR_ODD, (1, -2, 1, 3))])
def test_n_2000_modulo_a_61_bit_prime(spec, comp):
    value = harmonic_sum(spec, 2000, comp)
    residue = value.numerator * pow(value.denominator, -1, P61) % P61
    assert residue == _sum_mod_p61(spec, 2000, comp)


def test_large_sum_leaves_no_memory_behind():
    # a per-entry row cache would keep megabytes per call at this size
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = harmonic_sum(STAR_ODD, 2000, (2, 1))
        assert value.denominator > 1
        del value
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20, retained


# -- the prefix-trie fold against the per-composition fold it replaced ---------

def _composition_fold(spec, comp, indices, skip, modulus=None):
    """Oracle: the fold of one composition on its own, level by level, as
    it stood before every composition became a chain of a prefix trie."""
    r = comp.depth
    mags = comp.magnitudes()
    signed = [e < 0 for e in comp.indices]
    star, odd = spec.star, spec.odd
    if star:
        heads = list(accumulate(mags))
        weight = heads[-1]
        rests = [weight - m for m in heads]
        prev = 1
    else:
        scale = max(mags)
    v = [1] + [0] * r
    for i, k in enumerate(indices):
        base = 2 * k + 1 if odd else k + 1
        flip = k & 1
        if star:
            term = v[0] = v[0] * prev ** weight
            for j in range(1, r + 1):
                term = v[j] = (v[j] * (prev ** rests[j - 1] * base ** heads[j - 1])
                               + (-term if flip and signed[j - 1] else term))
            prev = base
        else:
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


def _signed_grid(weight_max):
    """Every composition of weight <= weight_max, and a copy of each with
    alternating entries wherever position plus weight is even."""
    comps = [Composition(c) for c in compositions(weight_max)]
    signed = [Composition(tuple(-e if (j + c.weight) % 2 == 0 else e
                                for j, e in enumerate(c.indices))) for c in comps]
    return comps + [c for c in signed if not c.all_positive]


def _chain_pairs(spec, comp, indices, skip=0, modulus=None):
    return [(v[-1], den) for v, den in
            _fold(spec, PrefixTrie.chain(spec, comp), indices, skip, modulus)]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.ordering}-{s.parity}")
def test_chain_fold_gives_the_per_composition_pairs(spec):
    # identical unreduced integers, not merely equal values, at every n <= 40
    grid = _signed_grid(8)
    assert len(grid) > 400
    for comp in grid:
        assert (_chain_pairs(spec, comp, range(40))
                == list(_composition_fold(spec, comp, range(40), 0))), comp
    # one n near 300, and a reversed index order as rule 5 folds its tails
    for comp in grid[::9]:
        assert (_chain_pairs(spec, comp, range(297), 296)
                == list(_composition_fold(spec, comp, range(297), 296))), comp
        assert (_chain_pairs(spec, comp, range(30, 0, -1))
                == list(_composition_fold(spec, comp, range(30, 0, -1), 0))), comp


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.ordering}-{s.parity}")
def test_modular_chain_fold_gives_the_per_composition_residues(spec):
    for comp in _signed_grid(6):
        for n, p in ((12, 5), (12, 11), (25, 3), (33, 7), (40, 2)):
            if comp.depth > n:
                continue
            modulus = p ** max(_den_valuation(spec, n, comp, p), 1)
            got = _chain_pairs(spec, comp, range(n), n - 1, modulus)
            assert got[0][0] == next(_composition_fold(spec, comp, range(n), n - 1,
                                                       modulus))[0], (comp, n, p)
            assert got[0][0] == _chain_pairs(spec, comp, range(n), n - 1)[0][0] % modulus


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.ordering}-{s.parity}")
def test_grid_trie_gives_each_member_its_chain_pairs(spec):
    # one trie per key, as sweep builds them; every member's node carries
    # the pair of its own chain, and the trie has one node per prefix
    grid = _signed_grid(7)
    tries, members = {}, []
    for comp in grid:
        key = PrefixTrie.key_of(spec, comp)
        trie = tries.setdefault(key, PrefixTrie(key))
        members.append((comp, trie, trie.add(comp)))
        assert trie.add(comp) == members[-1][2]
    for trie in tries.values():
        prefixes = {(trie.parents[i], trie.entries[i]) for i in range(1, len(trie.parents))}
        assert len(prefixes) == len(trie.parents) - 1
    states = {trie: [(list(v), den) for v, den in _fold(spec, trie, range(30), 0)]
              for trie in tries.values()}
    for comp, trie, node in members:
        assert ([(v[node], den) for v, den in states[trie]]
                == _chain_pairs(spec, comp, range(30))), comp


def test_trie_key_and_chain_shape():
    comp = Composition((2, -3, 1))
    assert PrefixTrie.key_of(STRICT_ODD, comp) == 3
    assert PrefixTrie.key_of(STAR_ODD, comp) == 6
    chain = PrefixTrie.chain(STAR_ODD, comp)
    assert (chain.key, chain.parents, chain.entries) == (6, [0, 0, 1, 2], [0, 2, -3, 1])


# -- valuations without the value ---------------------------------------------

NEGATIVE_VALUATION_COMPS = ((1,), (3,), (-2,), (1, 1), (2, -1), (-1, 3), (1, 2, 1), (2, 1, -1))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.ordering}-{s.parity}")
def test_negative_valuation_matches_exact_valuation(spec):
    # every prime p < 2n against the brute-force value: the odd bases reach
    # 3**2, 5**2 and 7**2 by n = 25 and the standard ones 2**4, 3**2 and
    # 5**2, so the closed-form exponent of the unreduced denominator is
    # tested where it is more than a count of multiples
    checked = 0
    for n in range(1, 27):
        for comp in NEGATIVE_VALUATION_COMPS:
            if len(comp) > n or (not spec.odd and len(comp) > 1 and min(comp) < 0):
                continue
            value = harmonic_sum_brute(spec, n, comp)
            for p in filter(is_prime, range(2, 2 * n)):
                v = valuation(value, p)
                assert read_valuation(spec, n, comp, p) == (v if v < 0 else None), \
                    (n, comp, p, v)
                checked += 1
    assert checked > 1000


def test_negative_valuation_zero_residue():
    # v_23 of the strict odd (1,1) sum at n = 26 is +2: the fold's numerator
    # is 0 modulo 23**e, which says "not negative" and nothing more
    assert valuation(harmonic_sum(STRICT_ODD, 26, (1, 1)), 23) == 2
    assert read_valuation(STRICT_ODD, 26, (1, 1), 23) is None
    assert read_valuation(STRICT_ODD, 26, (1, 1), 47) == -1


# -- hypothesis: oracle equivalence and order properties ----------------------

@st.composite
def sum_instances(draw, max_n=9, max_depth=3, max_mag=4, signed=True):
    spec = draw(st.sampled_from(ALL_SPECS))
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(1, min(n, max_depth)))
    mags = draw(st.lists(st.integers(1, max_mag), min_size=r, max_size=r))
    if signed and (spec.parity == "odd" or r == 1):
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=r, max_size=r))
    else:
        signs = [1] * r
    comp = tuple(m * s for m, s in zip(mags, signs))
    return spec, n, comp


@settings(max_examples=120, deadline=None)
@given(sum_instances())
def test_eval_equals_bruteforce(instance):
    spec, n, comp = instance
    assert harmonic_sum(spec, n, comp) == harmonic_sum_brute(spec, n, comp)


@settings(max_examples=60, deadline=None)
@given(sum_instances(signed=False))
def test_strict_le_star_and_monotone_in_n(instance):
    spec, n, comp = instance
    strict = SumSpec("strict", spec.parity)
    star = SumSpec("star", spec.parity)
    assert harmonic_sum(strict, n, comp) <= harmonic_sum(star, n, comp)
    assert harmonic_sum(spec, n, comp) <= harmonic_sum(spec, n + 1, comp)


@settings(max_examples=60, deadline=None)
@given(sum_instances(max_n=8, max_mag=3))
def test_alternating_dominated_by_all_positive(instance):
    spec, n, comp = instance
    positive = tuple(abs(c) for c in comp)
    if spec.parity == "standard" and len(comp) > 1:
        comp = positive
    assert abs(harmonic_sum(spec, n, comp)) <= harmonic_sum(spec, n, positive)


# -- dominance order ----------------------------------------------------------

def test_dominates_examples():
    assert dominates((1, 2, 1), (1, 1, 1))
    assert dominates((2, 3), (2, 3))           # split at l = 0 with equality
    assert not dominates((1, 1), (2, 1))       # weight clause fails
    with pytest.raises(ValueError):
        dominates((1, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        dominates((1, -1), (1, 1))


def test_dominance_forces_order_exhaustively():
    comps = [c for c in compositions(5) if len(c) in (2, 3)]
    for s in comps:
        for t in comps:
            if len(s) != len(t) or not dominates(s, t):
                continue
            for n in (3, 6):
                assert (harmonic_sum(STRICT_ODD, n, s)
                        <= harmonic_sum(STRICT_ODD, n, t)), (s, t, n)


def test_ones_power_bound():
    assert ones_power_bound(1, 1) == 1
    assert ones_power_bound(2, 1) == F(4, 3)
    assert ones_power_bound(2, 2) == F(8, 9)
    with pytest.raises(ValueError):
        ones_power_bound(2, 3)


def test_all_ones_chain_bound():
    for n in range(1, 15):
        for r in range(1, min(n, 6) + 1):
            assert harmonic_sum(STRICT_ODD, n, (1,) * r) <= ones_power_bound(n, r)


# -- composition generator -----------------------------------------------------

def test_compositions_graded_lex_order():
    got = list(compositions(4))
    expected_prefix = [
        (1,),
        (2,), (1, 1),
        (3,), (1, 2), (2, 1), (1, 1, 1),
        (4,), (1, 3), (2, 2), (3, 1),
    ]
    assert got[: len(expected_prefix)] == expected_prefix
    # 2^(w-1) compositions of weight w
    assert len(got) == sum(2 ** (w - 1) for w in range(1, 5))
    assert len(set(got)) == len(got)


def test_compositions_depth_cap():
    got = list(compositions(4, depth_max=2))
    assert all(len(c) <= 2 for c in got)
    assert (1, 1, 1) not in got
    assert (2, 2) in got


def _compositions_by_bitmask(weight_max, depth_max):
    """Every composition of weight <= weight_max, one per subset of cut
    points in 1..w-1 read from a bitmask, sorted by (weight, depth, entries)."""
    comps = []
    for w in range(1, weight_max + 1):
        for mask in range(2 ** (w - 1)):
            bounds = [0] + [i for i in range(1, w) if mask >> (i - 1) & 1] + [w]
            comp = tuple(b - a for a, b in zip(bounds, bounds[1:]))
            if depth_max is None or len(comp) <= depth_max:
                comps.append(comp)
    return sorted(comps, key=lambda c: (sum(c), len(c), c))


def test_compositions_match_bitmask_enumeration():
    cases = [(w, d) for w in range(-1, 13) for d in (None, *range(max(w, 0) + 1))]
    assert len(cases) == 106
    for weight_max, depth_max in cases:
        assert (list(compositions(weight_max, depth_max))
                == _compositions_by_bitmask(weight_max, depth_max)), (weight_max, depth_max)
