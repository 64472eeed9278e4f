"""Command-line front end: eval, verify, sweep, table, bounds, identity-check.

Exit codes: 0 on success, 1 when a check fails, 2 on usage errors, and
141 (128 + SIGPIPE) when stdout is closed before the output ends.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import groupby

from . import hyper, primes
from .certificates import (
    _Point,
    _verify,
    decimal_bound_checks,
)
from .sums import (
    STAR_ODD,
    STRICT_ODD,
    STRICT_STANDARD,
    Composition,
    PrefixTrie,
    SumSpec,
    _fold,
    compositions,
    harmonic_sum,
    harmonic_sum_prefixes,
)

_X_DEFAULT = "1,1/2,1/3,2/5"

SUITES = ("powersum", "alt-powersum", "depth1", "chu", "blocks", "inversion", "all")


def _odd_spec(args) -> SumSpec:
    """STAR_ODD or STRICT_ODD from the flags of `verify` and `sweep`."""
    if args.parity == "standard":
        raise ValueError(f"{args.command} covers odd sums only; drop --standard")
    return STAR_ODD if args.ordering == "star" else STRICT_ODD


def _add_spec_flags(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--star", dest="ordering", action="store_const",
                       const="star", help="weakly increasing indices")
    group.add_argument("--strict", dest="ordering", action="store_const",
                       const="strict", help="strictly increasing indices (default)")
    parser.set_defaults(ordering="strict")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--odd", dest="parity", action="store_const",
                       const="odd", help="denominators 2k+1")
    group.add_argument("--standard", dest="parity", action="store_const",
                       const="standard", help="denominators k")
    parser.set_defaults(parity="odd")


def _cmd_eval(args) -> int:
    comp = Composition.parse(args.comp)
    value = harmonic_sum(SumSpec(args.ordering, args.parity), args.n, comp)
    if args.format == "json":
        # a Fraction's text is digits, "-" and "/", which JSON writes as they are
        print(f'{{"value": "{value}"}}')
    else:
        print(value)
    return 0


def _cmd_verify(args) -> int:
    cert = _verify(_odd_spec(args), args.n, Composition.parse(args.comp))
    if args.format == "plain":
        print(f"{cert.kind} n={cert.n} comp={cert.composition} "
              f"prime={cert.prime} valuation={cert.valuation} bound={cert.bound}")
    else:
        print(cert.json_line())
    return 0


# `sweep` refuses a grid whose estimated footprint is more than this.
SWEEP_STATE_LIMIT_BYTES = 256 << 20

# Bytes that `sweep` holds beside its integers' digits, measured with
# tracemalloc and rounded up: per trie node (its trie entries, index key,
# fold step and integer header), per composition (its Composition and row),
# and once (its loop, and up to 8 KiB of lines held by stdout's text layer).
_NODE_BYTES, _COMPOSITION_BYTES, _SWEEP_BYTES = 320, 1100, 30 << 10


def _odd_product_bits(n: int) -> int:
    """Sum of the bit lengths of 1, 3, ..., 2n-1, an upper bound on the bit
    length of their product, in closed form per bit length."""
    bits, lo, top = 0, 1, 2 * n - 1
    while lo <= top:
        hi = min(2 * lo - 1, top)  # every integer in [lo, hi] has lo's bit length
        bits += ((hi + 1) // 2 - lo // 2) * lo.bit_length()
        lo *= 2
    return bits


def _sweep_state_bytes(n_min: int, n_max: int, weight_max: int, depth_max: int,
                       star: bool) -> int:
    """Estimated bytes the sweep holds at n_max, 0 for an empty grid: the
    overheads above, and at 4 bytes per 30 bits its tries' integers and
    the fold's temporaries: a strict trie of key m keeps a product of m
    keys' worth, and a step or value check makes three of weight_max keys'
    worth; a star sweep holds M and three products, a node's worth each."""
    bits, nodes, comps = _sweep_state(n_min, n_max, weight_max, depth_max, star)
    if not comps:
        return 0
    bits += 4 * (bits // nodes) if star else (
        weight_max * (weight_max + 7) // 2 * _odd_product_bits(n_max))
    return bits * 4 // 30 + nodes * _NODE_BYTES + comps * _COMPOSITION_BYTES + _SWEEP_BYTES


def _sweep_state(n_min: int, n_max: int, weight_max: int, depth_max: int,
                 star: bool) -> tuple[int, int, int]:
    """Upper bounds on the bits of the integers the sweep's tries hold at
    n_max and on their number, and the number of compositions.

    A trie holds the empty prefix, a star trie also its denominator, and
    each composition of weight w and depth d (there are C(w-1, d-1)) is a
    node of the trie of its own key and, below the depth limit, of each
    trie it reaches with one more entry, at most weight_max - w of them
    (exactly that many for star sums, whose key is the weight).

    Strict tries fold exactly, so each integer has at most the bit length
    of its trie's unreduced denominator, the product of (2k+1)**m over
    k < n_max for a trie of key m.  Strict keys m <= weight_max - w reach
    a composition of weight w, so its nodes' keys sum to at most w +
    T(weight_max - w), T(x) = x(x+1)/2.  Star tries fold modulo M, the
    product of at most n_max - max(n_min, 2) + 1 distinct primes below
    2n_max, and M < 4**(2n_max) as well (Erdős: the primes up to x
    multiply to less than 4**x).  A star node holds a residue below M,
    times at most (2n_max)**weight_max before it is reduced.  Nothing is
    enumerated or evaluated, and no prime is searched for.
    """
    if n_min > n_max or min(weight_max, depth_max) < 1:
        return 0, 0, 0
    depth = min(depth_max, n_max)

    def triangle(x: int) -> int:
        return x * (x + 1) // 2

    nodes, keys, comps = weight_max * (1 + star), triangle(weight_max), 0
    for w in range(1, weight_max + 1):
        for d in range(1, min(w, depth) + 1):
            count, extends = math.comb(w - 1, d - 1), d < depth
            comps += count
            nodes += count * (1 + (weight_max - w) * extends)
            keys += count * (w + triangle(weight_max - w) * extends)
    if not star:
        return keys * _odd_product_bits(n_max), nodes, comps
    top = (2 * n_max - 1).bit_length()
    m_bits = min((n_max - max(n_min, 2) + 1) * top, 4 * n_max)
    return nodes * (m_bits + weight_max * top + 1), nodes, comps


def _sweep_grid(spec: SumSpec, n_lo: int, weight_max: int, depth_max: int):
    """One prefix trie per key, and in graded-lex order one row (comp,
    first n, trie, node) per composition of the grid."""
    tries, rows = {}, []
    for comp_t in compositions(weight_max, depth_max):
        comp = Composition(comp_t)
        key = PrefixTrie.key_of(spec, comp)
        if key not in tries:
            tries[key] = PrefixTrie(key)
        trie = tries[key]
        rows.append((comp, max(n_lo, comp.depth), trie, trie.add(comp)))
    return list(tries.values()), rows


def _cmd_sweep(args) -> int:
    spec = _odd_spec(args)
    depth_max = args.depth_max if args.depth_max is not None else args.weight_max
    state = _sweep_state_bytes(args.n_min, args.n_max, args.weight_max, depth_max, spec.star)
    if state > SWEEP_STATE_LIMIT_BYTES:
        raise ValueError(f"sweep would hold about {state >> 20} MiB, over "
                         f"its limit of {SWEEP_STATE_LIMIT_BYTES >> 20} MiB; "
                         "lower --n-max, --weight-max or --depth-max")
    n_lo = max(args.n_min, 1)
    if n_lo > args.n_max:
        return 0
    # The compositions sharing a key share one trie, and the tries advance
    # in lockstep over n; a composition has rows from n = its depth on.
    # One point per n holds what its rows share.  Each row is certified from
    # its node's (num, den) pair and written from the certificate's fields:
    # no Fraction and no Certificate is built.  A star row is decided by
    # rule 1 alone, from num modulo its Bertrand prime p, so the star tries
    # fold modulo M, the product of the points' own primes (one per run, as
    # bertrand_prime is nondecreasing in n): each node then holds a residue
    # below M, giving num modulo p at every n, which is all rule 1 reads.
    # Strict rows may need num modulo higher powers, or the value, so they
    # fold exactly.
    tries, rows = _sweep_grid(spec, n_lo, args.weight_max, min(depth_max, args.n_max))
    modulus = None
    if spec.star:
        bertrand = map(primes.bertrand_prime, range(max(n_lo, 2), args.n_max + 1))
        modulus = math.prod(p for p, _ in groupby(bertrand))
    folds = [_fold(spec, trie, range(args.n_max), n_lo - 1, modulus) for trie in tries]
    write, failures = sys.stdout.write, 0
    for point in (_Point(spec, n) for n in range(n_lo, args.n_max + 1)):
        n, line = point.n, point.line
        states = {trie: next(fold) for trie, fold in zip(tries, folds)}
        for comp, start, trie, node in rows:
            if n < start:
                continue
            v, den = states[trie]
            try:
                text = line(comp, (v[node], den))
            except RuntimeError as exc:
                print(f"FAIL n={n} comp={comp}: {exc}", file=sys.stderr)
                failures += 1
                continue
            write(text + "\n")
    return 1 if failures else 0


def _cmd_table(args) -> int:
    reports = [primes.window_report(r, args.cap, args.run)
               for r in range(1, args.r_max + 1)]
    if args.format == "latex":
        print(r"\begin{tabular}{|c|" + "c|" * min(10, len(reports)) + "}")
        print(r"\hline")
        for start in range(0, len(reports), 10):
            chunk = reports[start : start + 10]
            print("$r$ & " + " & ".join(str(rep.r) for rep in chunk) + r" \\")
            print(r"\hline")
            print("$n_r$ & " + " & ".join(str(rep.threshold) for rep in chunk) + r" \\")
            print(r"\hline")
        print(r"\end{tabular}")
    else:
        print("r,max_nonmember,n_r")
        for rep in reports:
            print(f"{rep.r},{rep.max_nonmember},{rep.threshold}")
    return 0


def _cmd_bounds(args) -> int:
    checks = decimal_bound_checks()
    all_ok = all(c.ok for c in checks)
    if args.format == "plain":
        for c in checks:
            status = "OK" if c.ok else "FAIL"
            print(f"odd sum n={c.n} comp={','.join(map(str, c.composition))} "
                  f"< {c.threshold}: {status}")
    else:
        print("n,composition,threshold,ok,value")
        for c in checks:
            comp = " ".join(map(str, c.composition))
            print(f"{c.n},{comp},{c.threshold},{c.ok},{c.value}")
    return 0 if all_ok else 1


def _parse_x_list(text: str) -> list[Fraction]:
    xs = []
    for tok in map(str.strip, text.split(",")):
        try:
            xs.append(Fraction(tok))
        except ZeroDivisionError:
            raise ValueError(f"--x-list entry {tok!r} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"--x-list entry {tok!r} is not a rational") from None
    return xs


def _or(value, default):
    """The flag's value, or its default when the flag was not given."""
    return default if value is None else value


def _identity_rows(suite, n_max, s_max, m_max, xs, seed, count):
    """Yield (suite, n, s, m, x, sign, lhs, rhs) rows for one suite."""
    if suite in ("powersum", "alt-powersum"):
        n_max, s_max = _or(n_max, 20), _or(s_max, 4)
        sign = -1 if suite == "alt-powersum" else 1
        groups = [(s, x, hyper.odd_power_sum_identity_prefixes(n_max, s, x, sign))
                  for s in range(1, s_max + 1) for x in xs]
        for n in range(1, n_max + 1):
            for s, x, sides in groups:
                lhs, rhs = next(sides)
                yield (suite, n, s, "", x, "", lhs, rhs)
    elif suite == "depth1":
        n_max, s_max = _or(n_max, 30), _or(s_max, 5)
        groups = [(s, sign,
                   hyper.harmonic_via_hyper_prefixes(n_max, s, sign, parity="odd"),
                   harmonic_sum_prefixes(STRICT_ODD, (sign * s,), 1, n_max),
                   hyper.harmonic_via_hyper_prefixes(n_max, s, sign, parity="standard"),
                   harmonic_sum_prefixes(STRICT_STANDARD, (sign * s,), 1, n_max))
                  for s in range(1, s_max + 1) for sign in (1, -1)]
        for n in range(1, n_max + 1):
            for s, sign, odd, odd_direct, standard, standard_direct in groups:
                yield (suite, n, s, "", "", sign, next(odd), next(odd_direct))
                yield ("depth1-standard", n, s, "", "", sign, next(standard),
                       next(standard_direct))
        odd_direct = harmonic_sum_prefixes(STRICT_ODD, (1,), 1, 50)
        standard_direct = harmonic_sum_prefixes(STRICT_STANDARD, (1,), 1, 50)
        for n in range(1, 51):
            yield ("closed-form", n, 1, "", "", "",
                   hyper.odd_harmonic_closed_form(n), next(odd_direct))
            yield ("euler", n, 1, "", "", "",
                   hyper.euler_binomial_harmonic(n), next(standard_direct))
    elif suite == "chu":
        n_max, count = _or(n_max, 10), _or(count, 50)
        rng = random.Random(seed)
        for _ in range(count):
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            while True:
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if not (c.denominator == 1 and c <= 0 and -c < n_max):
                    break
            for n, (lhs, rhs) in enumerate(hyper.chu_vandermonde_prefixes(n_max, b, c)):
                yield (suite, n, "", "", f"{b};{c}", "", lhs, rhs)
    elif suite == "blocks":
        n_max, m_max = _or(n_max, 30), _or(m_max, 8)
        for m in range(1, m_max + 1):
            sides = hyper.consecutive_product_sum_prefixes(m, n_max)
            for n, (via, direct) in enumerate(sides, start=1):
                yield (suite, n, "", m, "", "", via, direct)
        direct = zip(hyper.consecutive_product_sums(1, n_max),
                     harmonic_sum_prefixes(STRICT_ODD, (1,), 1, n_max))
        for n, (block, value) in enumerate(direct, start=1):
            yield ("blocks-depth1", n, "", 1, "", "", block, value)
    elif suite == "inversion":
        n_max, s_max, m_max = _or(n_max, 15), _or(s_max, 3), _or(m_max, 5)
        for s in range(1, s_max + 1):
            for sign in (1, -1):
                rows = hyper.alternating_binomial_sums(
                    harmonic_sum_prefixes(STRICT_ODD, (sign * s,), 1, n_max))
                series = hyper.pfq_rows((hyper.HALF,) * s, (hyper.THREE_HALVES,) * s, sign)
                for n, (rhs, lhs) in enumerate(zip(rows, series), start=1):
                    yield (suite, n, s, "", "", sign, lhs, rhs)
        for m in range(1, m_max + 1):
            rows = hyper.alternating_binomial_sums(hyper.consecutive_product_sums(m, n_max))
            for n, row in enumerate(rows, start=1):
                lhs = hyper.pfq((1, 1 - n), (m + n,), -1)
                rhs = math.factorial(m - 1) * (m + n - 1) * row
                yield ("inversion-blocks", n, "", m, "", "", lhs, rhs)
        rng = random.Random(seed)
        f = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(8)]
        back = hyper.binomial_transform(hyper.binomial_inversion(f))
        for i, (a, b) in enumerate(zip(f, back), start=1):
            yield ("inversion-roundtrip", i, "", "", "", "", a, b)
    else:
        raise ValueError(f"unknown identity suite {suite!r}")


def _cmd_identity(args) -> int:
    for flag in ("n_max", "s_max", "m_max", "count"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ValueError(f"--{flag.replace('_', '-')} must be at least 1, got {value}")
    xs = _parse_x_list(args.x_list)
    suites = [s for s in SUITES if s != "all"] if args.suite == "all" else [args.suite]
    print("suite,n,s,m,x,sign,lhs,rhs,equal")
    all_equal = True
    for suite in suites:
        for row in _identity_rows(suite, args.n_max, args.s_max, args.m_max,
                                  xs, args.seed, args.count):
            name, n, s, m, x, sign, lhs, rhs = row
            equal = lhs == rhs
            all_equal &= equal
            print(f"{name},{n},{s},{m},{x},{sign},{lhs},{rhs},{equal}")
    return 0 if all_equal else 1


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="oddharmonic",
        description="Exact multiple harmonic sums, non-integrality "
                    "certificates, prime-window tables, and hypergeometric "
                    "identity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one sum exactly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--comp", required=True, help='composition, e.g. "1,2,-3"')
    _add_spec_flags(p)
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="emit a non-integrality certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--comp", required=True)
    _add_spec_flags(p)
    p.add_argument("--format", choices=("plain", "json"), default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="verify a grid of n and compositions")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--weight-max", type=int, required=True)
    p.add_argument("--depth-max", type=int, default=None)
    _add_spec_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table", help="prime-window threshold table")
    p.add_argument("which", choices=("nr",))
    p.add_argument("--r-max", type=int, default=20)
    p.add_argument("--cap", type=int, default=primes.SCAN_CAP)
    p.add_argument("--run", type=int, default=primes.SCAN_RUN)
    p.add_argument("--format", choices=("csv", "latex"), default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("bounds", help="check the decimal reference bounds exactly")
    p.add_argument("--format", choices=("csv", "plain"), default="csv")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("identity-check", help="run an identity suite as CSV")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--s-max", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--x-list", default=_X_DEFAULT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(func=_cmd_identity)

    return parser


def _joined_lists(argv: list[str]) -> list[str]:
    """argv with "--comp -1,2" written as "--comp=-1,2", and so for
    --x-list.  argparse (in Python 3.10 to 3.13.0 at least) reads a word
    that starts with "-" as an option unless all of it is one negative
    number, so "--comp -1,2" would lack its value."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] in ("--comp", "--x-list") and word[:1] == "-" and word[1:2].isdigit():
            out[-1] += f"={word}"
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_joined_lists(sys.argv[1:] if argv is None else argv))
    # Exact values and bounds can run past the interpreter's default limit
    # on int-to-decimal conversion; lift it for this call only.
    saved_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader has gone: point stdout at devnull, so that flushing it
        # at exit raises nothing more, and end as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        sys.set_int_max_str_digits(saved_limit)


if __name__ == "__main__":
    sys.exit(main())
