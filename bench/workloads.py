"""The three workloads: their inputs, made from a seed, and one pass over them.

`make_inputs` runs in the benchmark's parent process and turns a seed into
plain data.  `run_pass` runs in a fresh worker process (see worker.py) and
feeds that data to the program one call at a time, so every pass starts
with cold program caches, as a command-line invocation would.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

WORKLOADS = ("sweep", "large_n", "identities")

# sweep: `oddharmonic sweep` over n = 2..SWEEP_N_MAX at weight <= SWEEP_WEIGHT,
# strict and star.  The grid is the same for every seed so that every seed
# costs the same; the seed only cuts each family's n-range into
# SWEEP_CALLS_PER_FAMILY calls.  The calls run in order of n, strict first:
# the row cache outlives a call, so another order would change what it
# holds at the end of a pass and with it the peak memory.
SWEEP_N_MAX = 40
SWEEP_WEIGHT = 8
SWEEP_CALLS_PER_FAMILY = 4

# large_n: one library call per item, each at its own n.  The seed draws
# one composition per pair; the pair's second item takes it reversed, at
# the next n.  The row DP costs more when the early entries are large, so
# reversal evens out the cost of a pair.  The items whose cost depends
# most on the draw (depth 3) sit at the low end of the n range, away from
# the items that set the median and the pass time, and depth 2 uses
# weight 3, the smallest that leaves the seed a choice.
LARGE_N_LO, LARGE_N_HI = 400, 2000
# (call, depth, weight) of each pair, in order of increasing n
LARGE_N_PAIRS = (
    ("verify_star", 3, 4),
    ("sum_alternating", 3, 4),
    ("verify_strict", 3, 4),
    ("sum_strict", 3, 4),
    ("sum_star", 3, 4),
    ("verify_strict", 3, 4),
    ("sum_star", 2, 3),
    ("verify_strict", 2, 3),
    ("sum_alternating", 2, 3),
    ("sum_strict", 2, 3),
    ("verify_star", 2, 3),
    ("sum_alternating", 2, 3),
    ("verify_strict", 2, 3),
    ("sum_strict", 2, 3),
    ("sum_star", 2, 3),
)


def make_inputs(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return _sweep_calls(rng)
    if workload == "large_n":
        return _large_n_items(rng)
    if workload == "identities":
        return [["identity-check", "all", "--seed", str(seed)]]
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_calls(rng: random.Random) -> list[list[str]]:
    calls = []
    for family in ("--strict", "--star"):
        cuts = sorted(rng.sample(range(3, SWEEP_N_MAX + 1), SWEEP_CALLS_PER_FAMILY - 1))
        bounds = [2] + cuts + [SWEEP_N_MAX + 1]
        for lo, hi in zip(bounds, bounds[1:]):
            calls.append(["sweep", "--n-min", str(lo), "--n-max", str(hi - 1),
                          "--weight-max", str(SWEEP_WEIGHT), family])
    return calls


def _random_composition(rng: random.Random, depth: int, weight: int) -> tuple[int, ...]:
    cuts = sorted(rng.sample(range(1, weight), depth - 1))
    bounds = [0] + cuts + [weight]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _large_n_items(rng: random.Random) -> list[tuple[str, int, tuple[int, ...]]]:
    count = 2 * len(LARGE_N_PAIRS)
    ratio = LARGE_N_HI / LARGE_N_LO
    ns = [round(LARGE_N_LO * ratio ** (i / (count - 1))) for i in range(count)]
    items = []
    for j, (call, depth, weight) in enumerate(LARGE_N_PAIRS):
        comp = _random_composition(rng, depth, weight)
        if call == "sum_alternating":
            signs = [rng.choice((1, -1)) for _ in comp]
            signs[rng.randrange(depth)] = -1
            comp = tuple(s * c for s, c in zip(signs, comp))
        items.append((call, ns[2 * j], comp))
        items.append((call, ns[2 * j + 1], comp[::-1]))
    return items


class LineClock(io.TextIOBase):
    """A stdout stand-in that keeps each output line and the time its
    newline was written.  Each line is one benchmark item."""

    def __init__(self, tracer=None):
        self.lines: list[str] = []
        self.times: list[float] = []
        self._part: list[str] = []
        self._tracer = tracer

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        length = len(text)
        while text:
            head, newline, text = text.partition("\n")
            self._part.append(head)
            if not newline:
                break
            self.times.append(time.perf_counter())
            self.lines.append("".join(self._part))
            self._part = []
            if self._tracer is not None:
                self._tracer.item += 1
        return length


def _run_cli(main, argv_list, tracer):
    """Each argv through `cli.main`; item latency is the gap between output lines."""
    outputs, latencies, failures = [], [], []
    for argv in argv_list:
        out, err = LineClock(tracer), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = main(argv)
        prev = start
        for t in out.times:
            latencies.append(t - prev)
            prev = t
        outputs.append((argv, out.lines))
        failed = [ln for ln in err.getvalue().splitlines() if ln.startswith("FAIL ")]
        failures.extend(failed)
        if code != 0 and not failed:
            failures.append(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
    return outputs, latencies, failures


def _run_large_n(oh, items, tracer):
    specs = {"sum_strict": oh.STRICT_ODD, "sum_star": oh.STAR_ODD,
             "sum_alternating": oh.STRICT_ODD}
    verifiers = {"verify_strict": oh.verify_odd_noninteger,
                 "verify_star": oh.verify_star_noninteger}
    outputs, latencies, failures = [], [], []
    for i, (call, n, comp) in enumerate(items):
        if tracer is not None:
            tracer.item = i
        start = time.perf_counter()
        try:
            if call in specs:
                out = oh.harmonic_sum(specs[call], n, comp)
            else:
                out = verifiers[call](n, comp).to_json()
        except Exception as exc:  # a failed item is counted, not fatal
            failures.append(f"{call} n={n} comp={comp}: {type(exc).__name__}: {exc}")
            out = None
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
    return outputs, latencies, failures


def run_pass(workload: str, inputs, tracer=None) -> dict:
    """One timed pass; returns outputs, per-item latencies and failures."""
    import oddharmonic as oh
    from oddharmonic import cli

    start = time.perf_counter()
    if workload == "large_n":
        outputs, latencies, failures = _run_large_n(oh, inputs, tracer)
    else:
        outputs, latencies, failures = _run_cli(cli.main, inputs, tracer)
    elapsed = time.perf_counter() - start
    return {"outputs": outputs, "latencies": latencies, "failures": failures,
            "elapsed": elapsed}


def checked_values(workload: str, inputs, outputs) -> dict:
    """Exact values behind the certificates of a pass, for the checks.

    Runs after the timed pass, in the same process, through the public
    `harmonic_sum`; the checks then hold each value to the modular
    evaluation before they trust it.
    """
    import oddharmonic as oh

    values = {}
    if workload == "sweep":
        for argv, lines in outputs:
            star = "--star" in argv
            spec = oh.STAR_ODD if star else oh.STRICT_ODD
            for line in lines:
                doc = _cert_key(line)
                values[(star,) + doc] = oh.harmonic_sum(spec, doc[0], doc[1])
    elif workload == "large_n":
        for (call, n, comp), out in zip(inputs, outputs):
            if call.startswith("verify") and out is not None:
                star = call == "verify_star"
                values[(star, n, comp)] = oh.harmonic_sum(
                    oh.STAR_ODD if star else oh.STRICT_ODD, n, comp)
    return values


def _cert_key(line: str) -> tuple[int, tuple[int, ...]]:
    doc = json.loads(line)
    return doc["n"], tuple(int(t) for t in doc["composition"].split(","))
