"""Benchmark of oddharmonic: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  The run makes its inputs from --seed, then runs whole
passes over them, each in a fresh worker process (one call at a time),
until --seconds of passes are spent.  The outputs of the first pass are
checked against computations made apart from the program (checks.py);
every later pass must reproduce them exactly.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones: setup_s, ok_items_per_s,
item_p50_ms and peak_rss_mb.  With --trace 1 the passes alternate between
untraced and traced workers and the metrics are the per-layer ones
(tracing.py), each the median over the traced passes of one pass's value,
plus trace.overhead_ratio.  Results and spans are written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES_PER_PASS = 2  # spread over the run, so slow drift of the host averages out
MIN_PASSES = 3
WORKER_TIMEOUT_S = 100

# A fresh interpreter that times only `import oddharmonic` (and its CLI
# module, which the CLI workloads need) from the checkout's src/.
_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import oddharmonic, oddharmonic.cli\n"
    "t = time.perf_counter() - t\n"
    "print(repr(t), oddharmonic.__file__)\n"
)


class BenchError(RuntimeError):
    pass


def measure_setup(samples: int) -> list[float]:
    """Import time of `samples` fresh processes."""
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import oddharmonic failed:\n{proc.stderr.strip()}")
        seconds, path = proc.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve().parent != SRC / "oddharmonic":
            raise BenchError(f"imported oddharmonic from {path.strip()}")
        times.append(float(seconds))
    return times


def run_worker(workload: str, inputs, trace: bool, values: bool) -> dict:
    job = {"workload": workload, "inputs": inputs, "trace": trace, "values": values}
    proc = subprocess.run([sys.executable, "-I", str(BENCH / "worker.py")],
                          input=pickle.dumps(job), capture_output=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n"
                         f"{proc.stderr.decode(errors='replace').strip()}")
    return pickle.loads(proc.stdout)


# --- checks ---------------------------------------------------------------

def expected_sweep_keys(argv: list[str]) -> list[tuple[int, tuple[int, ...]]]:
    """(n, composition) of every line `sweep` must print, enumerated here."""
    lo = int(argv[argv.index("--n-min") + 1])
    hi = int(argv[argv.index("--n-max") + 1])
    w_max = int(argv[argv.index("--weight-max") + 1])
    comps = []

    def extend(prefix, left):
        if left == 0:
            comps.append(prefix)
        for first in range(1, left + 1):
            extend(prefix + (first,), left - first)

    for w in range(1, w_max + 1):
        extend((), w)
    return sorted((n, c) for n in range(lo, hi + 1) for c in comps if len(c) <= n)


def check_sweep(first: dict) -> list[str]:
    errors = []
    values = first["values"]
    for argv, lines in first["outputs"]:
        modular = checks.ModularChecker()
        star = "--star" in argv
        docs = [json.loads(line) for line in lines]
        keys = sorted((d["n"], checks.parse_composition(d["composition"])) for d in docs)
        if keys != expected_sweep_keys(argv):
            errors.append(f"{' '.join(argv)}: printed cases differ from the grid")
        for doc in docs:
            n, comp = doc["n"], checks.parse_composition(doc["composition"])
            value = values[(star, n, comp)]
            problem = (modular.check(star, n, comp, value)
                       or checks.check_certificate(doc, value))
            if problem:
                errors.append(f"{' '.join(argv)} n={n} comp={doc['composition']}: {problem}")
    return errors


def check_large_n(inputs, first: dict) -> list[str]:
    errors = []
    for (call, n, comp), out in zip(inputs, first["outputs"]):
        if out is None:
            continue
        modular = checks.ModularChecker()  # every item has its own n
        star = call in ("sum_star", "verify_star")
        if call.startswith("sum"):
            problem = modular.check(star, n, comp, out)
        else:
            value = first["values"][(star, n, comp)]
            problem = modular.check(star, n, comp, value)
            if not problem and (out.get("n"), out.get("composition")) != (
                    n, ",".join(map(str, comp))):
                problem = "certificate is for another case"
            problem = problem or checks.check_certificate(out, value)
            if not problem and star and out["kind"] != "StarValuation":
                problem = f"star sum certified by {out['kind']}"
        if problem:
            errors.append(f"{call} n={n} comp={comp}: {problem}")
    return errors


IDENTITY_HEADER = "suite,n,s,m,x,sign,lhs,rhs,equal"


def check_identities(first: dict) -> list[str]:
    errors = []
    checker = checks.IdentityChecker()
    for argv, lines in first["outputs"]:
        if not lines or lines[0] != IDENTITY_HEADER:
            errors.append(f"{' '.join(argv)}: missing CSV header")
            continue
        for line in lines[1:]:
            problem = checker.check_row(line)
            if problem:
                errors.append(f"{line[:60]}: {problem}")
    return errors


def check_first_pass(workload: str, inputs, first: dict) -> list[str]:
    if workload == "sweep":
        return check_sweep(first)
    if workload == "large_n":
        return check_large_n(inputs, first)
    return check_identities(first)


def item_count(workload: str, outputs) -> int:
    """Items of a pass that completed (a failed item prints nothing)."""
    if workload == "large_n":
        return sum(out is not None for out in outputs)
    # every printed line is an item, except the CSV header
    header = 1 if workload == "identities" else 0
    return sum(len(lines) - header for _, lines in outputs)


# --- the run --------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = workloads.make_inputs(workload, seed)
    measure_setup(1)  # warm-up: writes the bytecode cache of a fresh checkout

    setup: list[float] = []
    passes: list[dict] = []
    walls: list[float] = []
    errors: list[str] = []
    first = spans = None
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t = time.perf_counter()
        if not trace:
            setup += measure_setup(SETUP_SAMPLES_PER_PASS)
        result = run_worker(workload, inputs, traced, values=first is None)
        walls.append(time.perf_counter() - t)
        # Keep the first pass's outputs for the checks; later passes are
        # compared with them right away and dropped.
        if first is None:
            first = result
        elif result["outputs"] != first["outputs"]:
            errors.append(f"pass {len(passes) + 1} printed other outputs than pass 1")
        items = item_count(workload, result["outputs"])
        summary = {"traced": traced, "items": items, "rate": items / result["elapsed"],
                   "latencies": result["latencies"], "failures": result["failures"],
                   "peak_rss_mb": result["peak_rss_mb"]}
        if traced:
            summary["layers"] = tracing.layer_metrics(result["spans"])
            spans = spans or result["spans"]
        passes.append(summary)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break

    errors = check_first_pass(workload, inputs, first) + errors
    for msg in errors[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    for msg in first["failures"][:20]:
        print(f"item failed: {msg}", file=sys.stderr)
    failed = sum(len(p["failures"]) for p in passes)
    attempted = sum(p["items"] for p in passes) + failed

    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    if not trace:
        latencies = [x for p in plain for x in p["latencies"]]
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "ok_items_per_s": metric(statistics.median(p["rate"] for p in plain), "1/s"),
            "item_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
            "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
        }
    else:
        layers = [p["layers"] for p in passes if p["traced"]]
        for name in layers[0]:
            unit = tracing.unit_of(name)
            # counts repeat exactly between passes; median_low keeps them integers
            middle = statistics.median_low if unit in ("count", "bit") else statistics.median
            metrics[name] = metric(middle(m[name] for m in layers), unit)
        metrics["trace.overhead_ratio"] = metric(
            statistics.median(p["rate"] for p in passes if p["traced"])
            / statistics.median(p["rate"] for p in plain), "ratio")
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(OUT / f"spans-{workload}.csv", spans)

    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics, "passes": len(passes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oddharmonic" / "__init__.py").is_file():
        print(f"error: no oddharmonic sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = result.pop("passes")
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    print(f"{args.workload} seed={args.seed}: {passes} passes, "
          f"{result['attempted']} items attempted, {result['failed']} failed, "
          f"correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
