"""Steadiness of the benchmark: run each workload once per seed, report spreads.

    python3 bench/steady.py --seeds 1-10
    python3 bench/steady.py --workloads large_n --seeds 1-5 --seconds 10
    python3 bench/steady.py --seeds 11-20 --against bench/out/steady-<stamp>.json

For every metric of every workload it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread, the distance between
the quartiles as a share of the median.  For end-to-end metrics it also
prints the bound from BENCHMARK.json and flags a spread above a third of
the bound, and, with --against, the drift of the median from an earlier
record, flagged when it is worse by more than the bound.  The raw values
are written to bench/out/steady-<stamp>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def worse_by(metric: dict, old: float, new: float) -> float:
    """How much worse `new` is than `old`, as a share of `old`."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main() -> int:
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", type=Path, help="an earlier steady-*.json")
    args = parser.parse_args()

    bounds = {m["name"]: m for m in config["end_to_end"]}
    earlier = json.loads(args.against.read_text())["runs"] if args.against else {}
    seeds = parse_seeds(args.seeds)
    record = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "runs": {}}
    flagged = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            started = time.perf_counter()
            result = run_once(workload, seed, args.seconds, args.trace)
            result["wall_s"] = time.perf_counter() - started
            runs.append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s wall, "
                  f"correct={result['correct']}, failed {result['failed']}"
                  f"/{result['attempted']}", file=sys.stderr)
        record["runs"][workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed shares {sorted(shares)}, "
              f"longest run {max(r['wall_s'] for r in runs):.1f} s")
        print(f"  {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
              f" {'bound':>6} {'drift':>7}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summary(values)
            line = (f"  {name:36} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g}"
                    f" {s['spread']:8.4f}")
            if name in bounds:
                bound = bounds[name]["bound"]
                line += f" {bound:6.3f}"
                if name != "setup_s" and s["spread"] > bound / 3:
                    line += "  SPREAD>bound/3"
                    flagged += 1
                old_runs = earlier.get(workload)
                if old_runs:
                    old = statistics.median(r["metrics"][name]["value"] for r in old_runs)
                    drift = worse_by(bounds[name], old, s["median"])
                    line += f" {drift:+7.4f}"
                    if drift > bound:
                        line += "  WORSE>bound"
                        flagged += 1
            print(line)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nraw values: {path}; flagged: {flagged}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
