"""One pass of a workload in a fresh process.

Reads a pickled job from stdin and writes a pickled result to stdout;
run.py starts it once per pass and waits for it.  Anything the program
prints to stdout outside the captured calls goes to stderr instead, so it
cannot corrupt the result.
"""

from __future__ import annotations

import os
import pickle
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def import_program():
    """Import `oddharmonic` from this checkout's src/, never from elsewhere."""
    if not (SRC / "oddharmonic" / "__init__.py").is_file():
        raise SystemExit(f"no oddharmonic sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import oddharmonic
    import oddharmonic.cli  # noqa: F401  (the CLI workloads need it ready)

    if Path(oddharmonic.__file__).resolve().parent != SRC / "oddharmonic":
        raise SystemExit(f"imported oddharmonic from {oddharmonic.__file__}")
    return oddharmonic


def peak_rss_mb() -> float:
    """High-water resident memory of this process image.

    Not `ru_maxrss`: that survives fork and exec, so a worker started by a
    large parent would report the parent's size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    job = pickle.load(sys.stdin.buffer)
    result_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)

    sys.path.insert(0, str(BENCH))
    import workloads

    package = import_program()

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(package)

    result = workloads.run_pass(job["workload"], job["inputs"], tracer)
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.active = False
        result["spans"] = tracer.export()
    if job["values"]:
        result["values"] = workloads.checked_values(
            job["workload"], job["inputs"], result["outputs"])
    pickle.dump(result, result_out, protocol=pickle.HIGHEST_PROTOCOL)
    result_out.close()


if __name__ == "__main__":
    main()
