"""Print the best-of-k wall time of each ``verify`` suite, run as a fresh
process at SCHURKRON_WORKERS = 1 and 2.

    python tools/verify_times.py NMAX PMAX [--repeat K=3]

Each run is ``python -m schurkron.cli verify --grid NMAX PMAX --suite S``,
timed from process start to exit, so interpreter start and import count.
The runs go round-robin over the suites and worker counts, K rounds, so a
slow spell of a shared host falls on all of them alike.  One line per
suite and worker count: "<suite> workers=<w> best=<s> s of <K>".  A run
that exits non-zero stops the script with its exit code and stderr.  The
package is loaded from the ``src`` directory beside this script.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SUITES = ("theorem", "oracles", "formulas")
WORKERS = (1, 2)


def run(nmax: int, pmax: int, suite: str, workers: int) -> float:
    """Wall seconds of one ``verify`` process."""
    env = {
        **os.environ,
        "SCHURKRON_WORKERS": str(workers),
        "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))),
    }
    argv = [sys.executable, "-m", "schurkron.cli", "verify", "--grid", str(nmax), str(pmax)]
    start = time.perf_counter()
    proc = subprocess.run(argv + ["--suite", suite], capture_output=True, text=True, env=env)
    elapsed = time.perf_counter() - start
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        sys.exit(proc.returncode)
    return elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description="best-of-k wall time of each verify suite")
    parser.add_argument("nmax", type=int)
    parser.add_argument("pmax", type=int)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    repeat = max(1, args.repeat)
    best: dict[tuple[str, int], float] = {}
    for _ in range(repeat):
        for suite in SUITES:
            for workers in WORKERS:
                t = run(args.nmax, args.pmax, suite, workers)
                best[suite, workers] = min(t, best.get((suite, workers), t))
    for (suite, workers), t in best.items():
        print(f"{suite} workers={workers} best={t:.3f} s of {repeat}")


if __name__ == "__main__":
    main()
