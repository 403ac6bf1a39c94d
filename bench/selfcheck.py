"""Self-checks of the benchmark itself.

    python3 bench/selfcheck.py

1. Inputs: for every workload, the same seed gives the same input digest, in
   this process and in a fresh one with another hash seed; two seeds give
   different inputs (verify-grid's inputs are the suite order only, so there
   two seeds may agree).
2. Counts: two traced runs of every workload report exactly the same counts
   and count ratios (tableaux.leaves, oracle.mn_evals, verify.cases, the
   cache hit ratio, ...).  Only the time metrics may differ.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads as wl

SEED = 7
TRACE_SECONDS = "1"


def digest_in_fresh_process(workload: str, seed: int) -> str:
    code = f"import workloads as wl; print(wl.input_digest(wl.make_inputs({workload!r}, {seed})))"
    env = dict(wl.child_env(), PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=wl.BENCH_DIR, env=env, check=True, capture_output=True, text=True
    )
    return out.stdout.strip()


def traced_run(workload: str) -> tuple[str, dict]:
    out = subprocess.run(
        [
            sys.executable,
            str(wl.BENCH_DIR / "run.py"),
            f"--workload={workload}",
            f"--seed={SEED}",
            f"--seconds={TRACE_SECONDS}",
            "--trace=1",
        ],
        cwd=wl.ROOT,
        check=True,
        capture_output=True,
        text=True,
    ).stdout.splitlines()
    header = next(line for line in out if line.startswith("# workload="))
    digest = header.split("input_digest=")[1].split()[0]
    return digest, json.loads(out[-1])


def main() -> int:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio")]
    counted.remove("trace.overhead_ratio")
    problems: list[str] = []

    for workload in wl.WORKLOADS:
        digest = wl.input_digest(wl.make_inputs(workload, SEED))
        if wl.input_digest(wl.make_inputs(workload, SEED)) != digest:
            problems.append(f"{workload}: same seed, different inputs in one process")
        if digest_in_fresh_process(workload, SEED) != digest:
            problems.append(f"{workload}: same seed, different inputs in a fresh process")
        other = wl.input_digest(wl.make_inputs(workload, SEED + 1))
        if other == digest and workload != "verify-grid":
            problems.append(f"{workload}: seeds {SEED} and {SEED + 1} give the same inputs")
        print(f"inputs {workload}: digest {digest}")

    for workload in wl.WORKLOADS:
        before = len(problems)
        (d1, r1), (d2, r2) = traced_run(workload), traced_run(workload)
        if d1 != d2:
            problems.append(f"{workload}: traced runs saw different inputs")
        for name in counted:
            a, b = r1["metrics"][name]["value"], r2["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} {a} != {b}")
        if (r1["attempted"], r1["failed"]) != (r2["attempted"], r2["failed"]):
            problems.append(f"{workload}: failure counts differ between runs")
        shown = {n: r1["metrics"][n]["value"] for n in ("tableaux.leaves", "oracle.mn_evals", "verify.cases")}
        verdict = "repeat exactly" if len(problems) == before else "DIFFER"
        print(f"counts {workload}: {len(counted)} counts {verdict}; {shown}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
