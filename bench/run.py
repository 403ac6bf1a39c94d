"""schurkron benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload expand-ladder --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workloads and metrics are described in
``BENCHMARK.json`` and ``bench/README.md``.  With ``--trace 0`` the run
measures set-up and the end-to-end metrics; with ``--trace 1`` it measures
the per-layer metrics instead.  Human-readable lines come first; the last
stdout line is one JSON object: correct, attempted, failed, metrics.

This process never imports ``schurkron``.  It compiles the bytecode once,
times set-up over several fresh worker processes and collects the worker's
raw measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads as wl

SETUP_PROBES = 6
RUN_LIMIT_S = 170
# op_tail_s needs enough operations to leave 10 samples beyond the percentile.
TAIL_WORKLOADS = ("coeff-stream", "cli-oneshot")


def load_spec() -> dict:
    with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def worker_argv(args, *extra: str) -> list[str]:
    return [
        sys.executable,
        str(wl.BENCH_DIR / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        *extra,
    ]


def start_worker(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with its set-up time, read at its READY line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=wl.child_env(), cwd=wl.ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != b"READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {line!r}")
    return proc, setup


def probe_setup(args) -> float:
    """Set-up time of one probe worker."""
    proc, setup = start_worker(worker_argv(args, "--probe"))
    proc.communicate(timeout=60)
    return setup


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """Latency at the highest percentile with at least 10 samples beyond it:
    (value, percentile, sample count)."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (wl.SRC / "schurkron" / "__init__.py").is_file():
        print(f"error: no schurkron package under {wl.SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    # Bytecode is compiled once, untimed: users pay that only on first run.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(wl.SRC), str(wl.BENCH_DIR)],
        env=wl.child_env(),
        check=True,
        stdout=subprocess.DEVNULL,
    )
    # Set-up samples come from before and after the rounds, so that a slow
    # spell of the machine does not cover all of them.
    setups: list[float] = []
    if not args.trace:
        probe_setup(args)  # warm-up: file cache and bytecode, not counted
        setups = [probe_setup(args) for _ in range(SETUP_PROBES // 2)]
    proc, _ = start_worker(worker_argv(args))
    try:
        out, _ = proc.communicate(timeout=max(10.0, RUN_LIMIT_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("error: worker ran past the time limit", file=sys.stderr)
        return 1
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(lines[-1])
    if not args.trace:
        setups += [probe_setup(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    attempted = raw["ops"]
    failed = len(raw["failures"])
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"cores={os.cpu_count()} python={platform.python_version()} "
        f"input_digest={raw['input_digest']} rounds={raw['rounds']}"
    )
    notes: dict[str, str] = {}
    if args.trace:
        metrics = {m["name"]: raw["layers"][m["name"]] for m in spec["per_layer"]}
        notes["trace.overhead_ratio"] = "traced / untraced round wall, in-process"
        extra = [f"spans written to {raw['spans_file']}", f"counts_repeat={raw['counts_repeat']}"]
    else:
        # Library workloads scale each op by the reference kernel timed
        # around it (workloads.REFERENCE_S).  Each op then counts with its
        # fastest round: interference only ever slows an op down, and every
        # round runs an op from the same state.
        factors = [fac or [1.0] * attempted for fac in raw["factors"]]
        scaled = [[t * f for t, f in zip(lat, fac)] for lat, fac in zip(raw["latencies"], factors)]
        best = [min(per_op) for per_op in zip(*scaled)]
        samples = [t for lat in scaled for t in lat]
        wall = sum(best)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "ops_per_s": attempted / wall,
            "op_p50_s": statistics.median(best),
            "peak_rss_mib": raw["peak_rss_mib"],
        }
        notes["setup_s"] = f"median of {len(setups)} worker starts"
        notes["wall_s"] = f"sum over the {attempted} ops of each op's fastest of {raw['rounds']} rounds"
        notes["op_p50_s"] = "median over the ops of each op's fastest round"
        extra = [f"round_wall_s {statistics.median(sum(lat) for lat in raw['latencies'])!r} s (median round, unscaled)"]
        if any(raw["factors"]):
            speed = statistics.median(f for fac in factors for f in fac)
            extra.append(f"# op times scaled to a host that runs the reference kernel in {wl.REFERENCE_S} s; median factor {speed!r}")
        t = tail(samples)
        if args.workload in TAIL_WORKLOADS and t:
            extra.append(f"op_tail_s {t[0]!r} s (p{t[1]:.2f} of {t[2]} samples, 10 beyond)")
        if "coeff_mass" in raw:
            mass = raw["coeff_mass"]
            extra.append(f"coeff_mass_per_s {mass / wall!r} 1/s (mass {mass} per round)")
        if "repeat_share" in raw:
            extra.append(f"repeat_share {raw['repeat_share']!r} ratio (queries that repeat an earlier one)")
    extra.append(f"failed_ratio {failed / attempted!r} ratio ({failed}/{attempted})")
    for reason in sorted(set(raw["failures"])):
        extra.append(f"#   failure x{raw['failures'].count(reason)}: {reason}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {units[name]}{note}")
    for line in extra:
        print(line)
    wrong = [r for r in raw["failures"] if r.startswith("wrong:")]
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
