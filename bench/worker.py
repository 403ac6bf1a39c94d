"""One workload process: set up, print READY, run rounds, check, report.

Started by ``run.py``, which times set-up as the span from starting this
process to reading its READY line: interpreter start, ``import schurkron``
and input generation.  With ``--probe`` the process exits right after READY.

A round runs the workload's fixed set of operations once, with the package's
caches cleared first, so every round behaves like a fresh process.  Rounds
repeat until the next one would end past ``--seconds``.  The last stdout line
is one JSON object of raw measurements; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time

import schurkron  # noqa: F401  (importing the package is part of the measured set-up)

import workloads as wl
from spans import Tracer, clear_caches

PROBES = 5
CHECKED = re.compile(rb"checked (\d+) cases")


def rounds_within(seconds: float, one_round) -> list:
    """Call ``one_round`` at least once, and again while the next call is
    expected to end within ``seconds`` of the start."""
    started = time.perf_counter()
    done = [one_round()]
    while (time.perf_counter() - started) * (len(done) + 1) / len(done) <= seconds:
        done.append(one_round())
    return done


def library_round(workload: str, ops: list[dict], tracer: Tracer | None = None, calibrate: bool = False):
    clear_caches()
    if tracer:
        tracer.install()

    def call(i, op):
        if tracer:
            tracer.op = i
        return wl.run_library_op(workload, op)

    try:
        return wl.timed_round(ops, call, calibrate)
    finally:
        if tracer:
            tracer.uninstall()


def inprocess_cli_round(ops: list[dict], tracer: Tracer | None = None):
    """The commands through ``schurkron.cli.main`` in this process, with the
    caches cleared before each one, as a fresh process would have them."""
    import schurkron.cli

    if tracer:
        tracer.install()

    def call(i, op):
        if tracer:
            tracer.op = i
            tracer.harvest_caches()
        else:
            clear_caches()
        return wl.run_cli_inprocess(lambda argv: schurkron.cli.main(argv), op["argv"])

    try:
        return wl.timed_round(ops, call)
    finally:
        if tracer:
            tracer.uninstall()


def subprocess_round(ops: list[dict]):
    return wl.timed_round(ops, lambda i, op: wl.run_cli_subprocess(op["argv"]))


def check(workload: str, ops: list[dict], results: list, seed: int) -> list[str | None]:
    rng = random.Random(f"check:{workload}:{seed}")
    if workload == "expand-ladder":
        return wl.check_expand_ladder(ops, results, rng)
    if workload == "coeff-stream":
        return wl.check_coeff_stream(ops, results, rng)
    return wl.check_cli(ops, results)


def merge(verdicts: list[str | None], other: list) -> list[str | None]:
    """Keep the first failure reason of each op."""
    return [v or o for v, o in zip(verdicts, other)]


def agree(results: list, reference: list, reason: str) -> list[str | None]:
    return [None if r == ref else reason for r, ref in zip(results, reference)]


def median_probe(argv: list[str]) -> float:
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, env=wl.child_env(), cwd=wl.ROOT, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed(workload: str, ops: list[dict], seconds: float, seed: int) -> dict:
    library = workload in wl.LIBRARY_WORKLOADS
    first = None
    latencies, factors, verdicts = [], [], [None] * len(ops)

    def one_round():
        nonlocal first, verdicts
        if library:
            lat, results, speed = library_round(workload, ops, calibrate=True)
        else:
            lat, results, speed = subprocess_round(ops)
        latencies.append(lat)
        factors.append(speed)
        if first is None:
            first = results
        else:
            verdicts = merge(verdicts, agree(results, first, "wrong: rounds disagree"))

    rounds_within(seconds, one_round)
    who = resource.RUSAGE_SELF if library else resource.RUSAGE_CHILDREN
    peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024
    verdicts = merge(verdicts, check(workload, ops, first, seed))
    out = {
        "rounds": len(latencies),
        "latencies": latencies,
        "factors": factors,
        "verdicts": verdicts,
        "peak_rss_mib": peak_rss_mib,
    }
    if workload == "expand-ladder":
        out["coeff_mass"] = sum(sum(r.expansion.as_dict().values()) for r in first)
    if workload == "coeff-stream":
        out["repeat_share"] = wl.repeat_share(ops)
    return out


def traced(workload: str, ops: list[dict], seconds: float, seed: int) -> dict:
    """Cycles of one untraced and one traced round of the in-process form of
    the workload; verify-grid adds one round of the timed run's subprocesses."""
    if workload in wl.LIBRARY_WORKLOADS:
        plain = lambda: library_round(workload, ops)  # noqa: E731
        with_tracer = lambda t: library_round(workload, ops, t)  # noqa: E731
    else:
        # pool workers would record spans nobody collects, so run the suites here
        os.environ["SCHURKRON_WORKERS"] = "1"
        plain = lambda: inprocess_cli_round(ops)  # noqa: E731
        with_tracer = lambda t: inprocess_cli_round(ops, t)  # noqa: E731

    cycles = []
    verdicts = [None] * len(ops)
    suite_times: dict[str, list[float]] = {}

    def one_cycle():
        nonlocal verdicts
        if workload == "verify-grid":
            lat, results, _ = subprocess_round(ops)
            for op, t in zip(ops, lat):
                suite_times.setdefault(op["argv"][-1], []).append(t)
            verdicts = merge(verdicts, check(workload, ops, results, seed))
        plain_lat, plain_results, _ = plain()
        tracer = Tracer()
        lat, results, _ = with_tracer(tracer)
        verdicts = merge(verdicts, agree(results, plain_results, "wrong: traced output differs"))
        layers = tracer.layer_metrics()
        if workload in ("verify-grid", "cli-oneshot"):
            layers["cli.output_bytes"] = sum(len(stdout) for _, stdout in results)
            layers["verify.cases"] = sum(
                int(m.group(1)) for _, stdout in results for m in CHECKED.finditer(stdout)
            )
        cycles.append({"plain_wall": sum(plain_lat), "wall": sum(lat), "layers": layers, "results": results})
        return tracer

    last_tracer = rounds_within(seconds, one_cycle)[-1]
    verdicts = merge(verdicts, check(workload, ops, cycles[0]["results"], seed))

    layers = {}
    for name, first in cycles[0]["layers"].items():
        values = [c["layers"][name] for c in cycles]
        layers[name] = statistics.median(values) if name.endswith("_s") else first
    count_names = [n for n in layers if not n.endswith("_s")]
    counts_repeat = all(c["layers"][n] == layers[n] for c in cycles for n in count_names)
    for suite in wl.VERIFY_SUITES:
        layers[f"verify.{suite}_s"] = statistics.median(suite_times.get(suite, [0.0]))
    layers.setdefault("verify.cases", 0)
    layers.setdefault("cli.output_bytes", 0)
    python = [sys.executable, "-c"]
    layers["cli.interpreter_s"] = median_probe([*python, "pass"])
    layers["cli.import_s"] = median_probe([*python, "import schurkron.cli"]) - layers["cli.interpreter_s"]
    layers["trace.overhead_ratio"] = statistics.median(c["wall"] for c in cycles) / statistics.median(
        c["plain_wall"] for c in cycles
    )
    spans_file = wl.BENCH_DIR / "out" / f"spans-{workload}.jsonl.gz"
    spans_file.parent.mkdir(exist_ok=True)
    last_tracer.write_spans(spans_file)
    return {
        "rounds": len(cycles),
        "verdicts": verdicts,
        "layers": layers,
        "counts_repeat": counts_repeat,
        "spans_file": str(spans_file.relative_to(wl.ROOT)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit right after set-up")
    args = parser.parse_args()

    ops = wl.make_inputs(args.workload, args.seed)
    print("READY", flush=True)
    if args.probe:
        return 0
    wl.cap_address_space()
    run = traced if args.trace else timed
    result = run(args.workload, ops, args.seconds, args.seed)
    result.update(
        {
            "ops": len(ops),
            "input_digest": wl.input_digest(ops),
            "failures": [v for v in result["verdicts"] if v],
        }
    )
    del result["verdicts"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
