"""Seeded inputs, one round of operations, and output checks per workload.

Every input is a pure function of (workload, seed): ``make_inputs`` uses only
its own ``random.Random(seed)``, so the same seed gives the same inputs and
``input_digest`` is stable across processes.  Library workloads call the
package through ``schurkron.<name>`` attribute lookups at call time, so the
tracer can swap in its wrappers without this module knowing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"

WORKLOADS = ("expand-ladder", "coeff-stream", "verify-grid", "cli-oneshot")
LIBRARY_WORKLOADS = ("expand-ladder", "coeff-stream")

# Exit codes the README documents: ok, parse error, domain error, verify mismatch.
DOCUMENTED_EXIT_CODES = (0, 2, 3, 4)
CHILD_TIMEOUT_S = 120
# Address-space cap for every process the benchmark starts, so that an input
# that asks for a huge allocation fails with MemoryError instead of growing.
ADDRESS_SPACE_CAP = 4 << 30

VERIFY_GRID = ("14", "5")
VERIFY_SUITES = ("theorem", "oracles", "formulas")


def child_env() -> dict[str, str]:
    """The fixed environment of every process the benchmark starts."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "LC_ALL": "C",
        "SCHURKRON_WORKERS": "2",
    }


def cap_address_space() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


# ---------------------------------------------------------------- generation


def _random_partition(rng: random.Random, n: int, max_rows: int) -> tuple[int, ...]:
    rows = rng.randint(1, min(max_rows, n))
    cuts = sorted(rng.sample(range(1, n), rows - 1))
    parts = (b - a for a, b in zip([0, *cuts], [*cuts, n]))
    return tuple(sorted(parts, reverse=True))


def _conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for x in lam if x > c) for c in range(lam[0] if lam else 0))


def _box_moves(rng: random.Random, lam: tuple[int, ...], moves: int) -> tuple[int, ...]:
    """Move ``moves`` boxes, each from a removable corner to an addable cell."""
    cur = list(lam)
    for _ in range(moves):
        corners = [i for i in range(len(cur)) if cur[i] > (cur[i + 1] if i + 1 < len(cur) else 0)]
        i = rng.choice(corners)
        cur[i] -= 1
        if cur[i] == 0:
            cur.pop()
        cells = [i for i in range(len(cur)) if i == 0 or cur[i - 1] > cur[i]] + [len(cur)]
        j = rng.choice(cells)
        if j == len(cur):
            cur.append(1)
        else:
            cur[j] += 1
    return tuple(cur)


# expand-ladder rungs, one per route plus the n=40, p=7 rung that takes about
# two thirds of a round.  The seed picks each rung's shape from its pool, whose
# members have close tableau counts, and the order of the rungs.
LADDER_SLOTS = (
    # (rung, n, p, pool, presented transposed)
    ("rows", 36, 6, ((12, 9, 7, 5, 3), (13, 9, 7, 4, 3)), False),
    ("conjugate", 34, 6, ((11, 9, 6, 5, 3), (12, 8, 7, 4, 3)), True),
    ("fallback", 32, 6, ((9, 8, 6, 5, 4), (5, 5, 5, 5, 4, 3, 2, 2, 1)), False),
    ("n40p7", 40, 7, ((13, 10, 8, 6, 3), (14, 10, 7, 6, 3)), False),
)


def _expand_ladder(rng: random.Random) -> list[dict]:
    ops = []
    for rung, n, p, pool, transposed in LADDER_SLOTS:
        lam = rng.choice(pool)
        ops.append({"rung": rung, "n": n, "p": p, "lam": list(_conjugate(lam) if transposed else lam)})
    rng.shuffle(ops)
    return ops


COEFF_QUERIES = 1500
REPEAT_SHARE = 0.30
DEEP_SHARE = 0.04
# Deep queries recurse once per cell and hit the interpreter's default
# recursion limit near 1000 cells.  Sizes within this band of it are skipped,
# so that the few extra frames of a traced run cannot flip an outcome.
DEEP_SIZE_BAND = (940, 1060)
# Queries with p >= HEAVY_P take most of a round, and their cost varies 50x
# with the shape; they use one fixed set of shapes, placed in the stream by
# the seed, so that a few draws do not decide the round's wall time.
HEAVY_P = 5


def _coeff_query(rng: random.Random, n: int, p: int, rows: int, transpose: bool, deep: bool) -> dict:
    lam = _random_partition(rng, n, rows)
    nu = _box_moves(rng, lam, rng.randint(1, 2 * p))
    if transpose:
        lam, nu = _conjugate(lam), _conjugate(nu)
    return {"n": n, "p": p, "lam": list(lam), "nu": list(nu), "deep": deep}


def _deep_size(rng: random.Random) -> int:
    n = rng.randint(400, 2000)
    while DEEP_SIZE_BAND[0] <= n <= DEEP_SIZE_BAND[1]:
        n = rng.randint(400, 2000)
    return n


def _coeff_stream(rng: random.Random) -> list[dict]:
    """Fresh queries take every (n, p) in 22..36 x 2..6 equally often; within
    each pair, every row count in 1..9 at least once and both orientations
    equally often.  The seed draws the rest: shapes, extra row counts, order.
    The cost of the heavy p = 6 queries grows steeply with n and the row
    count, and independent draws of these values made the round's wall time
    swing by a third between seeds.  Deep queries keep at
    most 3 rows, the regime n > (2p-2)^2 where the rule is always exact."""
    deep = round(COEFF_QUERIES * DEEP_SHARE)
    per_pair = round(COEFF_QUERIES * (1 - REPEAT_SHARE - DEEP_SHARE) / 75)
    repeats = COEFF_QUERIES - deep - 75 * per_pair
    heavy_rng = random.Random("coeff-stream:heavy")
    queries = []
    for n in range(22, 37):
        for p in range(2, 7):
            draw = heavy_rng if p >= HEAVY_P else rng
            rows = [*range(1, 10), *draw.sample(range(1, 10), per_pair - 9)]
            flips = [k % 2 for k in range(per_pair)]
            draw.shuffle(flips)
            queries += [_coeff_query(draw, n, p, r, t == 1, False) for r, t in zip(rows, flips)]
    queries += [_coeff_query(rng, _deep_size(rng), 2 + k % 5, 3, False, True) for k in range(deep)]
    rng.shuffle(queries)
    # a repeat copies a query issued earlier in the stream
    slots = sorted(rng.sample(range(1, COEFF_QUERIES), repeats))
    ops: list[dict] = []
    for i in range(COEFF_QUERIES):
        if slots and slots[0] == i:
            slots.pop(0)
            ops.append(dict(rng.choice(ops)))
        else:
            ops.append(queries.pop())
    return ops


def _verify_grid(rng: random.Random) -> list[dict]:
    golden = {tuple(e["argv"]): e for e in load_golden()["verify"]}
    ops = []
    for suite in rng.sample(VERIFY_SUITES, len(VERIFY_SUITES)):
        argv = ("verify", "--grid", *VERIFY_GRID, "--suite", suite)
        ops.append(dict(golden[argv]))
    return ops


def _cli_oneshot(rng: random.Random) -> list[dict]:
    golden = load_golden()
    ops = []
    for kind, count in golden["mix"].items():
        pool = [e for e in golden["cli"] if e["kind"] == kind]
        ops.extend(dict(e) for e in rng.sample(pool, count))
    rng.shuffle(ops)
    return ops


_GENERATORS = {
    "expand-ladder": _expand_ladder,
    "coeff-stream": _coeff_stream,
    "verify-grid": _verify_grid,
    "cli-oneshot": _cli_oneshot,
}


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def make_inputs(workload: str, seed: int) -> list[dict]:
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def input_digest(ops: list[dict]) -> str:
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def repeat_share(ops: list[dict]) -> float:
    seen: set[str] = set()
    repeats = 0
    for op in ops:
        key = json.dumps(op, sort_keys=True)
        repeats += key in seen
        seen.add(key)
    return repeats / len(ops)


# ---------------------------------------------------------------- execution


def run_library_op(workload: str, op: dict):
    """One library call: its KronExpansion or KronResult, or ("error", name)."""
    import schurkron

    try:
        if workload == "expand-ladder":
            return schurkron.kron_expand_tworow(op["n"], op["p"], tuple(op["lam"]))
        return schurkron.kron_coeff(op["n"], op["p"], tuple(op["lam"]), tuple(op["nu"]))
    except Exception as exc:  # the failure is the measured outcome
        return ("error", type(exc).__name__)


def run_cli_subprocess(argv: list[str]) -> tuple[int, bytes]:
    """``python -m schurkron.cli argv`` as a fresh process: (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "schurkron.cli", *argv],
        env=child_env(),
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
        preexec_fn=cap_address_space,
    )
    return proc.returncode, proc.stdout


def run_cli_inprocess(main, argv: list[str]) -> tuple[int, bytes]:
    """``main(argv)`` with stdout captured; an uncaught exception maps to
    exit code 1, as the interpreter's top level would report it."""
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = 1
    return code, out.getvalue().encode()


# The host's speed drifts by tens of percent within seconds, and timing a
# fixed amount of work cannot tell that from a change in the program.  So a
# timed round also times a fixed reference kernel, every SAMPLE_EVERY_S from
# a SIGALRM handler (so that samples fall inside long operations too), and
# each operation's time is scaled by REFERENCE_S / (median reference time
# around it): the time it would take on a host that runs the kernel in
# REFERENCE_S, about what the 2-core reference host does when it is quiet.
REFERENCE_S = 0.004
SAMPLE_EVERY_S = 0.1
NEAREST = 5


def reference_kernel(n: int = 60000) -> int:
    """Pure-Python loop on a small list; allocates nothing once started."""
    a = list(range(64))
    x = 0
    for i in range(n):
        v = a[i & 63]
        if v & 1:
            x ^= v
        a[i & 63] = v ^ 2
    return x


class Speedometer:
    """Reference-kernel samples, (start, duration), taken on a timer while
    the context is active."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def inside(self, start: float, end: float) -> float:
        """Time the samples took within [start, end)."""
        return sum(d for t, d in self.samples if start <= t < end)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median sample within SAMPLE_EVERY_S of
        [start, end], or of the NEAREST samples if there are fewer."""
        near = [d for t, d in self.samples if start - SAMPLE_EVERY_S <= t <= end + SAMPLE_EVERY_S]
        if len(near) < NEAREST:
            mid = (start + end) / 2
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:NEAREST]]
        return REFERENCE_S / statistics.median(near)


def timed_round(ops: list[dict], call, calibrate: bool = False):
    """Run ``call(index, op)`` for every op in order.

    Returns (latencies, results, factors); with ``calibrate``, ``factors``
    holds each op's speed factor (see REFERENCE_S), else it is None.  A
    sample taken during an op stops that op, so its time is taken out of the
    op's latency.  Only in-process ops are calibrated: a subprocess runs on
    cores the samples do not observe, and timing the kernel between such ops
    made the results noisier, not steadier.
    """
    clock = time.perf_counter
    spans, results = [], []
    speed = Speedometer()
    edge_samples = NEAREST if calibrate else 0
    for _ in range(edge_samples):
        speed.sample()
    with speed if calibrate else contextlib.nullcontext():
        for i, op in enumerate(ops):
            t0 = clock()
            results.append(call(i, op))
            spans.append((t0, clock()))
    for _ in range(edge_samples):
        speed.sample()
    latencies = [t1 - t0 - speed.inside(t0, t1) for t0, t1 in spans]
    factors = [speed.factor(t0, t1) for t0, t1 in spans] if calibrate else None
    return latencies, results, factors


# ---------------------------------------------------------------- checks


def _two_row(n: int, p: int) -> tuple[int, ...]:
    return (n - p, p) if p else (n,)


def _expected_route(p: int, lam: tuple[int, ...]) -> str:
    if (lam[0] if lam else 0) >= 2 * p - 1:
        return "tableau_rule"
    if len(lam) >= 2 * p - 1:
        return "tableau_rule_conjugate"
    return "oracle_fallback"


# Every failure reason starts with its kind: "crash: " when the call raised
# or the process exited with a code the README does not document, "wrong: "
# when an answer, a documented exit code or the stdout bytes are not the
# expected ones.


def _error(res) -> str | None:
    """The exception name of a failed library call, else None."""
    return res[1] if type(res) is tuple and res[0] == "error" else None


def check_expand_ladder(ops: list[dict], results: list, rng: random.Random) -> list[str | None]:
    """Per op: None if correct, else the failure reason.

    The dimension identity sum_nu g_nu f^nu = f^(n-p,p) f^lam checks every
    coefficient at once; a seeded sample of coefficients is recomputed by the
    signed-sum oracle, except on the fallback rung, whose route is that oracle.
    """
    from schurkron.oracle import dimension, oracle_tworow_signed_coeff

    verdicts: list[str | None] = []
    for op, res in zip(ops, results):
        n, p, lam = op["n"], op["p"], tuple(op["lam"])
        if _error(res):
            verdicts.append(f"crash: raised {_error(res)}")
            continue
        terms = res.expansion.as_dict()
        if res.method != _expected_route(p, lam):
            verdicts.append(f"wrong: route {res.method}")
        elif any(c <= 0 for c in terms.values()):
            verdicts.append("wrong: non-positive coefficient")
        elif sum(c * dimension(nu) for nu, c in terms.items()) != dimension(_two_row(n, p)) * dimension(lam):
            verdicts.append("wrong: dimension identity fails")
        else:
            sample = [] if res.method == "oracle_fallback" else rng.sample(sorted(terms), 5)
            wrong = [nu for nu in sample if oracle_tworow_signed_coeff(n, p, lam, nu) != terms[nu]]
            verdicts.append(f"wrong: coefficient at {wrong[0]}" if wrong else None)
    return verdicts


COEFF_ORACLE_SAMPLE = 120


def check_coeff_stream(ops: list[dict], results: list, rng: random.Random) -> list[str | None]:
    """Per op: None if correct, else the failure reason.

    Every answer must carry the route the rule prescribes and stay within its
    upper bound, and repeats must agree.  A seeded sample is recomputed by the
    signed-sum oracle; where that oracle is the route itself or recursion
    rules it out (deep queries), the symmetry g(lam, nu) = g(nu, lam) is used.
    """
    import schurkron
    from schurkron.oracle import oracle_tworow_signed_coeff

    keys = [json.dumps(op, sort_keys=True) for op in ops]
    first: dict[str, object] = {}
    verdicts: list[str | None] = []
    for key, op, res in zip(keys, ops, results):
        earlier = first.setdefault(key, res)
        if _error(res):
            verdicts.append(f"crash: raised {_error(res)}")
        elif res != earlier:
            verdicts.append("wrong: repeat disagrees")
        elif res.method != _expected_route(op["p"], tuple(op["lam"])):
            verdicts.append(f"wrong: route {res.method}")
        elif not 0 <= res.value <= res.upper_bound:
            verdicts.append("wrong: value outside [0, upper_bound]")
        else:
            verdicts.append(None)
    candidates = sorted({key for key, v in zip(keys, verdicts) if v is None})
    wrong: dict[str, str] = {}
    for key in rng.sample(candidates, min(COEFF_ORACLE_SAMPLE, len(candidates))):
        op, got = json.loads(key), first[key]
        n, p, lam, nu = op["n"], op["p"], tuple(op["lam"]), tuple(op["nu"])
        if op["deep"] or got.method == "oracle_fallback":
            try:
                want = schurkron.kron_coeff(n, p, nu, lam).value
            except RecursionError:
                continue  # neither independent route can run here
        else:
            want = oracle_tworow_signed_coeff(n, p, lam, nu)
        if want != got.value:
            wrong[key] = f"wrong: value {got.value} != {want}"
    return [wrong.get(key, v) for key, v in zip(keys, verdicts)]


def check_cli(ops: list[dict], results: list) -> list[str | None]:
    """Exit code must be one the golden entry allows, stdout the golden bytes."""
    verdicts: list[str | None] = []
    for op, (code, stdout) in zip(ops, results):
        if code not in op["codes"]:
            kind = "wrong" if code in DOCUMENTED_EXIT_CODES else "crash"
            verdicts.append(f"{kind}: exit {code}, want {op['codes']}")
        elif stdout != op["stdout"].encode():
            verdicts.append("wrong: stdout differs from golden")
        else:
            verdicts.append(None)
    return verdicts
