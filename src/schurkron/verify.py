"""Cross-module verification grids for the CLI ``verify`` subcommand.

Each suite builds a list of cases, each a ``(check, args)`` pair whose
check returns a mismatch string or None, and returns (cases checked, list of
mismatch strings).  Cases fan out over a process pool when SCHURKRON_WORKERS
(default: cpu count, clamped to [1, cpu count]) is above 1; results are
reduced in task order so output is identical either way.
"""

from __future__ import annotations

import os

from .formulas import (
    hook_coeff,
    nu_double_pair_coeff,
    p1_expand,
    rect_p2_expand,
    tworow_target_coeff,
    tworow_tworow_coeff,
)
from .kronecker import METHOD_ORACLE, _route, kron_coeff, kron_expand_tworow, two_row
from .oracle import oracle_character_kron, oracle_tworow_signed_sum
from .partitions import Partition, enumerate_partitions, part


class WorkerCountError(ValueError):
    """SCHURKRON_WORKERS is set but is not an integer."""


def worker_count() -> int:
    cpus = os.cpu_count() or 1
    env = os.environ.get("SCHURKRON_WORKERS", "").strip()
    if not env:
        return cpus
    try:
        requested = int(env)
    except ValueError:
        raise WorkerCountError(f"SCHURKRON_WORKERS must be an integer, got {env!r}") from None
    return min(max(1, requested), cpus)


def _apply(task: tuple) -> str | None:
    """The mismatch string of one ``(check, args)`` case, or None; at module
    level, so a pool pickles it by name."""
    check, args = task
    return check(*args)


def _run(tasks: list) -> tuple[int, list[str]]:
    """(cases, mismatches): the ``(check, args)`` tasks, checked on a pool of
    ``worker_count()`` processes when there are enough of both, and the
    mismatch strings their checks returned, in task order."""
    results = map(_apply, tasks)  # lazy: runs in this process unless a pool does
    workers = worker_count()
    if workers > 1 and len(tasks) >= 4:
        try:
            import multiprocessing

            with multiprocessing.Pool(workers) as pool:
                results = pool.map(_apply, tasks, chunksize=max(1, len(tasks) // (8 * workers)))
        except OSError:
            pass
    return len(tasks), [r for r in results if r]


def _grid(nmax: int, pmax: int) -> list[tuple[int, int, Partition]]:
    """Every (n, p, lam) with 1 <= n <= nmax, 0 <= p <= min(pmax, n/2) and
    lam |- n, in that order."""
    return [
        (n, p, lam)
        for n in range(1, nmax + 1)
        for p in range(0, min(pmax, n // 2) + 1)
        for lam in enumerate_partitions(n)
    ]


def _check_theorem(n: int, p: int, lam: Partition) -> str | None:
    got = kron_expand_tworow(n, p, lam)
    want = oracle_tworow_signed_sum(n, p, lam)
    if got.expansion != want:
        return f"n={n} p={p} lam={lam}: rule ({got.method}) != signed oracle"
    return None


def _check_oracles(n: int, p: int, lam: Partition) -> str | None:
    signed = oracle_tworow_signed_sum(n, p, lam)
    char = oracle_character_kron(two_row(n, p), lam)
    if signed != char:
        return f"n={n} p={p} lam={lam}: signed oracle != character oracle"
    return None


def _check_hook(n: int, p: int, s: int) -> str | None:
    expansion = kron_expand_tworow(n, p, (n - s,) + (1,) * s).expansion
    for nu in enumerate_partitions(n):
        if hook_coeff(n, p, s, nu) != expansion[nu]:
            return f"hook n={n} p={p} s={s} nu={nu}"
    return None


def _check_tworow(n: int, p: int, lam: Partition) -> str | None:
    for t in range(0, n // 2 + 1):
        if tworow_target_coeff(n, p, lam, t) != kron_coeff(n, p, lam, two_row(n, t)).value:
            return f"tworow n={n} p={p} lam={lam} t={t}"
    return None


def _check_tworow2(n: int, p: int, s: int) -> str | None:
    lam = two_row(n, s)
    for t in range(0, n // 2 + 1):
        if tworow_tworow_coeff(n, p, s, t) != tworow_target_coeff(n, p, lam, t):
            return f"tworow2 n={n} p={p} s={s} t={t}"
    return None


def _check_nu334(n: int, p: int, s: int, nu: Partition) -> str | None:
    lam = (n - s, s)
    if nu_double_pair_coeff(n, p, s, nu) != kron_coeff(n, p, lam, nu).value:
        return f"nu334 n={n} p={p} s={s} nu={nu}"
    return None


def _check_rectp2(m: int, k: int) -> str | None:
    n = m * k
    if rect_p2_expand(m, k) != kron_expand_tworow(n, 2, (m,) * k).expansion:
        return f"rect-p2 m={m} k={k}"
    return None


def _check_p1(lam: Partition) -> str | None:
    n = sum(lam)
    if p1_expand(lam) != kron_expand_tworow(n, 1, lam).expansion:
        return f"p1 lam={lam}"
    return None


def suite_theorem(nmax: int, pmax: int) -> tuple[int, list[str]]:
    """Tableau rule vs signed-sum oracle on the rule's domain."""
    cases = [(n, p, lam) for n, p, lam in _grid(nmax, pmax) if _route(p, lam)[0] != METHOD_ORACLE]
    return _run([(_check_theorem, case) for case in cases])


def suite_oracles(nmax: int, pmax: int) -> tuple[int, list[str]]:
    """Signed-sum oracle vs character oracle, everywhere."""
    return _run([(_check_oracles, case) for case in _grid(nmax, pmax)])


def suite_formulas(nmax: int, pmax: int) -> tuple[int, list[str]]:
    """Closed formulas on their stated domains: tworow and nu334 against
    ``kron_coeff`` (the signed sum); hook, rect-p2 and p1 against the
    tableau rule's expansion; tworow2 against the tworow formula."""
    tasks: list = []
    for n in range(2, nmax + 1):
        for lam in enumerate_partitions(n):
            tasks.append((_check_p1, (lam,)))
    for n in range(2, nmax + 1):
        for p in range(1, min(pmax, n // 2) + 1):
            for s in range(1, n):
                if n - s >= 2 * p - 1:
                    tasks.append((_check_hook, (n, p, s)))
            for lam in enumerate_partitions(n, max_length=4):
                if part(lam, 1) >= 2 * p - 1:
                    tasks.append((_check_tworow, (n, p, lam)))
            for s in range(0, n // 2 + 1):
                if n - s >= 2 * p - 1:
                    tasks.append((_check_tworow2, (n, p, s)))
            if p >= 2:
                for s in range(1, n // 2 + 1):
                    if n - s < 2 * p - 1:
                        continue
                    for nu in enumerate_partitions(n, max_length=4):
                        if len(nu) == 4 and nu[2] == nu[3]:
                            tasks.append((_check_nu334, (n, p, s, nu)))
    for m in range(2, nmax + 1):
        for k in range(1, nmax + 1):
            if 6 <= m * k <= nmax and (k == 1 or m >= k):
                tasks.append((_check_rectp2, (m, k)))
    return _run(tasks)


SUITES = {
    "theorem": suite_theorem,
    "oracles": suite_oracles,
    "formulas": suite_formulas,
}
