"""Cross-module verification grids for the CLI ``verify`` subcommand.

Each suite builds a list of tasks, each a ``(check, args)`` pair, and
returns (cases checked, list of mismatch strings).  Tasks fan out over a
process pool when SCHURKRON_WORKERS (default: cpu count, clamped to
[1, cpu count]) is above 1; results are reduced in task order so output is
identical either way.

The formulas suite's checks take one case each and return a mismatch string
or None.  The theorem and oracles suites compare with the signed sum, which
walks work, the wider of lam and its conjugate (``oracle``'s module
docstring), so lam and its conjugate share its levels, and so do all p
(``oracle._signed_ladder``).  Their cases, (n, p, lam) triples, are grouped
by (n, work), and one task checks a group from one ladder of work, each
shape signed by ``oracle._signed``; the theorem suite's ladder stops at
the largest p on the rule's routes, (work_1 + 1) // 2, where both lam and
its conjugate leave them.  The count is still of triples, and the
mismatches are sorted back into the grid's (n, p, lam) order.
"""

from __future__ import annotations

import os
from itertools import chain
from typing import Iterator

from .formulas import (
    hook_coeff,
    nu_double_pair_coeff,
    p1_expand,
    rect_p2_expand,
    tworow_target_coeff,
    tworow_tworow_coeff,
)
from .kronecker import kron_coeff, kron_expand_tworow, two_row
from .oracle import _check_char_n, _signed, _signed_ladder, oracle_character_kron
from .partitions import DomainError, Partition, conjugate, enumerate_partitions, part


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


def _apply(task: tuple) -> str | list | None:
    """What the check of one ``(check, args)`` task returns; at module
    level, so a pool pickles it by name."""
    check, args = task
    return check(*args)


def _run(tasks: list) -> tuple[int, list]:
    """(tasks, mismatches): the ``(check, args)`` tasks, checked on a pool of
    ``worker_count()`` processes when there are enough of both, and the
    mismatches their checks returned, in task order: a string per case for
    a check of one case, a list of (case, string) for a check of a group."""
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


MAX_GRID_N = 30
"""Largest NMAX of a grid.  Every suite lists each partition of each
n <= NMAX, and the cost grows about threefold for each 2 added to NMAX: the
theorem suite at PMAX = 5 took 0.35, 1.2, 4.3 and 13 s at NMAX = 14, 16, 18
and 20, in one process on a 2-core Xeon with Python 3.11.  So a grid at
NMAX = 30 already runs for hours, and a far larger one could not list its
first shape's conjugate, which has NMAX parts."""


def _check_grid(nmax: int, pmax: int) -> None:
    """DomainError unless both bounds of a grid are at least 0 and NMAX is
    at most MAX_GRID_N."""
    if nmax < 0 or pmax < 0:
        raise DomainError(f"grid bounds must be >= 0, got NMAX = {nmax}, PMAX = {pmax}")
    if nmax > MAX_GRID_N:
        raise DomainError(f"grid supports NMAX <= {MAX_GRID_N}, got NMAX = {nmax}")


def _signed_cases(n: int, work: Partition, lams: tuple, top: int) -> Iterator[tuple]:
    """(p, lam, the signed sum for (n, p, lam)) for p = 0..top and each lam
    of lams, work and maybe its conjugate after it: ``_signed`` of levels p
    and p - 1 of one ``_signed_ladder`` of work, as
    ``oracle_tworow_signed_sum`` signs and transposes them."""
    levels = _signed_ladder(work, top)
    for p in range(top + 1):
        for lam in lams:
            yield p, lam, _signed(levels[p], levels[p - 1] if p else {}, lam != work)


def _check_theorem(n: int, work: Partition, lams: tuple, top: int) -> list[tuple]:
    found = []
    for p, lam, want in _signed_cases(n, work, lams, top):
        got = kron_expand_tworow(n, p, lam)
        if got.expansion != want:
            found.append(((n, p, lam), f"n={n} p={p} lam={lam}: rule ({got.method}) != signed oracle"))
    return found


def _check_oracles(n: int, work: Partition, lams: tuple, top: int) -> list[tuple]:
    found = []
    for p, lam, signed in _signed_cases(n, work, lams, top):
        if signed != oracle_character_kron(two_row(n, p), lam):
            found.append(((n, p, lam), f"n={n} p={p} lam={lam}: signed oracle != character oracle"))
    return found


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


def _by_work(check, nmax: int, pmax: int, on_rule: bool) -> tuple[int, list[str]]:
    """(cases, mismatches) of a check of every (n, p, lam) with
    1 <= n <= nmax, 0 <= p <= min(pmax, n/2) and lam |- n, or of those on
    the rule's routes, grouped by (n, work), work the wider of lam and its
    conjugate.  One task ``check(n, work, lams, top)`` per group checks each
    lam of lams at p = 0..top and returns a list of (case, mismatch string);
    the largest n go first, so that the longest tasks start first.  On the
    rule's routes lam_1 >= 2p - 1 or l(lam) >= 2p - 1, that is
    work_1 >= 2p - 1, so top stops at (work_1 + 1) // 2 for both lam.
    Mismatches come in grid order: n, then p, then lam."""
    tasks, cases = [], 0
    for n in range(nmax, 0, -1):
        for work in enumerate_partitions(n):
            if len(work) > work[0]:  # tall: checked in its conjugate's group
                continue
            lams = (work, conjugate(work)) if len(work) < work[0] else (work,)
            top = min(pmax, n // 2, (work[0] + 1) // 2 if on_rule else n)
            tasks.append((check, (n, work, lams, top)))
            cases += len(lams) * (top + 1)
    _, found = _run(tasks)
    # n and p ascending, then lam in descending lex order, as enumerate_partitions lists it
    found = sorted(chain(*found), key=lambda f: (f[0][:2], [-x for x in f[0][2]]))
    return cases, [m for _, m in found]


def suite_theorem(nmax: int, pmax: int) -> tuple[int, list[str]]:
    """Tableau rule vs signed-sum oracle on the rule's domain."""
    _check_grid(nmax, pmax)
    return _by_work(_check_theorem, nmax, pmax, on_rule=True)


def suite_oracles(nmax: int, pmax: int) -> tuple[int, list[str]]:
    """Signed-sum oracle vs character oracle, everywhere; refuses nmax past
    the character oracle's limit before any case runs."""
    _check_grid(nmax, pmax)
    _check_char_n(nmax)
    return _by_work(_check_oracles, nmax, pmax, on_rule=False)


def suite_formulas(nmax: int, pmax: int) -> tuple[int, list[str]]:
    """Closed formulas on their stated domains: tworow and nu334 against
    ``kron_coeff`` (the signed sum); hook, rect-p2 and p1 against the
    tableau rule's expansion; tworow2 against the tworow formula."""
    _check_grid(nmax, pmax)
    tasks: list = []
    for n in range(2, nmax + 1):
        for lam in enumerate_partitions(n):
            tasks.append((_check_p1, (lam,)))
    for n in range(2, nmax + 1):
        for p in range(1, min(pmax, n // 2) + 1):
            for s in range(1, n):
                if n - s >= 2 * p - 1:
                    tasks.append((_check_hook, (n, p, s)))
            for lam in enumerate_partitions(n, inside=(n,) * 4):
                if part(lam, 1) >= 2 * p - 1:
                    tasks.append((_check_tworow, (n, p, lam)))
            for s in range(0, n // 2 + 1):
                if n - s >= 2 * p - 1:
                    tasks.append((_check_tworow2, (n, p, s)))
            if p >= 2:
                for s in range(1, n // 2 + 1):
                    if n - s < 2 * p - 1:
                        continue
                    for nu in enumerate_partitions(n, inside=(n,) * 4):
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
