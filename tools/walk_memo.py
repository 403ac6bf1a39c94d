"""Replay one coeff-stream round in this process and print what the walk
memo, ``kronecker._lr_walk``, did over it, and the round's hard Kronecker
walks.

    python tools/walk_memo.py SEED

The round is the benchmark's own: the 1,500 ``kron_coeff`` queries that
``bench/workloads.py`` makes for coeff-stream and SEED, asked once, in
order, after ``clear_caches()``, as a benchmark round asks them; the
round is asked twice so, once for the memo and once for the hard walks.
This script only calls that generator; it changes nothing under
``bench/``.
Printed, one per line:

- the memo's hits and misses over the round, and its bound, WALK_CACHE;
- the distinct row keys looked up, the distinct cell lists those keys
  name (equal counts: the key is exact, one key per list), and how many
  keys the memo held at the end (fewer than the distinct keys only if it
  dropped some);
- the bytes the memo held at the end under ``tracemalloc``, the traced
  memory that emptying it frees, keys and walks together;
- the hard Kronecker walks of the round, those of the alpha that
  ``kronecker._alpha_bound`` cannot read from its table, and the seconds
  they took, timed in a round of their own without ``tracemalloc``.

The package is loaded from the ``src`` directory beside this script.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import make_inputs  # noqa: E402

from schurkron import clear_caches, kron_coeff, kronecker, tableaux  # noqa: E402


def _round(ops: list[dict]) -> None:
    """Ask the round's queries once, in order."""
    for op in ops:
        kron_coeff(op["n"], op["p"], tuple(op["lam"]), tuple(op["nu"]))


def replay(seed: int) -> dict[str, int | float]:
    """The memo's counts and the hard walks over one coeff-stream round of
    ``seed``."""
    ops = make_inputs("coeff-stream", seed)
    memo, walk = kronecker._lr_walk, kronecker._count_fillings
    seen: set = set()
    hard: list[float] = []

    def looked_up(key):
        seen.add(key)
        return memo(key)

    def timed_walk(*args):
        # in kron_coeff, kronecker calls _count_fillings only for a hard alpha
        start = time.perf_counter()
        try:
            return walk(*args)
        finally:
            hard.append(time.perf_counter() - start)

    clear_caches()
    tracemalloc.start()
    kronecker._lr_walk = looked_up
    try:
        _round(ops)
    finally:
        kronecker._lr_walk = memo
    info = memo.cache_info()
    keys, lists = len(seen), len({tableaux._key_cells(key) for key in seen})
    seen.clear()  # the memo alone holds the keys now
    kronecker._kron_coeff.cache_clear()
    held = tracemalloc.get_traced_memory()[0]
    memo.cache_clear()
    held -= tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    clear_caches()
    kronecker._count_fillings = timed_walk
    try:
        _round(ops)
    finally:
        kronecker._count_fillings = walk
    return {
        "queries": len(ops),
        "hits": info.hits,
        "misses": info.misses,
        "bound": info.maxsize,
        "keys": keys,
        "lists": lists,
        "kept": info.currsize,
        "bytes": held,
        "hard_walks": len(hard),
        "hard_s": sum(hard),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/walk_memo.py SEED", file=sys.stderr)
        return 2
    seed = int(argv[0])
    counts = replay(seed)
    print(f"seed {seed}: {counts['queries']} queries")
    print(f"hits {counts['hits']} misses {counts['misses']} (WALK_CACHE {counts['bound']})")
    print(f"distinct keys {counts['keys']}, naming {counts['lists']} lists, kept at the end {counts['kept']}")
    print(f"traced bytes held {counts['bytes']} ({counts['bytes'] / 2**20:.2f} MiB)")
    print(f"hard Kronecker walks {counts['hard_walks']} in {counts['hard_s']:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
