"""Print one sha256 over every ``kron_coeff`` answer with n <= NMAX, one
over every full expansion, one over both oracles' full expansions and one
over every capped expansion's witness.

    python tools/coeff_digest.py [NMAX=12]

Every (n, p, lam, nu) with 0 <= n <= NMAX, 0 <= p <= n/2 and lam, nu |- n
is asked in a fixed order, and each query with its answer
(value, method, upper_bound) is hashed as one line.  The first line printed
is "<queries> <sha256>" (79457 queries at NMAX = 12).  Every (n, p, lam) is
also expanded with ``kron_expand_tworow``, and each expansion with its
method and its terms in descending lex order is hashed as one line; the
second line printed is "<expansions> <sha256>".  And every (n, p, lam) is
expanded by ``oracle_tworow_signed_sum`` and, for n <= MAX_CHAR_N, by
``oracle_character_kron(two_row(n, p), lam)``, each hashed as one line with
the oracle's name; the third line printed is "<expansions> <sha256>".  And
every (n, p, lam) with 1 <= p <= n/2 is decided by ``formulas._direct_mfree``,
the capped expansion behind ``is_multiplicity_free``, and its verdict with
its witness is hashed as one line; the fourth line printed is
"<verdicts> <sha256>" (1267 verdicts at NMAX = 12).  One walk over
(n, p, lam) feeds all four hashes.  Run it on two source trees: equal first
lines mean every single coefficient is the same, equal second lines mean
every full expansion is, equal third lines mean both oracles' expansions
are, and equal fourth lines mean every capped walk stops at the same
witness.  The package is loaded from the ``src`` directory beside this
script.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schurkron import enumerate_partitions, kron_coeff, kron_expand_tworow  # noqa: E402
from schurkron.formulas import _direct_mfree  # noqa: E402
from schurkron.kronecker import two_row  # noqa: E402
from schurkron.oracle import (  # noqa: E402
    MAX_CHAR_N,
    oracle_character_kron,
    oracle_tworow_signed_sum,
)


def digests(nmax: int) -> list[tuple[int, str]]:
    """(lines hashed, sha256 hex digest) of the queries, of the expansions, of
    the oracle expansions and of the capped expansions' verdicts over every
    n <= nmax, from one walk over (n, p, lam)."""
    shas = [hashlib.sha256() for _ in range(4)]
    counts = [0, 0, 0, 0]
    for n in range(nmax + 1):
        shapes = list(enumerate_partitions(n))
        for p in range(n // 2 + 1):
            for lam in shapes:
                queries = [f"{nu} {tuple(kron_coeff(n, p, lam, nu))}" for nu in shapes]
                expansion, method = kron_expand_tworow(n, p, lam)
                oracles = [("signed", oracle_tworow_signed_sum(n, p, lam))]
                if n <= MAX_CHAR_N:
                    oracles.append(("character", oracle_character_kron(two_row(n, p), lam)))
                blocks = (
                    queries,
                    [f"{method} {expansion.items_desc()}"],
                    [f"{name} {result.items_desc()}" for name, result in oracles],
                    [f"mfree {_direct_mfree(n, p, lam)}"] if p else [],
                )
                for i, block in enumerate(blocks):
                    for line in block:
                        shas[i].update(f"{n} {p} {lam} {line}\n".encode())
                    counts[i] += len(block)
    return [(count, sha.hexdigest()) for count, sha in zip(counts, shas)]


def main(argv: list[str]) -> int:
    if len(argv) > 1 or (argv and not argv[0].isdigit()):
        print("usage: python tools/coeff_digest.py [NMAX]", file=sys.stderr)
        return 2
    nmax = int(argv[0]) if argv else 12
    for count, hexdigest in digests(nmax):
        print(f"{count} {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
