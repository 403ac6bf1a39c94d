"""Deep shapes must not meet Python's recursion limit, so nothing in the
package calls itself: the fill engine walks its cells in place, in one loop.
Every function that calls itself by name is reported here.  The signed
sums, which answer the deep queries, must keep each walk within p cells,
whatever n is; so must the upper bound and ``kron_coeff``, which reads its
value from the bound's walks, but for the Kronecker walks of the alpha that
the bound's lemma does not cover.  Those two checks no longer guard the
walk's depth, which the loop does not limit, but its size, which is time."""

import ast
from pathlib import Path

from schurkron import (
    clear_caches,
    enumerate_partitions,
    kron_coeff,
    kron_upper_bound,
    oracle_tworow_signed_coeff,
    oracle_tworow_signed_sum,
    part,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schurkron"


def _self_calls(source: str):
    """Names of the functions in source that call themselves by name."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        ):
            yield node.name


def test_nothing_recurses():
    found = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _self_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_signed_sums_walk_at_most_p_cells(fill_walks):
    for n in range(1, 11):
        for p in range(0, n // 2 + 1):
            for lam in enumerate_partitions(n):
                fill_walks.clear()
                oracle_tworow_signed_sum(n, p, lam)
                for nu in enumerate_partitions(n):
                    oracle_tworow_signed_coeff(n, p, lam, nu)
                assert fill_walks, (n, p, lam)
                assert max(len(cells) for cells, _, _ in fill_walks) <= p, (n, p, lam)


def _long_walks(fill_walks, n, p, lam, nu) -> int:
    """The walks of more than p cells that the bound and ``kron_coeff`` make
    for one query, each checked to be a hard alpha's Kronecker walk: a_1 >
    a_2 and 2 a_1 - 1 > max(lam_1, nu_1), on the n - p cells of lam/alpha."""
    fill_walks.clear()
    kron_upper_bound(p, lam, nu)
    kron_coeff(n, p, lam, nu)
    long_walks = 0
    for cells, alpha, kron in fill_walks:
        if len(cells) > p:
            long_walks += 1
            assert kron and len(cells) == n - p, (p, lam, nu, alpha)
            a1 = part(alpha, 1)
            assert a1 > part(alpha, 2) and 2 * a1 - 1 > max(lam[0], nu[0]), (p, lam, nu, alpha)
    return long_walks


def test_upper_bound_walks_at_most_p_cells_but_for_hard_alpha(fill_walks):
    walks = long_walks = 0
    clear_caches()  # a memoised kron_coeff would walk nothing
    for n in range(1, 11):
        for p in range(0, n // 2 + 1):
            for lam in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    long_walks += _long_walks(fill_walks, n, p, lam, nu)
                    walks += len(fill_walks)
    # the twin and type rules decide every hard alpha with n <= 10 that
    # would walk more than p cells; at n = 11, alpha = (3, 2) still walks
    assert walks and not long_walks
    assert _long_walks(fill_walks, 11, 5, (4, 4, 3), (4, 4, 3)) == 1
