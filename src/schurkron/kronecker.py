"""Kronecker coefficients g_{(n-p,p),lam,nu} by counting Kronecker tableaux.

A Kronecker tableau of shape lam/alpha and type nu/alpha is an alpha-lattice
SSYT that additionally satisfies alpha_1 == alpha_2, or has a 1 in box
(2, alpha_1), or has exactly alpha_1 - alpha_2 2's in its first row.  When
lam_1 >= 2p-1 the coefficient of s_nu in s_{(n-p,p)} * s_lam equals the number
of Kronecker tableaux summed over alpha |- p inside the intersection of lam
and nu; when l(lam) >= 2p-1 the same rule applies to the conjugates.  Outside
both ranges the signed-sum oracle is used, and the alpha-sum is still an
upper bound.

The full expansion runs the rule.  A single coefficient is computed by
composing Littlewood-Richardson numbers on skew shapes of at most p cells
(``oracle_tworow_signed_coeff``): for one nu that is far less work than the
rule, and its walks do not deepen with n.  The method tag still names the
theorem that makes the value exact, and ``_rule_coeff`` keeps the rule's own
single coefficient as the reference it is tested against.  ``kron_coeff``
keeps its whole answers, value, tag and bound, in one bounded memo; the
engines underneath it are uncached.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .expansion import SchurExpansion
from .oracle import oracle_tworow_signed_coeff, oracle_tworow_signed_sum
from .partitions import (
    Partition,
    check_partition,
    check_tworow_args,
    conjugate,
    contains,
    enumerate_partitions,
    intersect,
    part,
)
from .tableaux import _count_fillings, _expand_fillings

METHOD_ROWS = "tableau_rule"
METHOD_CONJUGATE = "tableau_rule_conjugate"
METHOD_ORACLE = "oracle_fallback"


def two_row(n: int, p: int) -> Partition:
    """The partition (n-p, p), normalized when p (or n) is 0."""
    check_tworow_args(n, p)
    if p == 0:
        return (n,) if n else ()
    return (n - p, p)


class KronResult(NamedTuple):
    value: int
    method: str
    upper_bound: int | None = None


class KronExpansion(NamedTuple):
    expansion: SchurExpansion
    method: str


def _route(p: int, lam: Partition) -> tuple[str, Partition]:
    """The method for s_{(n-p,p)} * s_lam and the shape the tableau rule runs
    on: lam when lam_1 >= 2p-1, else its conjugate when l(lam) >= 2p-1
    (the signed-sum oracle, on lam, otherwise)."""
    if part(lam, 1) >= 2 * p - 1:
        return METHOD_ROWS, lam
    if len(lam) >= 2 * p - 1:
        return METHOD_CONJUGATE, conjugate(lam)
    return METHOD_ORACLE, lam


def kronecker_tableau_count(lam: Partition, alpha: Partition, nu: Partition) -> int:
    """Number of Kronecker tableaux of shape lam/alpha and type nu/alpha;
    0 whenever the containments or sizes fail."""
    for shape in (lam, alpha, nu):
        check_partition(shape)
    if not contains(alpha, lam) or not contains(alpha, nu):
        return 0
    return _count_fillings(lam, alpha, nu, alpha, True)


def _tableau_sum(lam: Partition, nu: Partition, p: int) -> int:
    """The rule's sum on checked shapes of one size; every alpha lies inside
    lam & nu, so the counts need no guards."""
    return sum(
        _count_fillings(lam, alpha, nu, alpha, True)
        for alpha in enumerate_partitions(p, inside=intersect(lam, nu))
    )


def kron_upper_bound(p: int, lam: Partition, nu: Partition) -> int:
    """Sum of Kronecker tableau counts over alpha |- p inside lam and nu;
    an upper bound for g_{(n-p,p),lam,nu}, exact when lam_1 >= 2p-1."""
    check_tworow_args(sum(lam), p, lam, nu)
    return _tableau_sum(lam, nu, p)


def kron_expand_tworow(n: int, p: int, lam: Partition) -> KronExpansion:
    """Full expansion of s_{(n-p,p)} * s_lam.

    Uses the tableau rule on lam when lam_1 >= 2p-1, on the conjugate when
    l(lam) >= 2p-1, and the signed-sum oracle otherwise.
    """
    check_tworow_args(n, p, lam)
    method, work = _route(p, lam)
    if method == METHOD_ORACLE:
        return KronExpansion(oracle_tworow_signed_sum(n, p, lam), method)
    buckets: dict[Partition, int] = {}
    for alpha in enumerate_partitions(p, inside=work):
        _expand_fillings(work, alpha, alpha, kron=True, out=buckets)
    if method == METHOD_CONJUGATE:
        buckets = {conjugate(nu): c for nu, c in buckets.items()}
    return KronExpansion(SchurExpansion(buckets), method)


KRON_COEFF_CACHE = 4096
"""Answers kept by ``kron_coeff``, the package's one memo of single
coefficients.  A repeated query then costs a lookup instead of a new
composition and bound, and the memory stays bounded however many distinct
queries a process makes."""


def kron_coeff(n: int, p: int, lam: Partition, nu: Partition) -> KronResult:
    """Single coefficient of s_nu in s_{(n-p,p)} * s_lam with its method tag
    and the tableau-count upper bound (the rule's sum on lam itself).  The
    value comes from LR composition on every route; the last
    KRON_COEFF_CACHE distinct answers are kept."""
    check_tworow_args(n, p, lam, nu)
    return _kron_coeff(n, p, tuple(lam), tuple(nu))


@lru_cache(maxsize=KRON_COEFF_CACHE)
def _kron_coeff(n: int, p: int, lam: Partition, nu: Partition) -> KronResult:
    """``kron_coeff`` on checked arguments, memoised."""
    value = oracle_tworow_signed_coeff(n, p, lam, nu)
    method, _ = _route(p, lam)
    upper = value if method == METHOD_ROWS else _tableau_sum(lam, nu, p)
    return KronResult(value, method, upper)


def _rule_coeff(n: int, p: int, lam: Partition, nu: Partition) -> KronResult:
    """``kron_coeff`` with the value counted by the tableau rule on its
    routes: the paper's theorem as the reference for LR composition."""
    check_tworow_args(n, p, lam, nu)
    method, work = _route(p, lam)
    if method == METHOD_ORACLE:
        value = oracle_tworow_signed_coeff(n, p, lam, nu)
    else:
        work_nu = nu if method == METHOD_ROWS else conjugate(nu)
        # vanishing shortcuts are justified only where the tableau rule is exact
        if sum(intersect(work, work_nu)) < p or len(work_nu) > len(work) + min(p, len(work)):
            value = 0
        else:
            value = _tableau_sum(work, work_nu, p)
    upper = value if method == METHOD_ROWS else _tableau_sum(lam, nu, p)
    return KronResult(value, method, upper)
