"""Two independent ground truths for Kronecker products.

The signed-sum oracle expands s_{(n-p,p)} * s_lam as
sum over a |- p contained in lam of s_a s_{lam/a}
minus the same sum over b |- p-1, pure tableau combinatorics valid for every
lam.  It has two code paths.  The full expansion walks every lam/a.  A single
coefficient of s_nu uses <s_a s_{lam/a}, s_nu> = sum over mu of
c^lam_{mu a} c^nu_{mu a}, with mu inside lam and nu and |mu| = n - |a|; the mu
come from removing |lam & nu| - (n - |a|) <= |a| boxes of the intersection,
and one walk of lam/mu and one of nu/mu, each of only |a| cells, give c_{mu a}
for every a at once.  Walking lam/a instead costs far more when only one nu is
wanted, and its depth grows with n.  The full expansion keeps that walk
because it needs every nu, and there composing LR numbers is several times
slower.

The character oracle evaluates the triple character sum
g = sum over cycle types rho of chi^lam chi^mu chi^nu / z_rho with exact
integer arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Iterable, NamedTuple

from .expansion import SchurExpansion
from .partitions import (
    DomainError,
    InvariantError,
    Partition,
    check_tworow_args,
    conjugate,
    enumerate_partitions,
    intersect,
    shrink,
)
from .tableaux import _expand_fillings


class CycleType(NamedTuple):
    """A conjugacy class of S_n: its cycle lengths and centralizer order."""

    parts: Partition
    z: int


def centralizer_order(rho: Partition) -> int:
    z = 1
    for i, m in Counter(rho).items():
        z *= i**m * math.factorial(m)
    return z


def cycle_types(n: int) -> list[CycleType]:
    """All classes of S_n in descending lex order of cycle type."""
    return [CycleType(rho, centralizer_order(rho)) for rho in enumerate_partitions(n)]


def oracle_tworow_signed_sum(n: int, p: int, lam: Partition) -> SchurExpansion:
    """Full expansion of s_{(n-p,p)} * s_lam by the signed skew-product sum."""
    check_tworow_args(n, p, lam)
    acc: dict[Partition, int] = {}
    for alpha in enumerate_partitions(p, inside=lam):
        _expand_fillings(lam, alpha, alpha, kron=False, out=acc)
    if p >= 1:
        neg: dict[Partition, int] = {}
        for beta in enumerate_partitions(p - 1, inside=lam):
            _expand_fillings(lam, beta, beta, kron=False, out=neg)
        for nu, c in neg.items():
            acc[nu] = acc.get(nu, 0) - c
    bad = {nu: c for nu, c in acc.items() if c < 0}
    if bad:
        raise InvariantError(f"signed sum went negative: {bad}")
    return SchurExpansion(acc)


def oracle_tworow_signed_coeff(n: int, p: int, lam: Partition, nu: Partition) -> int:
    """Single coefficient of s_nu in s_{(n-p,p)} * s_lam, same signed sum
    composed from Littlewood-Richardson numbers on skew shapes of at most p
    cells."""
    check_tworow_args(n, p, lam, nu)
    inter = intersect(lam, nu)
    surplus = sum(inter) - (n - p)
    if surplus < 0:
        return 0
    levels = shrink(inter, surplus)
    total = _lr_pairs(lam, nu, levels[surplus])
    if p >= 1 and surplus >= 1:
        total -= _lr_pairs(lam, nu, levels[surplus - 1])
    if total < 0:
        raise InvariantError(f"signed sum went negative at {nu}: {total}")
    return total


def _lr_pairs(lam: Partition, nu: Partition, mus: Iterable[Partition]) -> int:
    """Sum over mu in mus and a of c^lam_{mu a} c^nu_{mu a}: one walk of
    lam/mu and one of nu/mu give every c_{mu a} at once."""
    total = 0
    for mu in mus:
        left = _expand_fillings(lam, mu, (), False)
        if left:
            right = _expand_fillings(nu, mu, (), False)
            total += sum(c * right.get(a, 0) for a, c in left.items())
    return total


@lru_cache(maxsize=None)
def _mn(lam: Partition, rho: Partition) -> int:
    """Character value by signed border-strip removal, largest cycle first."""
    if not rho:
        return 1
    k = rho[0]
    rest = rho[1:]
    length = len(lam)
    beta = [lam[j] + (length - 1 - j) for j in range(length)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for b2 in beta if nb < b2 < b)
        newbeta = sorted((nb if x == b else x for x in beta), reverse=True)
        mu = tuple(
            x
            for x in (newbeta[j] - (length - 1 - j) for j in range(length))
            if x
        )
        total += (-1) ** height * _mn(mu, rest)
    return total


def mn_character(lam: Partition, rho: Partition) -> int:
    """chi^lam evaluated on the class of cycle type rho."""
    if sum(lam) != sum(rho):
        raise DomainError(f"size mismatch: |{lam}| != |{rho}|")
    return _mn(tuple(lam), tuple(rho))


@lru_cache(maxsize=None)
def _char_table(n: int):
    """(partitions, centralizer orders, chi[i][j]) for S_n, descending lex."""
    parts = tuple(enumerate_partitions(n))
    zs = tuple(centralizer_order(r) for r in parts)
    chi = tuple(tuple(_mn(l, r) for r in parts) for l in parts)
    index = {lam: i for i, lam in enumerate(parts)}
    return parts, zs, chi, index


def _character_quotient(s: int, fact: int, nu: Partition) -> int:
    """The coefficient s / n! at nu, which must be a non-negative integer."""
    g, rem = divmod(s, fact)
    if rem:
        raise InvariantError(f"non-integral Kronecker coefficient at {nu}")
    if g < 0:
        raise InvariantError(f"negative Kronecker coefficient at {nu}")
    return g


def oracle_character_kron(lam: Partition, mu: Partition) -> SchurExpansion:
    """Full expansion of s_lam * s_mu from the triple character sum."""
    n = sum(lam)
    if sum(mu) != n:
        raise DomainError(f"size mismatch: |{lam}| != |{mu}|")
    parts, zs, chi, index = _char_table(n)
    fact = math.factorial(n)
    classes = [fact // z for z in zs]
    row_l = chi[index[tuple(lam)]]
    row_m = chi[index[tuple(mu)]]
    weights = [c * a * b for c, a, b in zip(classes, row_l, row_m)]
    result: dict[Partition, int] = {}
    for i, nu in enumerate(parts):
        row_n = chi[i]
        g = _character_quotient(sum(w * x for w, x in zip(weights, row_n)), fact, nu)
        if g:
            result[nu] = g
    return SchurExpansion(result)


def oracle_character_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Single Kronecker coefficient g_{lam,mu,nu} from the character sum."""
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise DomainError("all three partitions must have the same size")
    parts, zs, chi, index = _char_table(n)
    fact = math.factorial(n)
    row_l = chi[index[tuple(lam)]]
    row_m = chi[index[tuple(mu)]]
    row_n = chi[index[tuple(nu)]]
    s = sum(
        (fact // z) * a * b * c for z, a, b, c in zip(zs, row_l, row_m, row_n)
    )
    return _character_quotient(s, fact, nu)


def dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    if not lam:
        return 1
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    f, rem = divmod(math.factorial(sum(lam)), hooks)
    if rem:
        raise InvariantError(f"hook product of {lam} does not divide |{lam}|!")
    return f
