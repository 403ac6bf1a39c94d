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
wanted, and its depth grows with n.  This composition is what
``kronecker.kron_coeff`` runs on every route, whose memo keeps the answers;
this function itself is uncached.  The full expansion keeps the walk of
lam/a because it needs every nu, and there composing LR numbers is several
times slower.

The character oracle evaluates the triple character sum
g = sum over cycle types rho of chi^lam chi^mu chi^nu / z_rho with exact
integer arithmetic, for n <= MAX_CHAR_N.  A single coefficient is one dot
product over the classes.  The full expansion packs each column of the
character table into one integer, column_rho = sum over nu of
chi^nu(rho) B^i(nu) with B = 2^shift, so that one multiply-add per class,
sum over rho of (n!/z_rho) chi^lam(rho) chi^mu(rho) column_rho, gives every
n! g_nu at once as the base-B digits of the total (Kronecker substitution).
Each |n! g_nu| <= sum over rho of |C_rho| m^3 = n! m^3, with m the largest
|chi|, and B > 4 n! m^3, so every digit is read back exactly as a signed
digit; the integrality and sign checks then run on each digit.
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
    check_partition,
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
    (lam,) = check_tworow_args(n, p, lam)
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
    lam, nu = check_tworow_args(n, p, lam, nu)
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


MN_CACHE = 1 << 19
"""Character values kept by ``_mn``.  Building ``_char_table(MAX_CHAR_N)``
alone leaves 469,267 of them, so a table build never evicts its own
entries, and the memory stays bounded however many tables a process
builds."""


@lru_cache(maxsize=MN_CACHE)
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
    lam = check_partition(lam)
    return _mn(lam, check_partition(rho, sum(lam)))


MAX_CHAR_N = 20
"""Largest n for the character oracle.  Its table has p(n)^2 entries from
the Murnaghan-Nakayama recursion: on a 2-core host, building it took 0.9 s
and 24 MiB at n = 16, 2.4 s and 48 MiB at n = 18, and 6.8 s and 85 MiB at
n = 20, each step of 2 costing about 2.7 times the time."""


def _pack_columns(chi, fact: int) -> tuple[int, tuple[int, ...]]:
    """(shift, columns): column j of chi packed as sum over i of
    chi[i][j] 2^(shift i).  With m the largest |chi|, shift is
    bitlen(fact m^3) + 2 rounded up to whole bytes, so a combination of
    columns whose digits all have |digit| <= fact m^3 reads back exactly as
    signed base-2^shift digits.  Each column is laid out in one pass as
    bytes, every entry offset by half a digit, and the offsets taken off."""
    m = max(abs(x) for row in chi for x in row)
    width = ((fact * m**3).bit_length() + 9) // 8
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * len(chi), "little")
    columns = []
    for col in zip(*chi):
        raw = b"".join((x + half).to_bytes(width, "little") for x in col)
        columns.append(int.from_bytes(raw, "little") - offset)
    return 8 * width, tuple(columns)


@lru_cache(maxsize=4)
def _char_table(n: int):
    """(partitions, centralizer orders, chi[i][j], index, shift, columns) for
    S_n, descending lex; the packed columns come from ``_pack_columns``.
    Refuses n > MAX_CHAR_N with DomainError before computing anything.
    Callers go through n in order, so a few cached tables suffice."""
    if n > MAX_CHAR_N:
        raise DomainError(
            f"character oracle supports n <= {MAX_CHAR_N}, got n = {n}"
        )
    parts = tuple(enumerate_partitions(n))
    zs = tuple(centralizer_order(r) for r in parts)
    chi = tuple(tuple(_mn(l, r) for r in parts) for l in parts)
    index = {lam: i for i, lam in enumerate(parts)}
    return (parts, zs, chi, index) + _pack_columns(chi, math.factorial(n))


def _character_quotient(s: int, fact: int, nu: Partition) -> int:
    """The coefficient s / n! at nu, which must be a non-negative integer."""
    g, rem = divmod(s, fact)
    if rem:
        raise InvariantError(f"non-integral Kronecker coefficient at {nu}")
    if g < 0:
        raise InvariantError(f"negative Kronecker coefficient at {nu}")
    return g


def oracle_character_kron(lam: Partition, mu: Partition) -> SchurExpansion:
    """Full expansion of s_lam * s_mu from the triple character sum: one
    multiply-add of a packed column per class, then the signed base-2^shift
    digits of the total are n! g_nu in the order of the partitions."""
    lam = check_partition(lam)
    n = sum(lam)
    mu = check_partition(mu, n)
    parts, zs, chi, index, shift, columns = _char_table(n)
    fact = math.factorial(n)
    row_l = chi[index[lam]]
    row_m = chi[index[mu]]
    total = 0
    for z, a, b, column in zip(zs, row_l, row_m, columns):
        if a and b:
            total += (fact // z) * a * b * column
    base = 1 << shift
    mask, half = base - 1, base >> 1
    result: dict[Partition, int] = {}
    for nu in parts:
        digit = total & mask
        total >>= shift
        if digit >= half:  # a negative digit: the digits above owe one more
            digit -= base
            total += 1
        g = _character_quotient(digit, fact, nu)
        if g:
            result[nu] = g
    if total:
        raise InvariantError(
            f"character sum left a carry of {total} past the last digit"
        )
    return SchurExpansion(result)


def oracle_character_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Single Kronecker coefficient g_{lam,mu,nu} from the character sum."""
    lam = check_partition(lam)
    n = sum(lam)
    mu, nu = check_partition(mu, n), check_partition(nu, n)
    parts, zs, chi, index, _, _ = _char_table(n)
    fact = math.factorial(n)
    row_l = chi[index[lam]]
    row_m = chi[index[mu]]
    row_n = chi[index[nu]]
    s = sum(
        (fact // z) * a * b * c for z, a, b, c in zip(zs, row_l, row_m, row_n)
    )
    return _character_quotient(s, fact, nu)


def dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    lam = check_partition(lam)
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
