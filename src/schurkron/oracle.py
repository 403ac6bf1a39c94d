"""Two independent ground truths for Kronecker products.

The signed-sum oracle expands s_{(n-p,p)} * s_lam as
sum over a |- p inside lam of s_a s_{lam/a}, minus the same sum over
b |- p-1, pure tableau combinatorics valid for every lam.  It computes each
sum through the identity, for k <= n,

    sum over a |- k inside lam of s_a s_{lam/a}
        = sum over mu |- n-k inside lam of s_mu s_{lam/mu}.

Proof: s_{lam/a} = sum over mu of c^lam_{a mu} s_mu, so the left side is
sum over a and mu of c^lam_{a mu} s_a s_mu; since c^lam_{a mu} = c^lam_{mu a}
and sum over a of c^lam_{mu a} s_a = s_{lam/mu}, this is the right side.
The mu are levels p and p-1 of ``shrink``, and s_mu s_{lam/mu} is one walk
of the mu-lattice fillings of lam/mu, so no walk has more than p cells
however large n is.  The full expansion runs those walks in expand mode,
one level at a time (``_level``), and ``_signed`` takes the difference of
two levels; ``_signed_ladder`` walks every level up to a bound once, for
the ``verify`` grids.  A single coefficient of s_nu runs them in count mode
with target nu; only mu inside nu reach it, so mu comes from shrinking
lam & nu instead.  The lattice lets each cell take any value up to
l(mu) + 1, so both walk the wider of lam and its conjugate, the
coefficient with nu conjugated too and the expansion with its terms
conjugated back, which leaves every g unchanged, since
g_{(n-p,p),lam',nu'} = g_{(n-p,p),lam,nu}.  ``kronecker.kron_coeff`` reads
its values from its own table of the same levels on the same side
(``kronecker._alpha_bound``), so this count-mode coefficient, which is
uncached, is an independent check of it.

The character oracle evaluates the triple character sum
g = sum over cycle types rho of chi^lam chi^mu chi^nu / z_rho with exact
integer arithmetic, for n <= MAX_CHAR_N.  Character values come from the
Murnaghan-Nakayama rule run as a loop over the parts of rho: a dict of
signed shapes, each a beta-number bit mask, gains or loses one border strip
per part, and equal shapes merge, which is all the work a memo would save.
``mn_character`` strips rho off lam; the table adds rho's strips to the
empty shape once per class and reads every lam from the result.  A single
coefficient is one dot product over the classes.  The full expansion packs
each column of the character table into one integer, column_rho = sum over
nu of chi^nu(rho) B^i(nu) with B = 2^shift, so that one multiply-add per class,
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
    part,
    shrink,
)
from .tableaux import _count_fillings, _expand_fillings


class CycleType(NamedTuple):
    """A conjugacy class of S_n: its cycle lengths and centralizer order."""

    parts: Partition
    z: int


def centralizer_order(rho: Partition) -> int:
    """z_rho, the order of the centralizer of a permutation of cycle type rho."""
    rho = check_partition(rho)
    z = 1
    for i, m in Counter(rho).items():
        z *= i**m * math.factorial(m)
    return z


def cycle_types(n: int) -> list[CycleType]:
    """All classes of S_n in descending lex order of cycle type."""
    return [CycleType(rho, centralizer_order(rho)) for rho in enumerate_partitions(n)]


def oracle_tworow_signed_sum(n: int, p: int, lam: Partition) -> SchurExpansion:
    """Full expansion of s_{(n-p,p)} * s_lam by the signed sum: the walks of
    lam/mu for mu |- n-p inside lam, minus those for mu |- n-p+1, on the
    wider of lam and its conjugate (module docstring)."""
    (lam,) = check_tworow_args(n, p, lam)
    tall = len(lam) > part(lam, 1)
    work = conjugate(lam) if tall else lam
    top, below = _coeff_levels(work, work, p)
    return _signed(_level(work, top), _level(work, below), tall)


def _level(work: Partition, mus: Iterable[Partition]) -> dict[Partition, int]:
    """{nu: sum over mu in mus of the walks of work/mu}: one level of the
    signed sum, the s_mu s_{work/mu} of its mu."""
    acc: dict[Partition, int] = {}
    for mu in mus:
        _expand_fillings(work, mu, mu, kron=False, out=acc)
    return acc


def _signed(top: dict, below: dict, tall: bool) -> SchurExpansion:
    """top - below, the terms conjugated when tall; InvariantError if a
    term is negative, named as answered."""
    acc = dict(top)
    for nu, c in below.items():
        acc[nu] = acc.get(nu, 0) - c
    terms = {conjugate(nu) if tall else nu: c for nu, c in acc.items()}
    bad = {nu: c for nu, c in terms.items() if c < 0}
    if bad:
        raise InvariantError(f"signed sum went negative: {bad}")
    return SchurExpansion(terms)


def _signed_ladder(work: Partition, pmax: int) -> list[dict[Partition, int]]:
    """The ``_level`` of work for each level of ``shrink(work, pmax)``, each
    walked once.  The signed sum of case p is ``_signed`` of levels p and
    p - 1, so level p - 1 of case p is level p of case p - 1, and one ladder
    serves every p <= pmax.  pmax must not exceed |work| / 2."""
    return [_level(work, mus) for mus in shrink(work, pmax)]


def _coeff_levels(
    lam: Partition, nu: Partition, p: int
) -> tuple[list[Partition], list[Partition]]:
    """The mu |- n-p and the mu |- n-p+1 inside lam & nu, for lam, nu |- n,
    each once; a single coefficient of s_nu only meets walks of lam/mu for
    these mu, and only these two levels of ``shrink`` are listed.  At
    surplus 0 the one mu is lam & nu itself, with no walk."""
    inter = intersect(lam, nu)
    surplus = sum(inter) - (sum(lam) - p)
    if surplus < 0:
        return [], []
    if not surplus:
        return [inter], []
    levels = shrink(inter, surplus, surplus - 1)
    return levels[1], levels[0]


def oracle_tworow_signed_coeff(n: int, p: int, lam: Partition, nu: Partition) -> int:
    """Single coefficient of s_nu in s_{(n-p,p)} * s_lam: the same signed sum
    in count mode, one walk of at most p cells per mu inside lam & nu, on the
    wider of lam and its conjugate (module docstring)."""
    lam, nu = check_tworow_args(n, p, lam, nu)
    asked = nu
    if len(lam) > part(lam, 1):
        lam, nu = conjugate(lam), conjugate(nu)
    top, below = _coeff_levels(lam, nu, p)
    total = sum(_count_fillings(lam, mu, nu, mu, False) for mu in top)
    total -= sum(_count_fillings(lam, mu, nu, mu, False) for mu in below)
    if total < 0:
        raise InvariantError(f"signed sum went negative at {asked}: {total}")
    return total


def _strips(front: dict[int, int], k: int, up: bool) -> dict[int, int]:
    """One Murnaghan-Nakayama step on signed shapes.  A shape is the bit mask
    of its beta-numbers (bit lam_j + rows - 1 - j for each row j); adding
    (up) or removing a border strip of k cells moves one set bit k places
    onto a free bit, with sign (-1)^(set bits passed).  Equal shapes merge."""
    out: dict[int, int] = {}
    passed = (1 << (k - 1)) - 1
    for mask, count in front.items():
        movable = mask & ~(mask >> k) if up else mask & ~(mask << k) & -(1 << k)
        while movable:
            bit = movable & -movable
            movable ^= bit
            low = bit.bit_length() - 1 - (0 if up else k)
            moved = mask ^ (1 << low | 1 << (low + k))
            odd = (mask >> (low + 1) & passed).bit_count() & 1
            out[moved] = out.get(moved, 0) + (-count if odd else count)
    return out


def _beta_mask(lam: Partition, rows: int) -> int:
    """Beta-number bit mask of lam with rows rows; the rows past lam's have
    part 0, so they set the lowest rows - len(lam) bits."""
    tail = (1 << (rows - len(lam))) - 1
    return tail | sum(1 << (part + rows - 1 - j) for j, part in enumerate(lam))


def mn_character(lam: Partition, rho: Partition) -> int:
    """chi^lam evaluated on the class of cycle type rho: strip rho's parts
    off lam, largest first, and read the signed count left at the empty
    shape."""
    lam = check_partition(lam)
    rho = check_partition(rho, sum(lam))
    front = {_beta_mask(lam, len(lam)): 1}
    for k in rho:
        front = _strips(front, k, up=False)
    return front.get(_beta_mask((), len(lam)), 0)


MAX_CHAR_N = 20
"""Largest n for the character oracle.  Its table has p(n)^2 entries, one
column of border-strip additions per class: on a 2-core host, building it
took 0.08 s and 15 MiB at n = 16, 0.18 s and 19 MiB at n = 18, and 0.67 s
and 30 MiB at n = 20 (peak RSS of the whole process)."""


def _check_char_n(n: int) -> None:
    """DomainError unless n <= MAX_CHAR_N, the character oracle's limit."""
    if n > MAX_CHAR_N:
        raise DomainError(
            f"character oracle supports n <= {MAX_CHAR_N}, got n = {n}"
        )


def _pack_columns(columns, fact: int) -> tuple[int, tuple[int, ...]]:
    """(shift, packed): each column of a square table packed as sum over i
    of column[i] 2^(shift i).  With m the largest |entry|, shift is
    bitlen(fact m^3) + 2 rounded up to whole bytes, so a combination of
    columns whose digits all have |digit| <= fact m^3 reads back exactly as
    signed base-2^shift digits.  Each column is laid out in one pass as
    bytes, every entry offset by half a digit, and the offsets taken off."""
    m = max(abs(x) for col in columns for x in col)
    width = ((fact * m**3).bit_length() + 9) // 8
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * len(columns), "little")
    packed = []
    for col in columns:
        raw = b"".join((x + half).to_bytes(width, "little") for x in col)
        packed.append(int.from_bytes(raw, "little") - offset)
    return 8 * width, tuple(packed)


@lru_cache(maxsize=4)
def _char_table(n: int):
    """(partitions, centralizer orders, chi[i][j], index, shift, columns) for
    S_n, descending lex; the packed columns come from ``_pack_columns``, fed
    the columns of chi as they are built.
    Refuses n > MAX_CHAR_N with DomainError before computing anything.
    Callers go through n in order, so a few cached tables suffice."""
    _check_char_n(n)
    parts = tuple(enumerate_partitions(n))
    zs = tuple(centralizer_order(r) for r in parts)
    masks = [_beta_mask(lam, n) for lam in parts]
    columns = []
    for rho in parts:
        front = {_beta_mask((), n): 1}
        for k in reversed(rho):  # smallest first: 4x faster at n = 18
            front = _strips(front, k, up=True)
        columns.append([front.get(m, 0) for m in masks])
    chi = tuple(zip(*columns))
    index = {lam: i for i, lam in enumerate(parts)}
    return (parts, zs, chi, index) + _pack_columns(columns, math.factorial(n))


def _character_quotient(s: int, fact: int, nu: Partition) -> int:
    """The coefficient s / n! at nu, which must be a non-negative integer."""
    g, rem = divmod(s, fact)
    if rem:
        raise InvariantError(f"non-integral Kronecker coefficient at {nu}")
    if g < 0:
        raise InvariantError(f"negative Kronecker coefficient at {nu}")
    return g


def _class_weights(lam: Partition, mu: Partition) -> tuple[int, tuple, list[int]]:
    """(n!, ``_char_table(n)``, (n!/z_rho) chi^lam(rho) chi^mu(rho) for each
    class rho): what the triple character sum multiplies chi^nu(rho) by.
    Checks lam, then mu, then n."""
    lam = check_partition(lam)
    n = sum(lam)
    mu = check_partition(mu, n)
    table = _char_table(n)
    _, zs, chi, index = table[:4]
    fact = math.factorial(n)
    weights = [(fact // z) * a * b for z, a, b in zip(zs, chi[index[lam]], chi[index[mu]])]
    return fact, table, weights


def oracle_character_kron(lam: Partition, mu: Partition) -> SchurExpansion:
    """Full expansion of s_lam * s_mu from the triple character sum: one
    multiply-add of a packed column per class, then the signed base-2^shift
    digits of the total are n! g_nu in the order of the partitions."""
    fact, (parts, _, _, _, shift, columns), weights = _class_weights(lam, mu)
    total = 0
    for weight, column in zip(weights, columns):
        if weight:
            total += weight * column
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
    fact, (_, _, chi, index, _, _), weights = _class_weights(lam, mu)
    nu = check_partition(nu, sum(lam))
    s = sum(w * c for w, c in zip(weights, chi[index[nu]]))
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
