"""Semistandard skew tableaux filtered by alpha-shifted lattice words.

One walk, ``_fill``, serves both uses of the engine.  It fills the cells in
reverse reading order (right to left within a row, top row first), which
makes the lattice condition a prefix property: a value v may be placed only
while #(v-1)'s + alpha_{v-1} stays >= #v's + alpha_v.  The running tallies
count[v] + alpha_v are kept in ``profile``, which therefore stays weakly
decreasing and, at a leaf, *is* the partition type + alpha; each leaf adds
to the bucket of that partition.  Expand mode (``_expand_fillings``) keeps
every bucket.  Count mode (``_count_fillings``) gives a target nu and adds
one limit: v may be placed only while profile[v] < nu_v.  The cells number
|nu| - |alpha|, so every leaf then has profile == nu and the count is the
sum of the buckets.

The walk merges equal fill states before the tail: the shortest run of
whole last skew rows that holds at least 3 cells (the last row alone when it
is that long).  How the tail can be filled depends only on the values of the
row above it over its first row's columns, on the profile and on the limit,
which is constant, so the merge is exact in both modes and many paths share
one state.  The walk counts the paths per state at the first cell of the
tail and fills the tail once per state, weighting each tableau it reaches by
the count.  Letting the tail span several short rows, instead of merging
only before a long last row, gives shapes with short bottom rows the same
gain.  The Kronecker check (rows 1 and 2 settled) must already have run by
then, so shapes whose check runs inside the tail, and capped walks, whose
stopping bucket depends on the visiting order, keep the plain per-tableau
walk; so do shapes whose tail would be the whole shape.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .partitions import Partition, SkewShape, check_partition, contains, part, skew_shape


class Tableau(NamedTuple):
    """A filling of a skew shape; row r holds the entries of its skew cells."""

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]


def is_ssyt(t: Tableau) -> bool:
    """Rows weakly increase left to right, columns strictly increase down."""
    outer, inner = t.shape
    if len(t.rows) != len(outer):
        return False
    grid: dict[tuple[int, int], int] = {}
    for r, row in enumerate(t.rows):
        start = inner[r] if r < len(inner) else 0
        if len(row) != outer[r] - start:
            return False
        for off, v in enumerate(row):
            if v < 1:
                return False
            grid[(r, start + off)] = v
    for (r, c), v in grid.items():
        if (r, c + 1) in grid and grid[(r, c + 1)] < v:
            return False
        if (r - 1, c) in grid and grid[(r - 1, c)] >= v:
            return False
    return True


def reverse_reading_word(t: Tableau) -> tuple[int, ...]:
    """Entries read right to left along each row, top row first."""
    word: list[int] = []
    for row in t.rows:
        word.extend(reversed(row))
    return tuple(word)


def tableau_type(t: Tableau) -> tuple[int, ...]:
    """(t_1, t_2, ...) where t_i counts the entries equal to i."""
    counts: list[int] = []
    for row in t.rows:
        for v in row:
            while len(counts) < v:
                counts.append(0)
            counts[v - 1] += 1
    return tuple(counts)


def is_alpha_lattice(word: Sequence[int], alpha: Partition) -> bool:
    """True iff every prefix has #i's + alpha_i >= #(i+1)'s + alpha_{i+1}."""
    width = max([len(alpha) + 1, *word]) + 1 if word else len(alpha) + 2
    profile = [0] * (width + 1)
    profile[0] = len(word) + sum(alpha) + 1
    for i, a in enumerate(alpha):
        profile[i + 1] = a
    for v in word:
        if profile[v - 1] <= profile[v]:
            return False
        profile[v] += 1
    return True


@lru_cache(maxsize=1024)
def _cells(outer: Partition, inner: Partition) -> tuple[tuple[int, int, int], ...]:
    """Reverse-reading-order metadata: (above index, right index, row)."""
    index: dict[tuple[int, int], int] = {}
    meta: list[tuple[int, int, int]] = []
    k = 0
    for r, end in enumerate(outer):
        start = inner[r] if r < len(inner) else 0
        for c in range(end - 1, start - 1, -1):
            meta.append((index.get((r - 1, c), -1), index.get((r, c + 1), -1), r))
            index[(r, c)] = k
            k += 1
    return tuple(meta)


def _kron_setup(outer, inner, alpha, meta, ncells):
    """Checkpoint data for the Kronecker tableau conditions.

    Returns (check_at, slot2, gap, row1).  check_at == -1 means condition (I)
    applies (alpha_1 == alpha_2) and every filling qualifies.  Otherwise a
    filling must have a 1 in box (2, alpha_1) or exactly gap 2's in row 1,
    whose row1 cells come first in the fill order; both facts are settled
    once rows 1 and 2 are filled, so the check runs at the first cell of
    row 3 (or at the leaf for shorter shapes).
    """
    a1 = alpha[0] if alpha else 0
    a2 = alpha[1] if len(alpha) > 1 else 0
    if a1 == a2:
        return -1, -1, 0, 0
    row1 = sum(1 for _, _, r in meta if r == 0)
    # box (2, alpha_1) follows row 1's cells, outer_2 - alpha_1 cells into row 2
    slot2 = row1 + part(outer, 2) - a1 if part(inner, 2) < a1 <= part(outer, 2) else -1
    check_at = ncells
    for k, (_, _, r) in enumerate(meta):
        if r >= 2:
            check_at = k
            break
    return check_at, slot2, a1 - a2, row1


class CapReached(Exception):
    """Raised by _expand_fillings when a bucket hits the requested cap."""

    def __init__(self, nu: Partition):
        super().__init__(nu)
        self.nu = nu


def _fill(
    outer: Partition,
    inner: Partition,
    alpha: Partition,
    kron: bool,
    target: Partition | None = None,
    out: dict | None = None,
    cap: int | None = None,
) -> dict[Partition, int]:
    """The fill engine: accumulate {type + alpha: count} into ``out`` over
    the alpha-lattice SSYT of the skew shape (Kronecker tableaux only when
    kron=True), only of type target - alpha when a target is given."""
    meta = _cells(outer, inner)
    ncells = len(meta)
    la = len(alpha)
    profile = [0] * (ncells + la + 2)
    profile[0] = ncells + sum(alpha) + 1
    for i, a in enumerate(alpha):
        profile[i + 1] = a
    # profile[v] must stay below limit[v]: target_v, or out of reach
    if target is None:
        limit = [profile[0]] * len(profile)
    else:
        limit = ([0, *target] + [0] * len(profile))[: len(profile)]
    vals = [0] * ncells
    buckets = {} if out is None else out
    check_at, slot2, gap, row1 = (
        _kron_setup(outer, inner, alpha, meta, ncells) if kron else (-1, -1, 0, 0)
    )
    vmax = la
    stop = ncells
    if cap is None:
        # the tail's first cell: back up to a row start with >= 3 cells after it
        first = ncells
        while first > 0 and (ncells - first < 3 or meta[first - 1][2] == meta[first][2]):
            first -= 1
        if first > 0 and check_at <= first:
            stop = first
    aboves = [meta[k][0] for k in range(stop, ncells) if 0 <= meta[k][0] < stop]
    states: dict[tuple, int] = {}
    weight = 1

    def rec(k: int) -> None:
        nonlocal vmax
        if k == check_at and not (
            (slot2 >= 0 and vals[slot2] == 1) or vals[:row1].count(2) == gap
        ):
            return
        if k == stop:
            if k < ncells:
                key = (tuple([vals[a] for a in aboves]), tuple(profile[1 : vmax + 1]))
                states[key] = states.get(key, 0) + 1
                return
            nu = tuple(profile[1 : vmax + 1])
            c = buckets.get(nu, 0) + weight
            buckets[nu] = c
            if cap is not None and c >= cap:
                raise CapReached(nu)
            return
        above, right, _ = meta[k]
        lo = vals[above] + 1 if above >= 0 else 1
        hi = vals[right] if right >= 0 else vmax + 1
        for v in range(lo, hi + 1):
            pv = profile[v]
            if profile[v - 1] <= pv or pv >= limit[v]:
                continue
            profile[v] = pv + 1
            vals[k] = v
            if v > vmax:  # the lattice test allows v = vmax + 1 at most
                vmax = v
                rec(k + 1)
                vmax = v - 1
            else:
                rec(k + 1)
            profile[v] = pv

    rec(0)
    if stop < ncells:
        stop, check_at = ncells, -1
        width = len(profile) - 1
        for (above_vals, prof), weight in states.items():
            for a, v in zip(aboves, above_vals):
                vals[a] = v
            vmax = len(prof)
            profile[1:] = prof + (0,) * (width - vmax)
            rec(first)
        # rec refers to itself, so this frame's cells live until a full
        # collection; drop the table now rather than with them
        states.clear()
    return buckets


def _count_fillings(
    outer: Partition,
    inner: Partition,
    nu: Partition,
    alpha: Partition,
    kron: bool,
) -> int:
    """Number of alpha-lattice SSYT of shape outer/inner and type nu - alpha
    (Kronecker tableaux only when kron=True).  nu must contain alpha row by
    row but need not be a partition.  Uncached: a repeated single Kronecker
    coefficient is answered by the memo of ``kronecker.kron_coeff``."""
    if sum(nu) != sum(outer) - sum(inner) + sum(alpha):
        return 0
    return sum(_fill(outer, inner, alpha, kron, nu).values())


def _expand_fillings(
    outer: Partition,
    inner: Partition,
    alpha: Partition,
    kron: bool,
    out: dict | None = None,
    cap: int | None = None,
) -> dict[Partition, int]:
    """Accumulate {nu: count} into ``out`` over all alpha-lattice SSYT of the
    skew shape, nu being a filling's type plus alpha (Kronecker tableaux only
    when kron=True).  If cap is given, CapReached is raised as soon as any
    bucket reaches it, with the fillings visited one by one in reverse
    reading order."""
    return _fill(outer, inner, alpha, kron, None, out, cap)


def _normalize_counts(counts: Iterable[int]) -> tuple[int, ...]:
    c = tuple(int(x) for x in counts)
    while c and c[-1] == 0:
        c = c[:-1]
    if any(x < 0 for x in c):
        raise ValueError(f"negative multiplicity in type {c!r}")
    return c


def count_ssyt_alpha_lattice(
    shape: SkewShape, type_counts: Iterable[int], alpha: Partition
) -> int:
    """Number of SSYT of the shape and type whose reverse reading word is an
    alpha-lattice permutation; alpha = () gives plain lattice filtering."""
    shape = skew_shape(*shape)
    alpha = tuple(alpha)
    check_partition(alpha)
    counts = _normalize_counts(type_counts)
    if sum(counts) != shape.size:
        raise ValueError(
            f"type weighs {sum(counts)}, shape has {shape.size} cells"
        )
    width = max(len(counts), len(alpha))
    nu = tuple(part(counts, i) + part(alpha, i) for i in range(1, width + 1))
    return _count_fillings(shape.outer, shape.inner, nu, alpha, False)


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu nu}."""
    for shape in (lam, mu, nu):
        check_partition(shape)
    if sum(lam) != sum(mu) + sum(nu) or not contains(mu, lam):
        return 0
    return _count_fillings(lam, mu, nu, (), False)
