"""Skew Schur expansion and the Schur positivity test.

``skew_expand`` implements the label-placement algorithm: form the reverse
lexicographic filling of the inner shape, then move its labels (largest
first) onto outermost boxes of the outer shape so that after every step the
unlabelled boxes form a Young diagram and each label stays strictly left /
weakly below its left neighbour and strictly above / weakly right of the
label that sat underneath it.  The unlabelled diagrams that remain are the
terms of the expansion.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .expansion import SchurExpansion
from .partitions import (
    DomainError,
    Partition,
    SkewShape,
    check_partition,
    part,
    remove_box,
    skew_shape,
)
from .tableaux import _expand_fillings


def reverse_lex_filling(mu: Partition) -> tuple[tuple[int, ...], ...]:
    """Labels 1..|mu| entered right to left, top to bottom; rows left to right."""
    mu = check_partition(mu)
    grid: list[tuple[int, ...]] = []
    start = 0
    for row_len in mu:
        grid.append(tuple(start + row_len - j for j in range(row_len)))
        start += row_len
    return tuple(grid)


def skew_expand(lam: Partition, mu: Partition) -> SchurExpansion:
    """Expansion of s_{lam/mu} in the Schur basis via label placement."""
    lam, mu = skew_shape(lam, mu)
    total = sum(mu)
    if total == 0:
        return SchurExpansion({lam: 1})

    # label positions in the reverse lexicographic filling, 1-based
    filling = reverse_lex_filling(mu)
    pos = {x: (i, j) for i, row in enumerate(filling, 1) for j, x in enumerate(row, 1)}

    lmu = len(mu)
    placed: dict[int, tuple[int, int]] = {}
    cur = list(lam)
    buckets: dict[Partition, int] = {}

    def placements(x: int) -> Iterator[None]:
        """Move label x onto each allowed corner in turn, pausing while it
        sits there; ``cur`` is restored when the generator finishes."""
        i, j = pos[x]
        # constraints from the filling position (the Remark's bounds) ...
        l_min = i
        m_min = mu[i - 1] - j + 1
        m_max = lam[0]
        l_max = len(lam)
        # ... strictly left of and weakly below the left neighbour ...
        if j > 1:
            pl, pm = placed[filling[i - 1][j - 2]]
            if pl > l_min:
                l_min = pl
            m_max = pm - 1
        # ... strictly above and weakly right of the label underneath.
        if i < lmu and j <= mu[i]:
            pl, pm = placed[filling[i][j - 1]]
            l_max = pl - 1
            if pm > m_min:
                m_min = pm
        for l in range(1, len(cur) + 1):
            m = cur[l - 1]
            if m == 0:
                break
            if l < len(cur) and cur[l] == m:
                continue  # not a removable corner
            if not (l_min <= l <= l_max and m_min <= m <= m_max):
                continue
            cur[l - 1] -= 1
            placed[x] = (l, m)
            yield
            cur[l - 1] += 1

    # one paused generator per label on the board, largest first, instead of
    # one recursive call per label, so |mu| is not limited by the recursion
    # limit; placed[y] is read only for labels y > x, which are all current
    stack = [placements(total)]
    while stack:
        if next(stack[-1], True):  # the top label has no corner left
            stack.pop()
        elif len(stack) < total:
            stack.append(placements(total - len(stack)))
        else:
            nu = tuple(v for v in cur if v)
            buckets[nu] = buckets.get(nu, 0) + 1
    return SchurExpansion(buckets)


def min_lex_term(lam: Partition, alpha: Partition) -> Partition:
    """The lex-smallest partition in the expansion of s_{lam/alpha}: the row
    differences lam_i - alpha_i sorted into decreasing order."""
    lam, alpha = skew_shape(lam, alpha)
    diffs = sorted(
        (part(lam, i) - part(alpha, i) for i in range(1, len(lam) + 1)),
        reverse=True,
    )
    return tuple(d for d in diffs if d)


def join(top: SkewShape, bottom: SkewShape) -> SkewShape:
    """Glue ``top`` to the upper right of ``bottom``; s of the join is the
    product of the two skew Schur functions."""
    top, bottom = skew_shape(*top), skew_shape(*bottom)
    width = bottom.outer[0] if bottom.outer else 0
    outer = tuple(width + x for x in top.outer) + bottom.outer
    inner_top = tuple(
        width + (top.inner[r] if r < len(top.inner) else 0)
        for r in range(len(top.outer))
    )
    inner = inner_top + bottom.inner
    while inner and inner[-1] == 0:
        inner = inner[:-1]
    return SkewShape(outer, inner)


def skew_times_alpha(lam: Partition, alpha: Partition) -> SchurExpansion:
    """Expansion of the product s_{lam/alpha} * s_alpha.

    The coefficient of s_nu counts SSYT of shape lam/alpha and type
    nu - alpha whose reverse reading word is an alpha-lattice permutation;
    the enumeration buckets every such filling by its type plus alpha.
    """
    lam, alpha = skew_shape(lam, alpha)
    return SchurExpansion(_expand_fillings(lam, alpha, alpha, kron=False))


class PositivityResult(NamedTuple):
    expansion: SchurExpansion
    schur_positive: bool


def positivity_diff(lam: Partition, alpha: Partition) -> PositivityResult:
    """Expand s_{lam/alpha} s_alpha - s_{lam/alpha^-} s_alpha^- where alpha^-
    drops one box from the first row; the difference is Schur positive exactly
    when lam_1 >= 2 alpha_1 - 1."""
    lam, alpha = skew_shape(lam, alpha)
    if not alpha:
        raise DomainError("alpha must be non-empty")
    if part(alpha, 1) == part(alpha, 2):
        raise DomainError(f"alpha must have alpha_1 > alpha_2: {alpha}")
    diff = skew_times_alpha(lam, alpha) - skew_times_alpha(lam, remove_box(alpha, 0))
    return PositivityResult(diff, diff.is_positive)
