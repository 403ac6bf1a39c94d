"""Integer partitions and skew shapes.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0.  Reading a part beyond the length gives 0,
so formulas never need explicit zero padding.

This module is the one place that decides whether arguments are valid
and what form a checked argument takes: ``check_partition`` (a partition,
optionally of a given size), ``skew_shape`` (two partitions, one inside the
other) and ``check_tworow_args`` (partitions of n, for integers n and p
with 0 <= 2p <= n) accept any sequence of ints and return the shapes they
checked as tuples, and ``check_integers`` refuses a scalar that is not an
integer.  Every public function of the package that takes a partition or
an integer calls one of them and computes on what it returns.
``enumerate_partitions`` lists the partitions of n, all of them or those
inside one checked shape.  The primitives here (``part``, ``conjugate``,
``contains``, ``intersect``, ``lex_compare``, ``remove_box``, ``add_box``,
...) do not check: they run in inner loops on shapes that were checked at
the boundary.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, NamedTuple, Sequence

Partition = tuple[int, ...]

# parse_partition refuses text that spells out more parts than this, so that
# an exponent such as "3^99999999999" fails before anything is allocated
MAX_PARTS = 1_000_000


class DomainError(ValueError):
    """An argument violates the stated domain of an operation."""


class PartitionParseError(ValueError):
    """Malformed partition text."""


class InvariantError(RuntimeError):
    """A computed result broke a property that holds for every valid input."""


def partition(parts: Iterable[int]) -> Partition:
    """Build a partition from any iterable, stripping trailing zeros."""
    p = list(parts)
    while p and p[-1] == 0:
        p.pop()
    return check_partition(p)


def check_partition(lam: Sequence[int], n: int | None = None) -> Partition:
    """Return lam as a tuple of ints; raise DomainError unless its parts are
    integers, positive and weakly decreasing (one pass: each part at least
    the next, the last above 0) and, when n is given, sum to n."""
    try:
        shape = tuple(map(operator.index, lam))
    except TypeError:
        raise DomainError(f"{tuple(lam)} is not a partition: parts must be integers") from None
    if shape and (shape[-1] <= 0 or not all(map(operator.ge, shape, shape[1:]))):
        raise DomainError(
            f"{shape} is not a partition: parts must be positive and weakly decreasing"
        )
    if n is not None and sum(shape) != n:
        raise DomainError(f"{shape} is not a partition of {n}")
    return shape


def check_integers(values: Iterable, what: str) -> tuple[int, ...]:
    """values as a tuple of ints; DomainError, naming what, unless each one
    is an integer (a float or a string is refused, not truncated)."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise DomainError(f"{what} must be integers, got {values!r}") from None


def part(lam: Partition, i: int) -> int:
    """The i-th part, 1-based; 0 beyond the length."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram (column lengths): read bottom-up, row
    i adds lam_i - lam_{i+1} columns of length i, one list step per row."""
    cols: list[int] = []
    below = 0
    for i in range(len(lam), 0, -1):
        row = lam[i - 1]
        if row > below:
            cols += [i] * (row - below)
            below = row
    return tuple(cols)


def contains(inner: Partition, outer: Partition) -> bool:
    """True iff inner fits inside outer row by row."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def intersect(lam: Partition, nu: Partition) -> Partition:
    """Boxes common to both diagrams: componentwise minimum, which has no
    zero part since both shapes' parts are positive."""
    return tuple(map(min, lam, nu))


def lex_compare(lam: Partition, mu: Partition) -> int:
    """-1, 0 or 1; positions beyond a partition's length compare as 0."""
    for i in range(max(len(lam), len(mu))):
        a = lam[i] if i < len(lam) else 0
        b = mu[i] if i < len(mu) else 0
        if a != b:
            return -1 if a < b else 1
    return 0


def enumerate_partitions(n: int, inside: Sequence[int] | None = None) -> Iterator[Partition]:
    """All partitions of n, or all that fit inside the partition ``inside``,
    in descending lex order; DomainError unless n is an integer and inside,
    when given, a partition.  A length bound k is ``inside=(n,) * k`` and a
    part bound m is ``inside=(m,) * n``.

    A depth-first walk on an explicit stack: ``parts`` is the prefix chosen
    so far and ``nxt[d]`` the next candidate for part d + 1, so the number
    of parts is not limited by the recursion limit."""
    (n,) = check_integers((n,), "n")
    if inside is not None:
        inside = check_partition(inside)
    if n < 0:
        return
    if n == 0:
        yield ()
        return

    def largest(rest: int, cap: int, depth: int) -> int:
        if inside is not None:
            cap = min(cap, inside[depth]) if depth < len(inside) else 0
        return min(rest, cap)

    rest, parts = n, []
    nxt = [largest(n, n, 0)]
    while nxt:
        v = nxt.pop()
        if v > 0:
            nxt.append(v - 1)
            if v == rest:
                yield (*parts, v)
            else:
                parts.append(v)
                rest -= v
                nxt.append(largest(rest, v, len(parts)))
        elif parts:  # this depth is exhausted: take back the part above it
            rest += parts.pop()


def removable_rows(lam: Partition) -> list[int]:
    """0-based rows whose last box is a removable corner."""
    return [
        i
        for i in range(len(lam))
        if lam[i] > (lam[i + 1] if i + 1 < len(lam) else 0)
    ]


def addable_rows(lam: Partition) -> list[int]:
    """0-based rows (including a fresh last row) where a box can be added."""
    rows = [i for i in range(len(lam)) if i == 0 or lam[i - 1] > lam[i]]
    rows.append(len(lam))
    return rows


def remove_box(lam: Partition, row: int) -> Partition:
    new = list(lam)
    new[row] -= 1
    if new and new[-1] == 0:
        new.pop()
    return tuple(new)


def shrink(lam: Partition, k: int, low: int = 0) -> list[list[Partition]]:
    """Levels low..k, for 0 <= low <= k: level j lists, once each, the
    partitions inside lam with j fewer boxes.

    One walk on an explicit stack, with no recursion and no set.  It
    decides the rows bottom-up, row i losing at most lam_i - mu_{i+1} boxes
    and at most what is left of k, and keeps the rows decided as one tuple,
    ``below``.  A row that keeps its part fixes every row above it up to the
    next longer part, so the walk jumps there.  A branch ends at the top, or
    where k boxes are gone, and builds mu only if its level was asked for;
    at row 0 every loss ends one.  Each choice of losses is a different mu,
    so each mu is reached once."""
    rows = len(lam)
    levels: list[list[Partition]] = [[] for _ in range(low, k + 1)]
    # up[i]: the nearest row above row i with a longer part, -1 for none
    up, corner = [], -1
    for i in range(rows):
        up.append(corner)
        if i + 1 < rows and lam[i] > lam[i + 1]:
            corner = i
    # (row, boxes lost below it, the rows below it, its next loss to try)
    frames: list[tuple[int, int, Partition, int]] = []
    i, lost, below = rows - 1, 0, ()
    while True:
        # enter row i, the rows below it decided
        if i < 0 or lost == k:
            if lost >= low:
                levels[lost - low].append(lam[: i + 1] + below)
        elif i:
            top = lam[i] - (below[0] if below else 0)
            frames.append((i, lost, below, top if top < k - lost else k - lost))
        else:
            first = lam[0]
            top = first - (below[0] if below else 0)
            for r in range(low - lost if lost < low else 0, (top if top < k - lost else k - lost) + 1):
                levels[lost + r - low].append((first - r,) + below if r < first else below)
        if not frames:
            return levels
        # take the next loss, one fewer, of the last row with a loss left
        i, lost, below, r = frames.pop()
        if r:
            frames.append((i, lost, below, r - 1))
            lost += r
            if r < lam[i]:
                below = (lam[i] - r,) + below
            i -= 1
        else:
            i, below = up[i], lam[up[i] + 1 : i + 1] + below


def add_box(lam: Partition, row: int) -> Partition:
    if row == len(lam):
        return lam + (1,)
    new = list(lam)
    new[row] += 1
    return tuple(new)


class SkewShape(NamedTuple):
    """The cells of ``outer`` not in ``inner`` (inner must fit in outer)."""

    outer: Partition
    inner: Partition

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)


def skew_shape(outer: Sequence[int], inner: Sequence[int]) -> SkewShape:
    """The skew shape outer/inner; DomainError unless both are partitions and
    inner fits inside outer."""
    outer, inner = check_partition(outer), check_partition(inner)
    if not contains(inner, outer):
        raise DomainError(f"{inner} is not contained in {outer}")
    return SkewShape(outer, inner)


def check_tworow_args(n: int, p: int, *shapes: Sequence[int]) -> tuple[Partition, ...]:
    """The shapes as checked partitions; DomainError unless n and p are
    integers, 0 <= 2p <= n and every shape is a partition of n."""
    check_integers((n, p), "n and p")
    checked = tuple(check_partition(lam, n) for lam in shapes)
    if p < 0 or 2 * p > n:
        raise DomainError(f"need 0 <= 2p <= n, got p={p}, n={n}")
    return checked


def parse_partition(text: str) -> Partition:
    """Parse "6,4,4,1" or exponent form "3^2,1"; "" is the empty partition.

    At most MAX_PARTS parts, zeros included, may be spelled out.  Trailing
    zeros are dropped and the rest is checked by ``check_partition``, whose
    refusal is raised as PartitionParseError.
    """
    text = text.strip()
    if not text:
        return ()
    parts: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise PartitionParseError(f"empty component in {text!r}")
        base, sep, exp = token.partition("^")
        try:
            value = int(base)
            mult = int(exp) if sep else 1
        except ValueError:
            raise PartitionParseError(f"bad component {token!r} in {text!r}") from None
        if mult < 0:
            raise PartitionParseError(f"negative exponent in {token!r}")
        if mult > MAX_PARTS - len(parts):
            raise PartitionParseError(f"more than {MAX_PARTS} parts in {text!r}")
        parts.extend([value] * mult)
    try:
        return partition(parts)
    except DomainError as err:
        raise PartitionParseError(str(err)) from None


def format_partition(lam: Partition) -> str:
    """Canonical text form: plain comma-separated parts."""
    return ",".join(str(x) for x in lam)
