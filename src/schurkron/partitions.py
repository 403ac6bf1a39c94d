"""Integer partitions and skew shapes.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0.  Reading a part beyond the length gives 0,
so formulas never need explicit zero padding.

This module is the one place that decides whether arguments are valid
shapes: ``check_partition`` (a partition, optionally of a given size),
``skew_shape`` (two partitions, one inside the other) and
``check_tworow_args`` (partitions of n and 0 <= 2p <= n).  Every public
function of the package that takes a partition calls one of them.  The
primitives here (``part``, ``conjugate``, ``contains``, ``intersect``,
``lex_compare``, ``remove_box``, ``add_box``, ...) do not check: they run in
inner loops on shapes that were checked at the boundary.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, NamedTuple

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
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    check_partition(p)
    return p


def check_partition(lam: Partition, n: int | None = None) -> int:
    """Return the size of lam; raise DomainError unless its parts are
    positive and weakly decreasing (one pass: each part at least the next,
    the last above 0) and, when n is given, sum to n."""
    if lam and (lam[-1] <= 0 or not all(map(operator.ge, lam, lam[1:]))):
        raise DomainError(
            f"{tuple(lam)} is not a partition: parts must be positive and weakly decreasing"
        )
    size = sum(lam)
    if n is not None and size != n:
        raise DomainError(f"{tuple(lam)} is not a partition of {n}")
    return size


def part(lam: Partition, i: int) -> int:
    """The i-th part, 1-based; 0 beyond the length."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram (column lengths)."""
    if not lam:
        return ()
    cols = [0] * lam[0]
    for row in lam:
        for c in range(row):
            cols[c] += 1
    return tuple(cols)


def contains(inner: Partition, outer: Partition) -> bool:
    """True iff inner fits inside outer row by row."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def intersect(lam: Partition, nu: Partition) -> Partition:
    """Boxes common to both diagrams: componentwise minimum."""
    common = tuple(min(a, b) for a, b in zip(lam, nu))
    while common and common[-1] == 0:
        common = common[:-1]
    return common


def lex_compare(lam: Partition, mu: Partition) -> int:
    """-1, 0 or 1; positions beyond a partition's length compare as 0."""
    for i in range(max(len(lam), len(mu))):
        a = lam[i] if i < len(lam) else 0
        b = mu[i] if i < len(mu) else 0
        if a != b:
            return -1 if a < b else 1
    return 0


def enumerate_partitions(
    n: int,
    max_length: int | None = None,
    max_part: int | None = None,
    inside: Partition | None = None,
) -> Iterator[Partition]:
    """All partitions of n meeting the constraints, in descending lex order.

    A depth-first walk on an explicit stack: ``parts`` is the prefix chosen
    so far and ``nxt[d]`` the next candidate for part d + 1, so the number
    of parts is not limited by the recursion limit."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return

    def largest(rest: int, cap: int, depth: int) -> int:
        if max_length is not None and depth >= max_length:
            return 0
        if inside is not None:
            cap = min(cap, inside[depth]) if depth < len(inside) else 0
        return min(rest, cap)

    rest, parts = n, []
    nxt = [largest(n, n if max_part is None else max_part, 0)]
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


def shrink(lam: Partition, k: int) -> list[set[Partition]]:
    """Levels 0..k: level j holds every partition inside lam with j fewer
    boxes, reached by removing one corner at a time (k loops, no recursion,
    however many rows lam has)."""
    levels = [{lam}]
    for _ in range(k):
        levels.append(
            {remove_box(mu, r) for mu in levels[-1] for r in removable_rows(mu)}
        )
    return levels


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


def skew_shape(outer: Partition, inner: Partition) -> SkewShape:
    """The skew shape outer/inner; DomainError unless both are partitions and
    inner fits inside outer."""
    check_partition(outer)
    check_partition(inner)
    if not contains(inner, outer):
        raise DomainError(f"{tuple(inner)} is not contained in {tuple(outer)}")
    return SkewShape(tuple(outer), tuple(inner))


def check_tworow_args(n: int, p: int, *shapes: Partition) -> None:
    """Raise DomainError unless 0 <= 2p <= n and every shape is a partition
    of n."""
    for lam in shapes:
        check_partition(lam, n)
    if p < 0 or 2 * p > n:
        raise DomainError(f"need 0 <= 2p <= n, got p={p}, n={n}")


def parse_partition(text: str) -> Partition:
    """Parse "6,4,4,1" or exponent form "3^2,1"; "" is the empty partition.

    At most MAX_PARTS parts, zeros included, may be spelled out.
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
        if value < 0 or mult < 0:
            raise PartitionParseError(f"negative values in {token!r}")
        if mult > MAX_PARTS - len(parts):
            raise PartitionParseError(f"more than {MAX_PARTS} parts in {text!r}")
        parts.extend([value] * mult)
    while parts and parts[-1] == 0:
        parts.pop()
    if any(x <= 0 for x in parts):
        raise PartitionParseError(f"zero part inside {text!r}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise PartitionParseError(f"parts must be weakly decreasing: {text!r}")
    return tuple(parts)


def format_partition(lam: Partition) -> str:
    """Canonical text form: plain comma-separated parts."""
    return ",".join(str(x) for x in lam)
