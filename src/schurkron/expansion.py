"""Schur expansions: maps from partitions to integer coefficients."""

from __future__ import annotations

from typing import Iterator, Mapping

from .partitions import DomainError, Partition


class SchurExpansion:
    """A finite integer combination of Schur functions, indexed by partitions.

    Zero coefficients are never stored.  All keys must be partitions of one
    common size (checked on construction); the empty expansion has no size.
    """

    __slots__ = ("_terms", "weight")

    def __init__(self, terms: Mapping[Partition, int] | None = None):
        clean: dict[Partition, int] = {}
        weight: int | None = None
        for nu, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            w = sum(nu)
            if weight is None:
                weight = w
            elif w != weight:
                raise DomainError(f"mixed-size keys: {nu} weighs {w}, expected {weight}")
            clean[nu] = coeff
        self._terms = clean
        self.weight = weight

    def __getitem__(self, nu: Partition) -> int:
        return self._terms.get(tuple(nu), 0)

    def __contains__(self, nu: Partition) -> bool:
        return tuple(nu) in self._terms

    def __iter__(self) -> Iterator[Partition]:
        return iter(sorted(self._terms, reverse=True))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def items_desc(self) -> list[tuple[Partition, int]]:
        """(partition, coefficient) pairs in descending lex order."""
        return [(nu, self._terms[nu]) for nu in sorted(self._terms, reverse=True)]

    def as_dict(self) -> dict[Partition, int]:
        return dict(self._terms)

    @property
    def is_positive(self) -> bool:
        """True iff every stored coefficient is positive."""
        return all(c > 0 for c in self._terms.values())

    def max_coefficient(self) -> int:
        return max(self._terms.values(), default=0)

    def __add__(self, other: "SchurExpansion") -> "SchurExpansion":
        acc = dict(self._terms)
        for nu, c in other._terms.items():
            acc[nu] = acc.get(nu, 0) + c
        return SchurExpansion(acc)

    def __sub__(self, other: "SchurExpansion") -> "SchurExpansion":
        acc = dict(self._terms)
        for nu, c in other._terms.items():
            acc[nu] = acc.get(nu, 0) - c
        return SchurExpansion(acc)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SchurExpansion):
            return self._terms == other._terms
        if isinstance(other, dict):
            return self._terms == {k: v for k, v in other.items() if v}
        return NotImplemented

    def __hash__(self):  # expansions are mutable-free but dict-backed
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{nu}: {c}" for nu, c in self.items_desc())
        return f"SchurExpansion({{{body}}})"
