import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkron import (
    DomainError,
    PartitionParseError,
    conjugate,
    contains,
    cycle_types,
    enumerate_partitions,
    format_partition,
    intersect,
    lex_compare,
    parse_partition,
    part,
    partition,
    skew_shape,
)
from schurkron.partitions import shrink


def all_partitions_up_to(nmax):
    for n in range(nmax + 1):
        yield from enumerate_partitions(n)


class TestConjugate:
    def test_two_row(self):
        assert conjugate((3, 2)) == (2, 2, 1)

    def test_empty(self):
        assert conjugate(()) == ()

    def test_column(self):
        assert conjugate((1,) * 7) == (7,)

    def test_involution(self):
        for lam in all_partitions_up_to(9):
            assert conjugate(conjugate(lam)) == lam

    def test_is_the_box_by_box_transpose(self):
        # column c holds one box for each row of length > c
        for lam in all_partitions_up_to(14):
            cols = [0] * part(lam, 1)
            for row in lam:
                for c in range(row):
                    cols[c] += 1
            assert conjugate(lam) == tuple(cols), lam

    def test_long_rows_by_runs(self):
        assert conjugate((1000, 1000)) == (2,) * 1000
        assert conjugate((1000,) + (1,) * 999) == (1000,) + (1,) * 999


class TestContains:
    def test_examples(self):
        assert contains((3, 1), (5, 3, 1))
        assert not contains((2, 2, 2), (5, 3, 1))
        for lam in all_partitions_up_to(6):
            assert contains((), lam)

    def test_transpose_preserves_containment(self):
        smalls = list(all_partitions_up_to(12))
        flips = {lam: conjugate(lam) for lam in smalls}
        for mu, lam in itertools.product(smalls, smalls):
            assert contains(mu, lam) == contains(flips[mu], flips[lam])


class TestIntersect:
    def test_worked_example(self):
        assert intersect((5, 3, 1), (3, 2, 2, 1, 1)) == (3, 2, 1)

    def test_idempotent(self):
        for lam in all_partitions_up_to(7):
            assert intersect(lam, lam) == lam

    def test_row_column_cross(self):
        assert intersect((4,), (1, 1, 1)) == (1,)

    def test_lex_maximal_common_subdiagram(self):
        smalls = [lam for n in range(9) for lam in enumerate_partitions(n)]
        for lam, mu in itertools.product(smalls, smalls):
            cap = intersect(lam, mu)
            assert contains(cap, lam) and contains(cap, mu)
            for k in range(sum(cap) + 1):
                for kappa in enumerate_partitions(k, inside=lam):
                    if contains(kappa, mu):
                        assert lex_compare(kappa, cap) <= 0


class TestLexCompare:
    def test_examples(self):
        assert lex_compare((3, 1, 1), (3, 2)) == -1
        assert lex_compare((3, 3), (3, 2, 1)) == 1
        assert lex_compare((2, 2), (2, 2)) == 0

    def test_prefix(self):
        assert lex_compare((2, 1), (2, 1, 1)) == -1

    def test_total_order(self):
        smalls = list(all_partitions_up_to(6))
        for a, b in itertools.product(smalls, smalls):
            assert lex_compare(a, b) == -lex_compare(b, a)


class TestEnumerate:
    def test_counts(self):
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n, count in enumerate(expected):
            assert len(list(enumerate_partitions(n))) == count

    def test_order_descending_lex(self):
        for n in range(9):
            parts = list(enumerate_partitions(n))
            assert parts == sorted(parts, reverse=True)
            assert len(set(parts)) == len(parts)

    def test_inside(self):
        assert list(enumerate_partitions(3, inside=(6, 4, 4, 1))) == [
            (3,),
            (2, 1),
            (1, 1, 1),
        ]
        assert list(enumerate_partitions(3, inside=(2, 1))) == [(2, 1)]

    def test_empty(self):
        assert list(enumerate_partitions(0)) == [()]
        assert list(enumerate_partitions(-1)) == []

    def test_inside_a_rectangle_bounds_length_and_parts(self):
        # at most 2 parts, each at most 4
        got = list(enumerate_partitions(6, inside=(4, 4)))
        assert got == [(4, 2), (3, 3)]

    def test_inside_is_the_filter_by_containment(self):
        for kappa in all_partitions_up_to(10):
            for n in range(sum(kappa) + 1):
                got = list(enumerate_partitions(n, inside=kappa))
                assert got == [mu for mu in enumerate_partitions(n) if contains(mu, kappa)]

    @pytest.mark.parametrize("inside", [(1, 2), (3, 0, 2), (2.5, 1), "ab"])
    def test_inside_must_be_a_partition(self, inside):
        # (2.5, 1) yielded (2.5, 0.5) for n = 3 and "ab" raised TypeError
        with pytest.raises(DomainError, match="not a partition"):
            list(enumerate_partitions(3, inside=inside))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: list(enumerate_partitions(2.5)),
            lambda: list(enumerate_partitions(6.0)),
            lambda: list(enumerate_partitions("3")),
            lambda: cycle_types("3"),
        ],
        ids=["float-n", "whole-float-n", "str-n", "cycle-types"],
    )
    def test_non_integer_arguments(self, call):
        # 2.5 yielded (2.5,), (1.5, 1.0) and (0.5,) * 5; "3" raised TypeError
        with pytest.raises(DomainError, match="n must be integers"):
            call()

    def test_long_column_once(self):
        # the walk keeps its own stack: 1200 parts, far past the recursion limit
        assert list(enumerate_partitions(1200, inside=(1,) * 1200)) == [(1,) * 1200]


def _check_levels(lam, k, low):
    """shrink(lam, k, low) lists each mu once, and exactly the partitions
    inside lam with j fewer boxes at level j, for j = low..k."""
    levels = shrink(lam, k, low)
    assert len(levels) == k - low + 1
    for j, level in enumerate(levels, low):
        assert len(level) == len(set(level)), (lam, j)
        want = set(enumerate_partitions(sum(lam) - j, inside=lam)) if j <= sum(lam) else set()
        assert set(level) == want, (lam, j)


@st.composite
def _shrink_calls(draw):
    n = draw(st.integers(0, 18))
    lam = draw(st.sampled_from(list(enumerate_partitions(n))))
    k = draw(st.integers(0, n + 1))
    return lam, k, draw(st.integers(0, k))


class TestShrink:
    def test_levels_are_the_contained_partitions(self):
        for lam in all_partitions_up_to(9):
            n = sum(lam)
            levels = shrink(lam, n)
            assert len(levels) == n + 1
            for j, level in enumerate(levels):
                expected = {mu for mu in enumerate_partitions(n - j) if contains(mu, lam)}
                assert set(level) == expected, (lam, j)
                assert len(level) == len(expected), (lam, j)

    def test_only_the_levels_asked_for(self):
        for lam in all_partitions_up_to(8):
            for k in range(sum(lam) + 2):
                for low in range(k + 1):
                    _check_levels(lam, k, low)

    @settings(max_examples=200, deadline=None)
    @given(call=_shrink_calls())
    def test_each_mu_once_random(self, call):
        _check_levels(*call)

    @pytest.mark.parametrize(
        "lam, k, low",
        [((1,) * 1200, 3, 0), ((1,) * 1200, 6, 5), ((1000,) + (1,) * 999, 5, 4), ((1000,) + (1,) * 999, 3, 0)],
    )
    def test_deep_shapes_each_mu_once(self, lam, k, low):
        _check_levels(lam, k, low)

    def test_deep_shapes(self):
        # the walk jumps over rows that cannot change, however many there are
        column = (1,) * 1200
        assert shrink(column, 3)[3] == [(1,) * 1197]
        assert shrink(column, 3, 3) == [[(1,) * 1197]]
        levels = shrink((5, 4) + column, 2)
        assert set(levels[1]) == {(4, 4) + column, (5, 3) + column, (5, 4) + (1,) * 1199}
        assert len(levels[1]) == 3
        assert len(levels[2]) == len(set(levels[2])) == 5


class TestConstructionAndText:
    def test_partition_normalizes(self):
        assert partition([3, 2, 0, 0]) == (3, 2)
        with pytest.raises(ValueError):
            partition([1, 2])

    def test_part_accessor(self):
        assert part((5, 3), 1) == 5
        assert part((5, 3), 3) == 0

    def test_parse_plain(self):
        assert parse_partition("6,4,4,1") == (6, 4, 4, 1)
        assert parse_partition("") == ()

    def test_parse_exponents(self):
        assert parse_partition("3^2,1") == (3, 3, 1)
        assert parse_partition("2^3") == (2, 2, 2)

    def test_parse_rejects_garbage(self):
        for bad in ("1,3", "x", "3,,1", "2^-1"):
            with pytest.raises(PartitionParseError):
                parse_partition(bad)

    def test_parse_bounds_the_number_of_parts(self):
        from schurkron.partitions import MAX_PARTS

        assert len(parse_partition(f"2^{MAX_PARTS - 1},1")) == MAX_PARTS
        for bad in (f"1^{MAX_PARTS + 1}", f"2^{MAX_PARTS},1", "3^99999999999", "0^99999999999"):
            with pytest.raises(PartitionParseError):
                parse_partition(bad)

    def test_format_round_trip(self):
        for lam in all_partitions_up_to(8):
            assert parse_partition(format_partition(lam)) == lam

    def test_skew_shape_validates(self):
        shape = skew_shape((4, 2), (1,))
        assert shape.size == 5
        with pytest.raises(DomainError):
            skew_shape((2, 2), (3,))
