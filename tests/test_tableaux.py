import itertools
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schurkron import (
    DomainError,
    SkewShape,
    Tableau,
    conjugate,
    contains,
    count_ssyt_alpha_lattice,
    enumerate_partitions,
    is_alpha_lattice,
    is_ssyt,
    lr_coefficient,
    part,
    reverse_reading_word,
    skew_shape,
    tableau_type,
)
from schurkron.tableaux import _cells, _count_fillings, _expand_fillings, _key_cells, _row_key

FIG1 = Tableau(
    skew_shape((9, 5, 2, 1, 1), (3, 1)),
    ((2, 2, 5, 7, 8, 9), (4, 5, 7, 9), (2, 8), (8,), (9,)),
)


def brute_force_table(shape, alphas):
    """Independent oracle: fill the skew cells with values 1..#cells+2, row
    by row, each row weakly increasing and each value strictly above the one
    over it, and count the fillings by (type, alpha, kron) for every alpha
    whose shifted lattice condition the reverse reading word meets; kron=False
    counts every such filling, kron=True only Kronecker tableaux.  Each
    condition is checked from its definition.  An alpha-lattice word with
    l(alpha) <= 2 uses no value above #cells+2, so every type is covered."""
    outer, inner = shape
    rows = []
    for r, end in enumerate(outer):
        start = inner[r] if r < len(inner) else 0
        rows.append([(r, c) for c in range(start, end)])
    top = sum(map(len, rows)) + 2
    grid = {}

    def ssyt(r):
        if r == len(rows):
            yield
            return
        for vals in itertools.combinations_with_replacement(range(1, top + 1), len(rows[r])):
            if all(grid.get((r - 1, c), 0) < v for (_, c), v in zip(rows[r], vals)):
                grid.update(zip(rows[r], vals))
                yield from ssyt(r + 1)

    def lattice(counts, a):
        # counts[i] and a[i] belong to the value i + 1
        return all(counts[i] + a[i] >= counts[i + 1] + a[i + 1] for i in range(top))

    table = Counter()
    for _ in ssyt(0):
        tally = [0] * (top + 1)
        for v in grid.values():
            tally[v - 1] += 1
        type_counts = tuple(tally[: max(grid.values(), default=0)])
        word = [grid[cell] for row in rows for cell in reversed(row)]
        for alpha in alphas:
            a = list(alpha) + [0] * (top + 1 - len(alpha))
            # the whole word is the prefix that most often fails: test it first
            if not lattice(tally, a):
                continue
            prefix = [0] * (top + 1)
            for v in word:
                prefix[v - 1] += 1
                if not lattice(prefix, a):
                    break
            else:
                table[(type_counts, alpha, False)] += 1
                a1, a2 = a[0], a[1]
                if (
                    a1 == a2
                    or grid.get((1, a1 - 1)) == 1
                    or sum(1 for (r, _), v in grid.items() if r == 0 and v == 2) == a1 - a2
                ):
                    table[(type_counts, alpha, True)] += 1
    return table


def _plus(counts, alpha):
    width = max(len(counts), len(alpha))
    return tuple(
        (counts[i] if i < len(counts) else 0) + (alpha[i] if i < len(alpha) else 0)
        for i in range(width)
    )


class TestReadingWord:
    def test_displayed_tableau(self):
        assert is_ssyt(FIG1)
        assert reverse_reading_word(FIG1) == (
            9, 8, 7, 5, 2, 2, 9, 7, 5, 4, 8, 2, 8, 9,
        )
        assert tableau_type(FIG1) == (0, 3, 0, 1, 2, 0, 2, 3, 3)

    @pytest.mark.parametrize("row", [(0, 1), (-1, 2), (1.0, 2), ("1", 2)])
    def test_type_needs_positive_integer_entries(self, row):
        # an entry of 0 or less raised IndexError
        with pytest.raises(DomainError, match="letters must be positive integers"):
            tableau_type(Tableau(skew_shape((2,), ()), (row,)))

    def test_single_row(self):
        t = Tableau(skew_shape((3,), ()), ((1, 1, 2),))
        assert reverse_reading_word(t) == (2, 1, 1)

    def test_empty(self):
        t = Tableau(skew_shape((), ()), ())
        assert reverse_reading_word(t) == ()

    def test_is_ssyt_rejects_bad_fillings(self):
        bad_row = Tableau(skew_shape((2,), ()), ((2, 1),))
        assert not is_ssyt(bad_row)
        bad_col = Tableau(skew_shape((1, 1), ()), ((1,), (1,)))
        assert not is_ssyt(bad_col)
        for row in ((0, 1), (-1, 2)):
            assert not is_ssyt(Tableau(skew_shape((2,), ()), (row,)))
        # rows that do not fit the shape: one missing, one too long
        assert not is_ssyt(Tableau(skew_shape((2, 1), ()), ((1, 1),)))
        assert not is_ssyt(Tableau(skew_shape((2, 1), ()), ((1, 1, 1), (2,))))

    @pytest.mark.parametrize("entry", [1.5, 1.0, "a", None])
    def test_is_ssyt_needs_integer_entries(self, entry):
        # 1.5 was accepted; "a" and None raised TypeError
        with pytest.raises(DomainError, match="entries must be integers"):
            is_ssyt(Tableau(skew_shape((2,), ()), ((entry, 2),)))


class TestAlphaLattice:
    def test_shifted_examples(self):
        assert is_alpha_lattice((2, 2, 1), (2,))
        assert not is_alpha_lattice((2, 2, 2), (2,))
        assert is_alpha_lattice((1, 1, 2, 1, 2, 3), ())

    @pytest.mark.parametrize("word", [(1, -1), (1, 0), (0,), (1, 1.0), (1, "2")])
    def test_letters_must_be_positive_integers(self, word):
        # (1, -1) was accepted, -1 indexing the profile from its end
        with pytest.raises(DomainError, match="letters must be positive integers"):
            is_alpha_lattice(word, ())

    def test_matches_plain_lattice_definition(self):
        # classic definition: every prefix has at least as many i's as (i+1)'s
        def plain(word):
            seen = Counter()
            for v in word:
                seen[v] += 1
                if any(seen[i + 1] > seen[i] for i in range(1, max(seen) + 1)):
                    return False
            return True

        for length in range(9):
            for word in itertools.product((1, 2, 3), repeat=length):
                assert is_alpha_lattice(word, ()) == plain(word), word


class TestCountSsyt:
    def test_lr_tableaux_example(self):
        shape = skew_shape((5, 4, 3), (2, 1))
        assert count_ssyt_alpha_lattice(shape, (4, 3, 2), ()) == 2
        assert count_ssyt_alpha_lattice(shape, (4, 3, 2, 0, 0), ()) == 2

    def test_superstandard_unique(self):
        for lam in enumerate_partitions(6):
            assert count_ssyt_alpha_lattice(skew_shape(lam, ()), lam, ()) == 1

    def test_wrong_type_size_is_a_domain_error(self):
        # raised a bare ValueError; DomainError subclasses it
        with pytest.raises(DomainError, match="type weighs 1, shape has 2 cells"):
            count_ssyt_alpha_lattice(skew_shape((2,), ()), (1,), ())

    def test_shifted_count_against_brute_force(self):
        shape = skew_shape((4, 3), (2, 1))
        got = count_ssyt_alpha_lattice(shape, (2, 1, 1), (2, 1))
        assert got == brute_force_table(shape, [(2, 1)])[((2, 1, 1), (2, 1), False)]
        assert got >= 2

    def test_brute_force_equivalence_small_shapes(self):
        box = (4, 4, 4, 4)
        shapes = [
            (outer, inner)
            for size in range(1, 7)
            for outer_size in range(size, size + 5)
            for outer in enumerate_partitions(outer_size, inside=box)
            for inner in enumerate_partitions(outer_size - size, inside=outer)
        ]
        alphas = [(), (1,), (2, 1)]
        checked = merged = 0
        for outer, inner in shapes[::3]:  # thin the grid, keep it varied
            size = sum(outer) - sum(inner)
            shape = SkewShape(outer, inner)
            table = brute_force_table(shape, alphas)
            merged += _merges(outer, inner)
            for alpha in alphas:
                for type_counts in enumerate_partitions(size):
                    assert count_ssyt_alpha_lattice(
                        shape, type_counts, alpha
                    ) == table[(type_counts, alpha, False)]
                    checked += 1
                # every bucket of the walk, which merges equal fill states
                for kron in (False, True):
                    want = {
                        _plus(t, alpha): c
                        for (t, a, k), c in table.items()
                        if a == alpha and k == kron
                    }
                    assert _expand_fillings(outer, inner, alpha, kron) == want, (
                        outer, inner, alpha, kron,
                    )
        assert checked > 600
        assert merged > 50


class TestLrCoefficient:
    def test_worked_example(self):
        assert lr_coefficient((5, 4, 3), (4, 3, 2), (2, 1)) == 2
        assert lr_coefficient((5, 4, 3), (2, 1), (4, 3, 2)) == 2

    def test_pieri_cases(self):
        assert lr_coefficient((7,), (4,), (3,)) == 1
        assert lr_coefficient((2, 1), (1,), (1, 1)) == 1

    def test_size_and_containment_guards(self):
        assert lr_coefficient((3, 1), (2,), (1,)) == 0
        assert lr_coefficient((2, 2), (3,), (1,)) == 0

    def test_walk_of_5000_cells(self):
        # one filling of 5000 cells: the walk keeps no frame per cell
        assert lr_coefficient((6000,), (1000,), (5000,)) == 1

    def test_walks_the_smaller_skew_shape(self, fill_walks):
        # lam/nu has one cell, where lam/mu would have 1999999999
        assert lr_coefficient((2000000000,), (1,), (1999999999,)) == 1
        assert [len(cells) for cells, _, _ in fill_walks] == [1]
        assert lr_coefficient((2000000000, 1), (1, 1), (1999999999,)) == 1

    def test_is_the_walk_of_lam_over_mu(self):
        # the walk of lam/mu of type nu, the route before the smaller shape
        for n in range(0, 11):
            for lam in enumerate_partitions(n):
                for msize in range(n + 1):
                    for mu in enumerate_partitions(msize, inside=lam):
                        for nu in enumerate_partitions(n - msize):
                            want = _count_fillings(lam, mu, nu, (), False)
                            assert lr_coefficient(lam, mu, nu) == want, (lam, mu, nu)

    def test_symmetry_and_conjugation(self):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                for msize in range(n + 1):
                    for mu in enumerate_partitions(msize, inside=lam):
                        for nu in enumerate_partitions(n - msize):
                            c = lr_coefficient(lam, mu, nu)
                            assert c == lr_coefficient(lam, nu, mu)
                            assert c == lr_coefficient(
                                conjugate(lam), conjugate(mu), conjugate(nu)
                            )


def _skew_rows(outer, inner):
    rows = [end - (inner[r] if r < len(inner) else 0) for r, end in enumerate(outer)]
    return [width for width in rows if width]


def _merges(outer, inner, alpha=(), kron=False):
    """The number of points where the walk of outer/inner merges equal fill
    states.  Read from the bottom up, each merge point starts a layer of
    whole skew rows holding at least 3 cells, with a cell left above it.
    When the Kronecker check runs (kron and alpha_1 > alpha_2), no merge
    point lies above row 3, where the check is made."""
    rows = [(r, end - part(inner, r + 1)) for r, end in enumerate(outer)]
    rows = [(r, width) for r, width in rows if width]
    top = 2 if kron and part(alpha, 1) != part(alpha, 2) else 0
    merges = cells = 0
    while rows:
        r, width = rows.pop()
        cells += width
        if cells >= 3 and rows and r >= top:
            merges += 1
            cells = 0
    return merges


def _assert_expand_matches_count(lam, alpha, kron):
    got = _expand_fillings(lam, alpha, alpha, kron)
    nus = [nu for nu in enumerate_partitions(sum(lam)) if contains(alpha, nu)]
    assert set(got) <= set(nus)
    for nu in nus:
        assert got.get(nu, 0) == _count_fillings(lam, alpha, nu, alpha, kron), (
            lam, alpha, kron, nu,
        )


def _assert_merge_exact(lam, alpha, kron):
    """The merged walk of lam/alpha against the same walk capped above every
    count: a capped walk merges no states, so it reaches every tableau one by
    one, with weight 1."""
    merged = _expand_fillings(lam, alpha, alpha, kron)
    cap = max(merged.values(), default=0) + 1
    assert _expand_fillings(lam, alpha, alpha, kron, cap=cap) == merged, (lam, alpha, kron)


class TestMerge:
    """The merge against no merge.  The tests of the walk against count mode
    run the same merge on both sides, so a state weighted wrongly at a later
    merge point would pass them."""

    def test_merged_walk_is_the_unmerged_walk_small_shapes(self):
        cases = layered = 0
        for n in range(13):
            for lam in enumerate_partitions(n):
                for p in range(5):
                    for alpha in enumerate_partitions(p, inside=lam):
                        for kron in (False, True):
                            _assert_merge_exact(lam, alpha, kron)
                            cases += 1
                            layered += _merges(lam, alpha, alpha, kron) >= 2
        assert cases == 5428
        # a path's weight is carried from one merge point to the next
        assert layered > 1000

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_merged_walk_is_the_unmerged_walk_random(self, data):
        # 4 to 7 rows and at most 24 cells, drawn from the bottom row up
        rows = data.draw(st.integers(4, 7))
        left, parts = 24, []
        for r in range(rows):
            low = parts[-1] if parts else 1
            parts.append(data.draw(st.integers(low, left // (rows - r))))
            left -= parts[-1]
        lam = tuple(reversed(parts))
        alpha = data.draw(st.sampled_from(
            [a for p in range(5) for a in enumerate_partitions(p, inside=lam)]
        ))
        kron = data.draw(st.booleans())
        assume(_merges(lam, alpha, alpha, kron))
        _assert_merge_exact(lam, alpha, kron)


class TestExpandFillings:
    """The unlimited walk against the type-limited one.  Both are the same
    engine with the same merge, so these tests check the type limit and the
    bucketing, not the merge; TestMerge, the brute-force table in
    TestCountSsyt and the character oracle are the independent references
    for that."""

    def test_matches_count_mode_small_shapes(self):
        merged = 0
        for n in range(13):
            for lam in enumerate_partitions(n):
                for p in range(5):
                    for alpha in enumerate_partitions(p, inside=lam):
                        merged += _merges(lam, alpha)
                        for kron in (False, True):
                            _assert_expand_matches_count(lam, alpha, kron)
        assert merged > 250

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_count_mode_random_long_last_row(self, data):
        # at least three rows so that several paths can share a fill state
        parts = [data.draw(st.integers(3, 6))]
        for _ in range(data.draw(st.integers(2, 4))):
            parts.append(parts[-1] + data.draw(st.integers(0, 3)))
        lam = tuple(reversed(parts))
        assume(sum(lam) <= 20)
        alphas = list(enumerate_partitions(data.draw(st.integers(0, 4)), inside=lam))
        assume(alphas)
        alpha = data.draw(st.sampled_from(alphas))
        assume(_merges(lam, alpha))
        _assert_expand_matches_count(lam, alpha, data.draw(st.booleans()))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_count_mode_random_short_bottom_rows(self, data):
        # a last row of 1 or 2 cells, so the merged tail spans several rows
        parts = [data.draw(st.integers(1, 2))]
        for _ in range(data.draw(st.integers(3, 6))):
            parts.append(parts[-1] + data.draw(st.integers(0, 2)))
        lam = tuple(reversed(parts))
        assume(sum(lam) <= 20)
        alphas = list(enumerate_partitions(data.draw(st.integers(0, 4)), inside=lam))
        assume(alphas)
        alpha = data.draw(st.sampled_from(alphas))
        assume(_merges(lam, alpha) and _skew_rows(lam, alpha)[-1] < 3)
        _assert_expand_matches_count(lam, alpha, data.draw(st.booleans()))


def _cells_cell_by_cell(outer, inner):
    """Independent reference for ``_cells``: the list built cell by cell
    from row and column numbers, cell (r, c) of row r's cells, columns
    end-1 down to start, at index base + end - 1 - c."""
    cells = []
    above_start = above_end = above_base = 0
    for r, end in enumerate(outer):
        start = inner[r] if r < len(inner) else 0
        base = len(cells)
        for c in range(end - 1, start - 1, -1):
            above = above_base + above_end - 1 - c if r and c >= above_start else -1
            cells.append((above, len(cells) - 1 if c < end - 1 else -1))
        above_start, above_end, above_base = start, end, base
    return tuple(cells)


def _key_of_cells(cells):
    """The row key read back from a cell list: a cell with no right
    neighbour starts a row, the row's first cells with a cell above count
    its overlap, and the first of them gives the overhang."""
    key, above_base = [], 0
    starts = [k for k, (_, right) in enumerate(cells) if right < 0] + [len(cells)]
    for base, end in zip(starts, starts[1:]):
        aboves = [above for above, _ in cells[base:end]]
        overlap = sum(above >= 0 for above in aboves)
        assert all(above >= 0 for above in aboves[:overlap])
        row = (end - base, overlap, aboves[0] - above_base) if overlap else (end - base,)
        key.append(row)
        above_base = base
    return tuple(key)


@st.composite
def _deep_shapes(draw):
    """(outer, inner) with 2 or 3 rows and hundreds to thousands of cells;
    inner may leave rows empty or cover whole columns."""
    rows = draw(st.integers(2, 3))
    outer = sorted(draw(st.lists(st.integers(100, 1500), min_size=rows, max_size=rows)), reverse=True)
    inner = sorted(draw(st.lists(st.integers(0, 1500), min_size=rows, max_size=rows)), reverse=True)
    inner = [min(i, o) for i, o in zip(inner, outer)]
    return tuple(outer), tuple(inner)


class TestCells:
    """``_cells`` is the one description of a shape the walk reads, built
    from its row key: equal lists must give equal walks, and empty rows and
    columns add no cells."""

    def test_equal_lists_walk_alike_on_every_small_pair(self):
        walks, keys, pairs = {}, {}, 0
        for n in range(13):
            for lam in enumerate_partitions(n):
                for k in range(n + 1):
                    for mu in enumerate_partitions(k, inside=lam):
                        cells = _cells(lam, mu)
                        assert len(cells) == n - k, (lam, mu)
                        assert cells == _cells_cell_by_cell(lam, mu), (lam, mu)
                        # the row key names one list, and the list one key
                        key = _row_key(lam, mu)
                        assert keys.setdefault(key, cells) == cells, (lam, mu)
                        assert _key_of_cells(cells) == key, (lam, mu)
                        # an empty column on the left adds nothing
                        wider = [x + 1 for x in lam]
                        shifted = [part(mu, r) + 1 for r in range(1, len(lam) + 1)]
                        assert _cells(wider, shifted) == cells, (lam, mu)
                        walk = _expand_fillings(lam, mu, (), False)
                        assert walks.setdefault(cells, walk) == walk, (lam, mu)
                        pairs += 1
        assert pairs == 8855
        # one list per skew shape without its empty rows and columns
        assert len(walks) == len(keys) == 1526

    def test_named_cases(self):
        # no cells left
        assert _cells((3, 2), (3, 2)) == ()
        # an empty middle row: (4, 2, 2)/(2, 2, 1) walks as (3, 1)/(1,)
        assert _cells((4, 2, 2), (2, 2, 1)) == _cells((3, 1), (1,))
        # a gap between columns: column 2 of (5, 2)/(3,) is empty
        assert _cells((5, 2), (3,)) == _cells((4, 2), (2,))
        # empty columns on the left: the inner shape ends in zeros
        assert _cells((3, 2, 2), (1, 1, 1)) == _cells((2, 1, 1), ())
        assert _cells((3, 1), (1, 0)) == _cells((3, 1), (1,))
        # no empty row or column: (above, right) per cell, rows read right
        # to left, top row first
        assert _cells((4, 3, 1), (2, 1)) == ((-1, -1), (-1, 0), (1, -1), (-1, 2), (-1, -1))
        # cells in different columns are not the same shape
        assert _cells((2, 1), ()) != _cells((3, 1), (1,))


class TestRowKey:
    """``_row_key`` is what ``kronecker._lr_walk`` is keyed by: it must name
    exactly one cell list, and ``_key_cells`` must build that list."""

    def test_named_keys_and_lists(self):
        # (length,) for a row with nothing above, (length, overlap, overhang)
        # for one with cells under the row above
        assert _row_key((4, 3, 1), (2, 1)) == ((2,), (2, 1, 1), (1,))
        assert _key_cells(((2,), (2, 1, 1), (1,))) == (
            (-1, -1), (-1, 0), (1, -1), (-1, 2), (-1, -1)
        )
        assert _row_key((3, 2), (3, 2)) == ()
        assert _key_cells(()) == ()
        assert _row_key((2, 2), ()) == ((2,), (2, 2, 0))
        assert _key_cells(((2,), (2, 2, 0))) == ((-1, -1), (-1, 0), (0, -1), (1, 2))
        assert _row_key((5, 2), (3,)) == ((2,), (2,))
        assert _key_cells(((2,), (2,))) == ((-1, -1), (-1, 0), (-1, -1), (-1, 2))

    def test_named_equalities_hold_through_the_key(self):
        # trailing zeros of the inner shape add nothing
        assert _row_key((3, 1), (1, 0)) == _row_key((3, 1), (1,))
        # an empty middle row: (4, 2, 2)/(2, 2, 1) is (3, 1)/(1,), and the
        # row below the empty one has no cell above it
        assert _row_key((4, 2, 2), (2, 2, 1)) == _row_key((3, 1), (1,)) == ((2,), (1,))
        # an empty column inside, and empty columns on the left
        assert _row_key((5, 2), (3,)) == _row_key((4, 2), (2,))
        assert _row_key((3, 2, 2), (1, 1, 1)) == _row_key((2, 1, 1), ())
        # the same row lengths in different columns are not the same shape
        assert _row_key((2, 1), ()) != _row_key((3, 1), (1,))

    @settings(max_examples=60, deadline=None)
    @given(shape=_deep_shapes(), shift=st.integers(0, 50))
    def test_deep_shapes_key_their_lists_one_to_one(self, shape, shift):
        outer, inner = shape
        key, cells = _row_key(outer, inner), _cells_cell_by_cell(outer, inner)
        assert len(cells) == sum(outer) - sum(inner)
        # the key builds the list, and the list gives the key back
        assert _key_cells(key) == cells
        assert _key_of_cells(cells) == key
        # empty columns on the left change neither
        wider = tuple(x + shift for x in outer), tuple(x + shift for x in inner)
        assert _row_key(*wider) == key
        assert _cells_cell_by_cell(*wider) == cells
