import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schurkron import (
    DomainError,
    KronResult,
    METHOD_CONJUGATE,
    METHOD_ORACLE,
    METHOD_ROWS,
    SkewShape,
    Tableau,
    conjugate,
    contains,
    count_ssyt_alpha_lattice,
    descent_count,
    dimension,
    enumerate_partitions,
    hook_coeff,
    intersect,
    is_multiplicity_free,
    is_ssyt,
    is_alpha_lattice,
    join,
    kron_coeff,
    kron_expand_tworow,
    kron_upper_bound,
    kronecker_tableau_count,
    lr_coefficient,
    min_lex_term,
    mn_character,
    nu_double_pair_coeff,
    oracle_character_coeff,
    oracle_character_kron,
    oracle_tworow_signed_coeff,
    oracle_tworow_signed_sum,
    p1_expand,
    part,
    positivity_diff,
    reverse_lex_filling,
    reverse_reading_word,
    skew_expand,
    skew_shape,
    skew_times_alpha,
    tableau_type,
    tworow_target_coeff,
)
from schurkron import InvariantError, clear_caches, kronecker, oracle, tableaux
from schurkron.formulas import _direct_mfree
from schurkron.kronecker import _alpha_bound, _route, _rule_coeff, _tableau_sum, two_row
from schurkron.partitions import add_box, remove_box
from schurkron.tableaux import (
    CapReached,
    _count_fillings,
    _expand_fillings,
    _fill_alphas,
    _joins,
)


class TestKroneckerTableauCount:
    def test_shape_43_examples(self):
        assert kronecker_tableau_count((4, 3), (2, 1), (4, 2, 1)) == 2
        assert kronecker_tableau_count((4, 3), (2, 1), (3, 2, 2)) == 2
        assert kronecker_tableau_count((4, 3), (3,), (4, 2, 1)) == 0

    def test_rectangle_condition_one(self):
        assert kronecker_tableau_count((3, 3), (1, 1), (3, 3)) == 1

    def test_guards_return_zero(self):
        assert kronecker_tableau_count((3, 3), (2, 2), (6,)) == 0  # alpha not in nu
        assert kronecker_tableau_count((2, 1), (2, 2), (2, 2)) == 0  # not in lam
        assert kronecker_tableau_count((3, 1), (1,), (3, 2)) == 0  # size mismatch

    def test_worked_example_total(self):
        lam, nu = (6, 4, 4, 1), (5, 4, 3, 3)
        total = sum(
            kronecker_tableau_count(lam, alpha, nu)
            for alpha in enumerate_partitions(3, inside=intersect(lam, nu))
        )
        assert total == 4

    def test_condition_two_note_equivalence(self):
        # counting alpha_1 - alpha_2 ones in row 2 is the same as requiring a
        # 1 in box (2, alpha_1); check on every filling of small shapes
        for lam in enumerate_partitions(6):
            for asize in range(1, 5):
                for alpha in enumerate_partitions(asize, inside=lam):
                    a1, a2 = part(alpha, 1), part(alpha, 2)
                    if a1 == a2:
                        continue
                    for tab in _fillings(lam, alpha):
                        row2 = tab.rows[1] if len(tab.rows) > 1 else ()
                        count_based = sum(1 for v in row2 if v == 1) == a1 - a2
                        start = part(alpha, 2)
                        offset = a1 - 1 - start
                        cell_based = 0 <= offset < len(row2) and row2[offset] == 1
                        assert count_based == cell_based, (lam, alpha, tab)


def _fillings(lam, alpha):
    """All alpha-lattice SSYT of shape lam/alpha, rebuilt as Tableau values."""
    import itertools

    shape = skew_shape(lam, alpha)
    cells = []
    for r, end in enumerate(lam):
        start = alpha[r] if r < len(alpha) else 0
        cells.extend((r, c) for c in range(start, end))
    size = len(cells)
    if size == 0:
        yield Tableau(shape, tuple(() for _ in lam))
        return
    for values in itertools.product(range(1, size + len(alpha) + 1), repeat=size):
        grid = dict(zip(cells, values))
        rows = []
        for r, end in enumerate(lam):
            start = alpha[r] if r < len(alpha) else 0
            rows.append(tuple(grid[(r, c)] for c in range(start, end)))
        tab = Tableau(shape, tuple(rows))
        if is_ssyt(tab) and is_alpha_lattice(reverse_reading_word(tab), alpha):
            yield tab


class TestKronExpand:
    def test_worked_example(self):
        expansion, method = kron_expand_tworow(15, 3, (6, 4, 4, 1))
        assert method == METHOD_ROWS
        assert expansion[(5, 4, 3, 3)] == 4

    def test_p_zero_identity(self):
        expansion, method = kron_expand_tworow(6, 0, (3, 2, 1))
        assert expansion.as_dict() == {(3, 2, 1): 1}
        assert method == METHOD_ROWS

    def test_oracle_fallback_route(self):
        expansion, method = kron_expand_tworow(7, 3, (4, 3))
        assert method == METHOD_ORACLE
        assert expansion[(4, 2, 1)] == 1
        assert expansion[(3, 2, 2)] == 1

    def test_conjugate_route(self):
        expansion, method = kron_expand_tworow(7, 3, (2, 2, 1, 1, 1))
        assert method == METHOD_CONJUGATE
        flipped, _ = kron_expand_tworow(7, 3, (5, 2))
        assert expansion.as_dict() == {
            conjugate(nu): c for nu, c in flipped.as_dict().items()
        }

    def test_validates_inputs(self):
        with pytest.raises(DomainError):
            kron_expand_tworow(6, 2, (3, 2))
        with pytest.raises(DomainError):
            kron_expand_tworow(4, 3, (2, 2))

    def test_matches_signed_oracle_small(self):
        for n in range(0, 9):
            for p in range(0, min(3, n // 2) + 1):
                for lam in enumerate_partitions(n):
                    got = kron_expand_tworow(n, p, lam).expansion
                    assert got == oracle_tworow_signed_sum(n, p, lam), (n, p, lam)

    def test_signed_sum_past_the_depth_limit_matches_the_rule(self, monkeypatch):
        # with RULE_MAX_CELLS at 0 every route takes the signed sum
        rule = {
            (n, p, lam): kron_expand_tworow(n, p, lam)
            for n in range(1, 13)
            for p in range(0, n // 2 + 1)
            for lam in enumerate_partitions(n)
        }
        monkeypatch.setattr(kronecker, "RULE_MAX_CELLS", 0)
        for (n, p, lam), want in rule.items():
            assert kron_expand_tworow(n, p, lam) == want, (n, p, lam)
        assert len(rule) == 1538

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_signed_sum_past_the_depth_limit_matches_the_rule_random(self, data):
        # the grid above, for 13 <= n <= 20 on the rule's two routes
        n = data.draw(st.integers(13, 20))
        p = data.draw(st.integers(0, n // 2))
        shapes = [lam for lam in enumerate_partitions(n) if _route(p, lam)[0] != METHOD_ORACLE]
        lam = data.draw(st.sampled_from(shapes))
        want = kron_expand_tworow(n, p, lam)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kronecker, "RULE_MAX_CELLS", 0)
            assert kron_expand_tworow(n, p, lam) == want

    @pytest.mark.parametrize(
        "n, p, lam, method, terms",
        [
            (1000, 2, (500, 500), METHOD_ROWS, 6),
            (1000, 4, (996, 4), METHOD_ROWS, 35),
            (1200, 2, (1,) * 1200, METHOD_CONJUGATE, 1),
            (3000, 6, (1000, 1000, 1000), METHOD_ROWS, 152),
        ],
    )
    def test_deep_expansions(self, n, p, lam, method, terms):
        # the rule would walk n - p cells, far past the recursion limit
        result = kron_expand_tworow(n, p, lam)
        assert result.method == method
        assert len(result.expansion.as_dict()) == terms
        total = sum(c * dimension(nu) for nu, c in result.expansion.items_desc())
        assert total == dimension((n - p, p)) * dimension(lam)

    def test_ladder_rung_n36(self):
        # each Kronecker walk of lam/alpha merges fill states at 2 to 4 row starts
        lam = (12, 9, 7, 5, 3)
        result = kron_expand_tworow(36, 6, lam)
        assert result.method == METHOD_ROWS
        terms = result.expansion.as_dict()
        assert len(terms) == 3273
        assert sum(terms.values()) == 565570
        total = sum(c * dimension(nu) for nu, c in terms.items())
        assert total == dimension((30, 6)) * dimension(lam)

    def test_ladder_rung_n40(self):
        # the heaviest rung of the expansion ladder: 13 alphas, 11 of which
        # join the walk below their rows, at 3 cuts
        lam = (13, 10, 8, 6, 3)
        result = kron_expand_tworow(40, 7, lam)
        assert result.method == METHOD_ROWS
        terms = result.expansion.as_dict()
        assert len(terms) == 5920
        assert sum(terms.values()) == 2613506
        total = sum(c * dimension(nu) for nu, c in terms.items())
        assert total == dimension((33, 7)) * dimension(lam)
        alone, joins = _joins(lam, list(enumerate_partitions(7, inside=lam)))
        assert (len(alone), sorted(map(len, joins.values()))) == (2, [3, 4, 4])

    def test_deep_tall_expansion_is_the_wide_one_conjugated(self):
        # the signed sum walks (700, 700) for the 700-row lam too
        tall = kron_expand_tworow(1400, 20, (2,) * 700)
        wide = kron_expand_tworow(1400, 20, (700, 700))
        assert tall.method == METHOD_CONJUGATE
        assert tall.expansion.as_dict() == {
            conjugate(nu): c for nu, c in wide.expansion.items_desc()
        }


def _per_alpha(work, p):
    """The rule's buckets on work, walked alpha by alpha: no state is merged
    across alpha."""
    buckets = {}
    for alpha in enumerate_partitions(p, inside=work):
        _expand_fillings(work, alpha, alpha, kron=True, out=buckets)
    return buckets


def _capped(walk):
    """(the nu at which walk(buckets) raised CapReached, or None, and the
    buckets as it left them)."""
    buckets = {}
    try:
        walk(buckets)
    except CapReached as hit:
        return hit.nu, buckets
    return None, buckets


def _merges_across_alpha(work, p):
    return bool(_joins(work, list(enumerate_partitions(p, inside=work)))[1])


def _assert_expansion_is_the_per_alpha_sum(n, p, lam):
    method, work = _route(p, lam)
    want = _per_alpha(work, p)
    if method == METHOD_CONJUGATE:
        want = {conjugate(nu): c for nu, c in want.items()}
    got = kron_expand_tworow(n, p, lam)
    assert got.method == method
    assert got.expansion.as_dict() == want, (n, p, lam)


class TestMergeAcrossAlpha:
    """A full expansion by the rule merges fill states across alpha below
    the rows of alpha (``tableaux._fill_alphas``); ``_expand_fillings``
    walks each alpha alone and is the reference.  Both merge within each
    walk alike, which TestMerge in test_tableaux checks against no merge."""

    def test_expansion_is_the_per_alpha_sum_small(self):
        cases, merged = {METHOD_ROWS: 0, METHOD_CONJUGATE: 0}, 0
        for n in range(13):
            for lam in enumerate_partitions(n):
                for p in range(n // 2 + 1):
                    method, work = _route(p, lam)
                    if method != METHOD_ORACLE:
                        _assert_expansion_is_the_per_alpha_sum(n, p, lam)
                        cases[method] += 1
                        merged += _merges_across_alpha(work, p)
        assert cases == {METHOD_ROWS: 939, METHOD_CONJUGATE: 192}
        assert merged == 1

    def test_merged_walk_is_the_per_alpha_sum_on_every_small_shape(self):
        # the engine on any shape, off the rule's routes too
        merged = 0
        for n in range(13):
            for lam in enumerate_partitions(n):
                for p in range(7):
                    alphas = list(enumerate_partitions(p, inside=lam))
                    assert _fill_alphas(lam, alphas, {}) == _per_alpha(lam, p), (lam, p)
                    merged += _merges_across_alpha(lam, p)
        assert merged == 42

    def test_joining_keys_read_the_whole_row_below(self, monkeypatch):
        # at a join, every key of the live dict reads the row above over all
        # outer[row] columns of the row below, as the walk of outer/() reads
        # it: alpha = (2, 2) joins at row 2 (from 0), whose one column lies
        # under alpha_2 = 2, so its keys get min(2, 1) = 1 zero, not 2
        lam, p = (3, 2, 1, 1, 1, 1, 1, 1), 4
        fill, widths = tableaux._fill, {}

        def logged_fill(cells, alpha, *args, start=None, **kwargs):
            if start is not None:
                widths[start[0]] = {len(above) for above, _ in start[1]}
            return fill(cells, alpha, *args, start=start, **kwargs)

        monkeypatch.setattr(tableaux, "_fill", logged_fill)
        alphas = list(enumerate_partitions(p, inside=lam))
        assert _joins(lam, alphas)[1] == {2: [(3, 1), (2, 2)], 5: [(2, 1, 1), (1, 1, 1, 1)]}
        assert _fill_alphas(lam, alphas, {}) == _per_alpha(lam, p)
        # joins at cells 5 and 8 (rows 2 and 5), each key one column wide
        assert widths == {5: {1}, 8: {1}}

    @pytest.mark.parametrize("cap, stops", [(2, 1180), (3, 892)])
    def test_capped_walk_is_the_per_alpha_loop_on_every_small_shape(self, cap, stops):
        # with a cap no alpha joins: the walk stops at the same nu as the
        # per-alpha loop, with the same buckets so far, or neither stops
        def per_alpha(buckets):
            for alpha in alphas:
                _expand_fillings(lam, alpha, alpha, kron=True, out=buckets, cap=cap)

        hits = 0
        for n in range(13):
            for lam in enumerate_partitions(n):
                for p in range(7):
                    alphas = list(enumerate_partitions(p, inside=lam))
                    got = _capped(lambda buckets: _fill_alphas(lam, alphas, buckets, cap))
                    assert got == _capped(per_alpha), (lam, p, cap)
                    hits += got[0] is not None
        assert hits == stops

    def test_lone_and_capped_alphas_walk_through_expand_fillings(self, monkeypatch):
        # the alpha-loop's one entry for an alpha that walks alone: capped,
        # the walk stops in the first alpha's call; uncapped on three rows,
        # no alpha joins and each one gets a call of its own
        expand, calls = tableaux._expand_fillings, []

        def logged(outer, inner, alpha, kron, out=None, cap=None):
            calls.append((inner, cap))
            return expand(outer, inner, alpha, kron, out, cap)

        monkeypatch.setattr(tableaux, "_expand_fillings", logged)
        assert _direct_mfree(12, 3, (6, 4, 2)) == (False, ((8, 3, 1), 4))
        assert calls == [((3,), 2)]
        calls.clear()
        kron_expand_tworow(12, 3, (6, 4, 2))
        assert calls == [((3,), None), ((2, 1), None), ((1, 1, 1), None)]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_expansion_is_the_per_alpha_sum_random(self, data):
        # 4 to 7 rows and at most 24 cells, drawn from the bottom row up
        rows = data.draw(st.integers(4, 7))
        left, parts = 24, []
        for r in range(rows):
            low = parts[-1] if parts else 1
            parts.append(data.draw(st.integers(low, left // (rows - r))))
            left -= parts[-1]
        lam = tuple(reversed(parts))
        n = sum(lam)
        merging = [
            p
            for p in range(n // 2 + 1)
            if _route(p, lam)[0] != METHOD_ORACLE and _merges_across_alpha(_route(p, lam)[1], p)
        ]
        assume(merging)
        _assert_expansion_is_the_per_alpha_sum(n, data.draw(st.sampled_from(merging)), lam)


class TestKronCoeff:
    def test_worked_example(self):
        result = kron_coeff(15, 3, (6, 4, 4, 1), (5, 4, 3, 3))
        assert result.value == 4
        assert result.method == METHOD_ROWS
        assert result.upper_bound == 4

    def test_trivial_row_target(self):
        for n, p, lam in ((7, 2, (5, 2)), (7, 2, (4, 3)), (8, 3, (5, 3))):
            want = 1 if lam == (n - p, p) else 0
            assert kron_coeff(n, p, lam, (n,)).value == want

    def test_bound_strict_on_fallback(self):
        result = kron_coeff(7, 3, (4, 3), (3, 2, 2))
        assert result.value == 1
        assert result.method == METHOD_ORACLE
        assert result.upper_bound == 2

    def test_intersection_shortcut(self):
        # lam and nu share fewer than p boxes: coefficient is 0 on the rule's turf
        result = kron_coeff(8, 3, (7, 1), (2, 2, 2, 2))
        assert result.value == 0

    def test_route_a_and_b_agree_when_both_apply(self):
        for n in range(2, 13):
            for p in range(1, min(4, n // 2) + 1):
                for lam in enumerate_partitions(n):
                    if part(lam, 1) < 2 * p - 1 or len(lam) < 2 * p - 1:
                        continue
                    lamc = conjugate(lam)
                    for nu in enumerate_partitions(n):
                        direct = sum(
                            kronecker_tableau_count(lam, a, nu)
                            for a in enumerate_partitions(
                                p, inside=intersect(lam, nu)
                            )
                        )
                        flipped = sum(
                            kronecker_tableau_count(lamc, a, conjugate(nu))
                            for a in enumerate_partitions(
                                p, inside=intersect(lamc, conjugate(nu))
                            )
                        )
                        assert direct == flipped, (n, p, lam, nu)


class TestUpperBound:
    def test_examples(self):
        assert kron_upper_bound(3, (4, 3), (4, 2, 1)) == 2
        assert kron_upper_bound(3, (4, 3), (3, 2, 2)) == 2

    def test_empty_when_intersection_small(self):
        assert kron_upper_bound(3, (6, 1), (2, 2, 1, 1, 1)) == 0

    @pytest.mark.parametrize("p", [-1, 3, 4])
    def test_refuses_p_outside_two_row_range(self, p):
        # (n-p, p) is a partition only for 0 <= 2p <= n
        with pytest.raises(DomainError, match="2p <= n"):
            kron_upper_bound(p, (3, 2), (3, 2))

    def test_bounds_oracle_everywhere(self):
        for n in range(1, 11):
            for p in range(0, min(4, n // 2) + 1):
                for lam in enumerate_partitions(n):
                    expansion = oracle_tworow_signed_sum(n, p, lam)
                    for nu in enumerate_partitions(n):
                        assert kron_upper_bound(p, lam, nu) >= expansion[nu]


def _type_allows(lam, alpha, nu) -> bool:
    """Whether the type nu - alpha leaves room for condition (III) or (II)
    of a Kronecker tableau of lam/alpha, alpha_1 > alpha_2."""
    a1, a2 = part(alpha, 1), part(alpha, 2)
    return (lam[0] - a1 >= a1 - a2 and part(nu, 2) >= a1) or (
        part(lam, 2) >= a1 and nu[0] - a1 >= a1 - a2
    )


def _check_twin_and_type_rules(lam, alpha, nu) -> str | None:
    """Check both of ``_alpha_bound``'s rules for one alpha with
    alpha_1 > alpha_2 against the walks; the rule that applied, if any."""
    kron = _count_fillings(lam, alpha, nu, alpha, True)
    if not _type_allows(lam, alpha, nu):
        assert kron == 0, (lam, alpha, nu)
        return "type"
    if nu[0] >= 2 * alpha[0] - 1:
        minus = remove_box(alpha, 0)
        lattice = _count_fillings(lam, alpha, nu, alpha, False)
        assert kron == lattice - _count_fillings(lam, minus, nu, minus, False), (lam, alpha, nu)
        return "twin"
    return None


def _boxed(draw, n: int, rows: int, width: int) -> tuple:
    """A drawn partition of n <= rows * width with at most rows parts, each
    at most width."""
    parts = []
    for left in range(rows, 0, -1):
        rest = n - sum(parts)
        parts.append(draw(st.integers(max(0, rest - width * (left - 1)), min(width, rest))))
    return tuple(sorted((x for x in parts if x), reverse=True))


@st.composite
def _deep_queries(draw):
    """(n, p, lam, nu) with n in 20..60, at most 9 rows and p in 2..6: lam
    has parts of at most a drawn width, near a rectangle when the width is
    near n / rows; nu is lam with up to p boxes moved, so that lam & nu has
    at least n - p."""
    n, p = draw(st.integers(20, 60)), draw(st.integers(2, 6))
    rows = draw(st.one_of(st.integers(7, 9), st.integers(1, 9)))
    low = -(-n // rows)
    width = draw(st.one_of(st.integers(low, low + 2), st.integers(low, n)))
    lam = nu = _boxed(draw, n, rows, width)
    for _ in range(draw(st.integers(0, p))):
        corners = [r for r in range(len(nu)) if part(nu, r + 2) < nu[r]]
        nu = remove_box(nu, draw(st.sampled_from(corners)))
        rooms = [r for r in range(min(len(nu) + 1, 9)) if r == 0 or part(nu, r + 1) < nu[r - 1]]
        nu = add_box(nu, draw(st.sampled_from(rooms)))
    return n, p, lam, nu


@st.composite
def _long_nu_queries(draw):
    """(n, p, lam, nu) with n in 10..60, at most 9 rows, p in 3..6 and
    nu_1 = 2p - 1 > lam_1 >= p - 1: lam off the rows route, nu lam with
    2p - 1 - lam_1 boxes moved up into row 1."""
    p = draw(st.integers(3, 6))
    width = draw(st.integers(p - 1, 2 * p - 2))
    n = draw(st.integers(max(10, 2 * p, 2 * width), min(60, 9 * width)))
    lam = nu = (width, *_boxed(draw, n - width, 8, width))
    for _ in range(2 * p - 1 - width):
        corners = [r for r in range(1, len(nu)) if part(nu, r + 2) < nu[r]]
        nu = add_box(remove_box(nu, draw(st.sampled_from(corners))), 0)
    return n, p, lam, nu


class TestAlphaBound:
    """``_alpha_bound`` takes most alpha of the rule's sum from the per-alpha
    lemma; ``_tableau_sum``, which walks every alpha, is the reference."""

    def test_per_alpha_lemma(self):
        # K_a against L_a - L_{a-}, L counted as a-lattice SSYT of lam/a
        cases = {"equal": 0, "at least": 0}
        for n in range(1, 10):
            shapes = list(enumerate_partitions(n))
            for lam in shapes:
                for nu in shapes:
                    common = intersect(lam, nu)
                    for k in range(1, n + 1):
                        for alpha in enumerate_partitions(k, inside=common):
                            kron = kronecker_tableau_count(lam, alpha, nu)
                            lattice = _count_fillings(lam, alpha, nu, alpha, False)
                            if part(alpha, 1) == part(alpha, 2):
                                assert kron == lattice, (lam, alpha, nu)
                                continue
                            minus = (alpha[0] - 1, *alpha[1:]) if alpha[0] > 1 else ()
                            diff = lattice - _count_fillings(lam, minus, nu, minus, False)
                            if lam[0] >= 2 * alpha[0] - 1:
                                assert kron == diff, (lam, alpha, nu)
                                cases["equal"] += 1
                            else:
                                assert kron >= diff, (lam, alpha, nu)
                                cases["at least"] += kron > diff
        assert cases["equal"] and cases["at least"]

    def test_matches_tableau_sum_small(self):
        # every route and every p
        for n in range(0, 11):
            shapes = list(enumerate_partitions(n))
            for p in range(0, n // 2 + 1):
                for lam in shapes:
                    for nu in shapes:
                        assert _alpha_bound(lam, nu, p)[1] == _tableau_sum(lam, nu, p), (p, lam, nu)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_tableau_sum_random(self, data):
        # nu shares at least n - p boxes with lam, else both sides are 0
        n = data.draw(st.integers(11, 20))
        p = data.draw(st.integers(0, n // 2))
        shapes = list(enumerate_partitions(n))
        lam = data.draw(st.sampled_from(shapes))
        near = [nu for nu in shapes if sum(intersect(lam, nu)) >= n - p]
        nu = data.draw(st.sampled_from(near))
        assert _alpha_bound(lam, nu, p)[1] == _tableau_sum(lam, nu, p)
        assert kron_upper_bound(p, lam, nu) == _tableau_sum(lam, nu, p)

    def test_twin_and_type_rules_small(self):
        # every alpha inside lam & nu with a_1 > a_2, n <= 10: the twin rule
        # (nu_1 >= 2 a_1 - 1) gives K_a = L_a - L_{a-}, and a type with room
        # for neither condition (II) nor (III) gives K_a = 0
        cases = {"twin": 0, "type": 0, None: 0}
        for n in range(1, 11):
            shapes = list(enumerate_partitions(n))
            for lam in shapes:
                for nu in shapes:
                    common = intersect(lam, nu)
                    for k in range(1, n + 1):
                        for alpha in enumerate_partitions(k, inside=common):
                            if part(alpha, 1) > part(alpha, 2):
                                cases[_check_twin_and_type_rules(lam, alpha, nu)] += 1
        assert cases["twin"] and cases["type"] and cases[None]

    @settings(max_examples=150, deadline=None)
    @given(query=_deep_queries())
    def test_twin_and_type_rules_deep(self, query):
        n, p, lam, nu = query
        for k in range(1, p + 1):
            for alpha in enumerate_partitions(k, inside=intersect(lam, nu)):
                if part(alpha, 1) > part(alpha, 2):
                    _check_twin_and_type_rules(lam, alpha, nu)

    @settings(max_examples=150, deadline=None)
    @given(query=_long_nu_queries())
    def test_bound_is_the_value_when_nu_1_reaches_2p_minus_1(self, query):
        # no alpha walks and the bound is the rule on nu, which is exact
        n, p, lam, nu = query
        value, bound = _alpha_bound(lam, nu, p)
        assert value == bound == oracle_tworow_signed_coeff(n, p, lam, nu)

    def test_decided_hard_alphas_are_not_walked(self, fill_walks):
        # a hard alpha (a_1 > a_2, 2 a_1 - 1 > lam_1, L_a > 0) walks its
        # Kronecker tableaux only when neither L_{a-} = 0, nor the twin rule
        # (nu_1 >= 2 a_1 - 1), nor the type rule decides K_a; with
        # nu_1 >= 2p - 1 none walks and the bound is the value
        clear_caches()
        walked = hard = 0
        for n in range(1, 11):
            shapes = list(enumerate_partitions(n))
            for p in range(1, n // 2 + 1):
                for lam in shapes:
                    for nu in shapes:
                        fill_walks.clear()
                        result = kron_coeff(n, p, lam, nu)
                        walks = [alpha for _, alpha, kron in fill_walks if kron]
                        walked += len(walks)
                        if nu[0] >= 2 * p - 1:
                            assert not walks and result.upper_bound == result.value, (p, lam, nu)
                        want = []
                        for alpha in enumerate_partitions(p, inside=intersect(lam, nu)):
                            a1, a2 = part(alpha, 1), part(alpha, 2)
                            if a1 == a2 or lam[0] >= 2 * a1 - 1:
                                continue
                            if not _count_fillings(lam, alpha, nu, alpha, False):
                                continue
                            hard += 1
                            minus = (a1 - 1, *alpha[1:])
                            decided = (
                                not _count_fillings(lam, minus, nu, minus, False)
                                or nu[0] >= 2 * a1 - 1
                                or not _type_allows(lam, alpha, nu)
                            )
                            if not decided:
                                want.append(alpha)
                        assert sorted(walks) == sorted(want), (p, lam, nu)
        assert 0 < walked < hard

    def test_deep_conjugate_query(self):
        # only alpha = (1, 1) fits, which the lemma takes from 2-cell walks;
        # the rule's count walks 1198 cells
        lam, nu = (1,) * 1200, (2, 2) + (1,) * 1196
        assert kron_coeff(1200, 2, lam, nu) == KronResult(1, METHOD_CONJUGATE, 1)
        assert kron_upper_bound(2, lam, nu) == 1

    def test_deep_hard_alpha_walk(self, fill_walks):
        cases = [
            # alpha = (2, 1) is hard for lam_1 = 2, but nu_1 = 3 decides it
            ((2,) * 600, (3, 2) + (2,) * 597 + (1,), 3, []),
            # alpha = (3, 2) is hard for lam_1 = nu_1 = 4, and nu_2 = 4 leaves
            # room for condition (III), so the bound walks its Kronecker
            # tableaux on the 1195 cells of lam/alpha
            ((4,) * 300, (4,) * 300, 5, [(1195, (3, 2))]),
        ]
        for lam, nu, p, walked in cases:
            clear_caches()
            fill_walks.clear()
            result = kron_coeff(1200, p, lam, nu)
            assert (result.value, result.method) == (1, METHOD_CONJUGATE)
            assert [(len(cells), alpha) for cells, alpha, kron in fill_walks if kron] == walked
            # the bound against the rule's own counts, each a walk of lam/alpha
            alphas = [alpha for alpha in enumerate_partitions(p) if contains(alpha, lam)]
            counts = sum(kronecker_tableau_count(lam, alpha, nu) for alpha in alphas)
            assert result.upper_bound == counts == 2, (lam, nu, p)

    def test_deep_p(self):
        # the L-table's walks have up to p = 1200 cells
        assert kron_coeff(2400, 1200, (1200, 1200), (2400,)) == KronResult(1, METHOD_ORACLE, 1)


class TestOneTable:
    """``kron_coeff`` reads its value and its bound from one ``_alpha_bound``
    table; the signed sum in count mode, ``oracle_tworow_signed_coeff``, is
    a separate engine and the reference for the value."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        # a memoised answer would hide what the engines underneath do
        clear_caches()
        yield
        clear_caches()

    def test_value_matches_signed_coeff_small(self):
        # every route and every p
        for n in range(0, 11):
            shapes = list(enumerate_partitions(n))
            for p in range(0, n // 2 + 1):
                for lam in shapes:
                    for nu in shapes:
                        want = oracle_tworow_signed_coeff(n, p, lam, nu)
                        assert kron_coeff(n, p, lam, nu).value == want, (p, lam, nu)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_value_matches_signed_coeff_random(self, data):
        # nu shares at least n - p boxes with lam, else both sides are 0
        n = data.draw(st.integers(11, 20))
        p = data.draw(st.integers(0, n // 2))
        shapes = list(enumerate_partitions(n))
        lam = data.draw(st.sampled_from(shapes))
        near = [nu for nu in shapes if sum(intersect(lam, nu)) >= n - p]
        nu = data.draw(st.sampled_from(near))
        assert kron_coeff(n, p, lam, nu).value == oracle_tworow_signed_coeff(n, p, lam, nu)

    GRID = [
        (n, p, lam, nu)
        for n in range(0, 8)
        for p in range(0, n // 2 + 1)
        for lam in enumerate_partitions(n)
        for nu in enumerate_partitions(n)
    ]

    def test_answers_without_the_signed_coeff(self, monkeypatch):
        want = [_rule_coeff(*query) for query in self.GRID]

        def refuse(*args):
            raise AssertionError("kron_coeff called the signed sum in count mode")

        monkeypatch.setattr(kronecker, "oracle_tworow_signed_coeff", refuse)
        monkeypatch.setattr(oracle, "oracle_tworow_signed_coeff", refuse)
        assert [kron_coeff(*query) for query in self.GRID] == want

    def test_value_and_bound_from_one_table(self, monkeypatch):
        tables = []

        def one_table(lam, nu, p):
            tables.append(_alpha_bound(lam, nu, p))
            return tables[-1]

        monkeypatch.setattr(kronecker, "_alpha_bound", one_table)
        for n, p, lam, nu in self.GRID:
            tables.clear()
            result = kron_coeff(n, p, lam, nu)
            assert tables == [(result.value, result.upper_bound)], (n, p, lam, nu)

    def test_negative_value_raises(self, monkeypatch):
        # inflate the lower level, the mu with n - p + 1 boxes
        squares = kronecker._lr_squares

        def inflated(lam, nu, mus):
            table = squares(lam, nu, mus)
            if any(sum(mu) == sum(lam) - 1 for mu in mus):
                table = {beta: c + 10 for beta, c in table.items()}
            return table

        monkeypatch.setattr(kronecker, "_lr_squares", inflated)
        with pytest.raises(InvariantError, match=r"went negative at \(3, 2\)"):
            kron_coeff(5, 2, (3, 2), (3, 2))

    def test_each_cell_list_walked_once_over_the_grid(self, fill_walks):
        # the L-walks are the unshifted ones; a hard alpha's walk is shifted.
        # After one clear_caches() the memo keeps every list: n < 10 has p <= 4
        lookups = 0
        clear_caches()
        for n in range(0, 10):
            shapes = list(enumerate_partitions(n))
            for p in range(0, n // 2 + 1):
                for lam in shapes:
                    for nu in shapes:
                        kron_coeff(n, p, lam, nu)
                        lookups += 2 * sum(map(len, oracle._coeff_levels(lam, nu, p)))
        walked = [cells for cells, alpha, _ in fill_walks if alpha == ()]
        assert len(walked) == len(set(walked))
        assert kronecker._lr_walk.cache_info().misses == len(walked)
        # a list met again, on the other side, for another mu or in a later
        # query, is shared
        assert 0 < len(walked) < kronecker.WALK_CACHE < lookups


@st.composite
def _coeff_queries(draw):
    """(n, p, lam, nu) with n <= 12: lam tall about half the time, nu == lam
    about half the time, else nu near lam (the answer may still be 0)."""
    n = draw(st.integers(0, 12))
    p = draw(st.integers(0, n // 2))
    shapes = list(enumerate_partitions(n))
    lam = draw(st.sampled_from(shapes))
    if draw(st.booleans()) and len(lam) < part(lam, 1):
        lam = conjugate(lam)
    if draw(st.booleans()):
        return n, p, lam, lam
    near = [nu for nu in shapes if sum(intersect(lam, nu)) >= n - p]
    return n, p, lam, draw(st.sampled_from(near))


class TestTallQueries:
    """A tall query reads the table of (lam', nu'), the wider side."""

    @settings(max_examples=200, deadline=None)
    @given(query=_coeff_queries())
    def test_tall_query_is_its_conjugate(self, query):
        # a tall lam reads the table of (lam', nu'); the bound stays lam's own
        n, p, lam, nu = query
        assume(len(lam) > part(lam, 1))
        got = kron_coeff(n, p, lam, nu)
        assert got.value == kron_coeff(n, p, conjugate(lam), conjugate(nu)).value
        assert got.value == oracle_tworow_signed_coeff(n, p, lam, nu)
        assert got.upper_bound == _tableau_sum(lam, nu, p)


class TestWalkMemo:
    """``kronecker._lr_walk`` keeps the L-walks across queries; an answer
    read from kept walks must be the answer computed afresh."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        clear_caches()
        yield
        clear_caches()

    @settings(max_examples=60, deadline=None)
    @given(stream=st.lists(_coeff_queries(), min_size=1, max_size=12))
    def test_warm_memo_answers_as_fresh(self, stream):
        # the walk memo stays warm across the stream and across examples;
        # the answer memo is emptied so every answer reads the walks
        warm = []
        for query in stream:
            kronecker._kron_coeff.cache_clear()
            warm.append(kron_coeff(*query))
        for query, got in zip(stream, warm):
            assert got.value == oracle_tworow_signed_coeff(*query), query
            clear_caches()
            assert kron_coeff(*query) == got, query

    def test_memo_stays_within_its_bound(self, fill_walks):
        memo = kronecker._lr_walk
        assert memo.cache_info().maxsize == kronecker.WALK_CACHE
        n, p = 16, 8  # lists of up to 8 cells: more than the bound
        for lam in enumerate_partitions(n):
            kron_coeff(n, p, lam, lam)
            assert memo.cache_info().currsize <= kronecker.WALK_CACHE, lam
        walked = {cells for cells, alpha, _ in fill_walks if alpha == ()}
        assert len(walked) > kronecker.WALK_CACHE
        assert memo.cache_info().currsize == kronecker.WALK_CACHE
        clear_caches()
        assert memo.cache_info().currsize == 0

    def test_replayed_round_keys_each_list_once(self, monkeypatch):
        # ``tools/walk_memo.py`` replays one coeff-stream round from
        # ``bench/workloads.py``: one row key per cell list, every key kept
        # within the bound, and each key walked once
        tool = Path(__file__).resolve().parent.parent / "tools" / "walk_memo.py"
        monkeypatch.setattr(sys, "path", list(sys.path))  # the tool extends it
        spec = importlib.util.spec_from_file_location("walk_memo", tool)
        walk_memo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(walk_memo)
        counts = walk_memo.replay(7)
        assert counts["keys"] == counts["lists"] > 0
        assert counts["kept"] <= kronecker.WALK_CACHE
        assert counts["misses"] == counts["keys"]
        # the table decides all but a few hard alpha (13 walks of 208)
        assert 0 < counts["hard_walks"] <= 20


# each entry point with every shape slot filled by a bad shape of size 5
NON_PARTITION_CALLS = {
    "kron_coeff-lam": lambda bad: kron_coeff(5, 1, bad, (3, 2)),
    "kron_coeff-nu": lambda bad: kron_coeff(5, 1, (3, 2), bad),
    "kron_expand_tworow": lambda bad: kron_expand_tworow(5, 1, bad),
    "signed_sum": lambda bad: oracle_tworow_signed_sum(5, 1, bad),
    "signed_coeff-lam": lambda bad: oracle_tworow_signed_coeff(5, 1, bad, (3, 2)),
    "signed_coeff-nu": lambda bad: oracle_tworow_signed_coeff(5, 1, (3, 2), bad),
    "upper_bound-lam": lambda bad: kron_upper_bound(1, bad, (3, 2)),
    "upper_bound-nu": lambda bad: kron_upper_bound(1, (3, 2), bad),
    "character_kron-lam": lambda bad: oracle_character_kron(bad, (4, 1)),
    "character_kron-mu": lambda bad: oracle_character_kron((4, 1), bad),
    "character_coeff-lam": lambda bad: oracle_character_coeff(bad, (4, 1), (3, 2)),
    "character_coeff-mu": lambda bad: oracle_character_coeff((4, 1), bad, (3, 2)),
    "character_coeff-nu": lambda bad: oracle_character_coeff((4, 1), (3, 2), bad),
    "skew_expand-lam": lambda bad: skew_expand(bad, ()),
    "skew_expand-mu": lambda bad: skew_expand((6, 5), bad),
    "lr_coefficient-lam": lambda bad: lr_coefficient(bad, (3,), (2,)),
    "lr_coefficient-mu": lambda bad: lr_coefficient((6, 4), bad, (5,)),
    "lr_coefficient-nu": lambda bad: lr_coefficient((6, 4), (5,), bad),
    "skew_times_alpha-lam": lambda bad: skew_times_alpha(bad, (1,)),
    "skew_times_alpha-alpha": lambda bad: skew_times_alpha((6, 5), bad),
    "min_lex_term-lam": lambda bad: min_lex_term(bad, (1,)),
    "min_lex_term-alpha": lambda bad: min_lex_term((6, 5), bad),
    "positivity_diff-lam": lambda bad: positivity_diff(bad, (2, 1)),
    "positivity_diff-alpha": lambda bad: positivity_diff((6, 5), bad),
    "p1_expand": lambda bad: p1_expand(bad),
    "hook_coeff": lambda bad: hook_coeff(5, 1, 2, bad),
    "tworow_target_coeff": lambda bad: tworow_target_coeff(5, 1, bad, 1),
    "nu_double_pair_coeff": lambda bad: nu_double_pair_coeff(5, 1, 1, bad),
    "is_multiplicity_free": lambda bad: is_multiplicity_free(5, 1, bad),
    "mn_character-lam": lambda bad: mn_character(bad, (5,)),
    "mn_character-rho": lambda bad: mn_character((3, 2), bad),
    "dimension": lambda bad: dimension(bad),
    "tableau_count-lam": lambda bad: kronecker_tableau_count(bad, (1,), (3, 2)),
    "tableau_count-alpha": lambda bad: kronecker_tableau_count((6, 5), bad, (6, 5)),
    "tableau_count-nu": lambda bad: kronecker_tableau_count((3, 2), (1,), bad),
    "count_ssyt-outer": lambda bad: count_ssyt_alpha_lattice(SkewShape(bad, ()), (5,), ()),
    "count_ssyt-inner": lambda bad: count_ssyt_alpha_lattice(SkewShape((6, 5), bad), (6,), ()),
    "count_ssyt-alpha": lambda bad: count_ssyt_alpha_lattice(SkewShape((6, 5), ()), (6, 5), bad),
    "skew_shape-outer": lambda bad: skew_shape(bad, ()),
    "skew_shape-inner": lambda bad: skew_shape((6, 5), bad),
    "is_alpha_lattice": lambda bad: is_alpha_lattice([1], bad),
    "is_ssyt-outer": lambda bad: is_ssyt(Tableau(SkewShape(bad, ()), ((1, 1, 1), (2, 2)))),
    "is_ssyt-inner": lambda bad: is_ssyt(Tableau(SkewShape((6, 5), bad), ((1, 1, 1), (2, 2, 2)))),
    "reverse_reading_word-outer": lambda bad: reverse_reading_word(
        Tableau(SkewShape(bad, ()), ((1, 1, 1), (2, 2)))
    ),
    "reverse_reading_word-inner": lambda bad: reverse_reading_word(
        Tableau(SkewShape((6, 5), bad), ((1, 1, 1), (2, 2, 2)))
    ),
    "tableau_type-outer": lambda bad: tableau_type(
        Tableau(SkewShape(bad, ()), ((1, 1, 1), (2, 2)))
    ),
    "tableau_type-inner": lambda bad: tableau_type(
        Tableau(SkewShape((6, 5), bad), ((1, 1, 1), (2, 2, 2)))
    ),
    "descent_count": lambda bad: descent_count(bad),
    "reverse_lex_filling": lambda bad: reverse_lex_filling(bad),
    "join-top-outer": lambda bad: join(SkewShape(bad, ()), SkewShape((6, 5), ())),
    "join-top-inner": lambda bad: join(SkewShape((6, 5), bad), SkewShape((6, 5), ())),
    "join-bottom-outer": lambda bad: join(SkewShape((6, 5), ()), SkewShape(bad, ())),
    "join-bottom-inner": lambda bad: join(SkewShape((6, 5), ()), SkewShape((6, 5), bad)),
}

# each entry point that takes shapes of one size, with one shape of size 6
WRONG_SIZE_CALLS = {
    "character_kron": lambda: oracle_character_kron((3, 2), (4, 2)),
    "character_coeff": lambda: oracle_character_coeff((3, 2), (4, 1), (4, 2)),
    "mn_character": lambda: mn_character((3, 2), (4, 2)),
    "hook_coeff": lambda: hook_coeff(5, 1, 2, (4, 2)),
    "kron_coeff": lambda: kron_coeff(5, 1, (3, 2), (4, 2)),
    "upper_bound": lambda: kron_upper_bound(1, (3, 2), (4, 2)),
}


def _outcome(call, shape):
    """The value of call(shape), or the type of the exception it raises."""
    try:
        return call(shape)
    except Exception as err:
        return type(err)


class TestNonPartitions:
    @pytest.mark.parametrize(
        "bad", [(2, 3), (3, 0, 2), (6, -1), (4, 1, 0), (1, 2, 2), (3.0, 2), ("3", "2")]
    )
    @pytest.mark.parametrize("call", NON_PARTITION_CALLS.values(), ids=NON_PARTITION_CALLS)
    def test_domain_error(self, call, bad):
        with pytest.raises(DomainError, match="not a partition"):
            call(bad)

    @pytest.mark.parametrize("call", WRONG_SIZE_CALLS.values(), ids=WRONG_SIZE_CALLS)
    def test_wrong_size(self, call):
        with pytest.raises(DomainError, match=r"\(4, 2\) is not a partition of 5"):
            call()

    def test_list_shapes_answer_as_tuples(self):
        # the checks return tuples, so no entry point computes on a list
        differ = {
            name: (_outcome(call, [3, 2]), _outcome(call, (3, 2)))
            for name, call in NON_PARTITION_CALLS.items()
        }
        assert {name: got for name, got in differ.items() if got[0] != got[1]} == {}

    @pytest.mark.parametrize(
        "call",
        [
            lambda: kron_coeff(10, 2.0, (5, 5), (5, 5)),
            lambda: kron_coeff(10, "2", (5, 5), (5, 5)),
            lambda: kron_expand_tworow(10.0, 2, (5, 5)),
            lambda: oracle_tworow_signed_sum(10, 2.0, (5, 5)),
            lambda: is_multiplicity_free(12, 3.0, (6, 4, 2)),
            lambda: is_multiplicity_free(12.0, 3, (6, 4, 2)),
            lambda: is_multiplicity_free(12, "3", (6, 4, 2)),
            lambda: is_multiplicity_free(40, 4.0, (20, 20)),
            lambda: is_multiplicity_free(10, 1.0, (5, 5)),
        ],
        ids=[
            "kron_coeff-float-p",
            "kron_coeff-str-p",
            "expand-float-n",
            "signed-float-p",
            "mfree-float-p",
            "mfree-float-n",
            "mfree-str-p",
            "mfree-float-p-theorem",
            "mfree-float-p-one",
        ],
    )
    def test_non_integer_n_or_p(self, call):
        # the float p raised TypeError inside the engine, the float n answered;
        # is_multiplicity_free raised TypeError on the first three and answered
        # the last two from its classification lists as for an integer p;
        # the integer query is memoised first, so the refusal comes before the memo
        kron_coeff(10, 2, (5, 5), (5, 5))
        with pytest.raises(DomainError, match="n and p must be integers"):
            call()

    @pytest.mark.parametrize("n, p, lam", [(6, 2, [5, 1]), (20, 3, [10, 10]), (40, 4, [39, 1])])
    def test_multiplicity_free_on_list_shapes(self, n, p, lam):
        assert is_multiplicity_free(n, p, lam) == is_multiplicity_free(n, p, tuple(lam))
        assert is_multiplicity_free(n, p, lam).multiplicity_free

    @pytest.mark.parametrize("counts", [[1.7, 1.2], ["1", "1"], (2, -1, 1)])
    def test_count_ssyt_type_counts_are_checked(self, counts):
        # the floats were truncated to (1, 1) and the strings accepted
        with pytest.raises(DomainError, match="type counts must be integers|negative"):
            count_ssyt_alpha_lattice(SkewShape((2,), ()), counts, ())

    def test_unchecked_entry_points_now_refuse(self):
        # these returned 0, 1, raised IndexError and returned 1 in turn
        with pytest.raises(DomainError):
            mn_character((2, 3), (5,))
        with pytest.raises(DomainError):
            kronecker_tableau_count((2, 3), (1,), (3, 2))
        with pytest.raises(DomainError):
            dimension((2, 3))
        with pytest.raises(DomainError):
            kron_upper_bound(3, (3, 2), (3, 2))

    def test_reported_wrong_answers_now_refused(self):
        # both used to return a value for the reversed shape (2,3)
        with pytest.raises(DomainError):
            kron_coeff(5, 1, (2, 3), (3, 2))
        with pytest.raises(DomainError):
            kron_expand_tworow(5, 1, (2, 3))
        # these answered for the reversed shape (2,3) as well
        with pytest.raises(DomainError):
            skew_expand((2, 3), ())
        with pytest.raises(DomainError):
            lr_coefficient((2, 3), (2,), (3,))
        with pytest.raises(DomainError):
            p1_expand((2, 3))
        with pytest.raises(DomainError):
            is_multiplicity_free(5, 1, (2, 3))


class TestLengthBound:
    def test_support_respects_length_bound(self):
        for n in range(1, 11):
            for p in range(0, min(4, n // 2) + 1):
                for lam in enumerate_partitions(n):
                    expansion = oracle_tworow_signed_sum(n, p, lam)
                    limit = len(lam) + min(p, len(lam))
                    for nu in expansion:
                        assert len(nu) <= limit, (n, p, lam, nu)


class TestLemma31:
    def test_difference_counts_kronecker_tableaux(self):
        # for lam_1 >= 2 alpha_1 - 1 the positivity difference is exactly the
        # bucketed Kronecker tableau count for that alpha
        for n in range(1, 11):
            for p in range(1, 4):
                for alpha in enumerate_partitions(p):
                    if part(alpha, 1) == part(alpha, 2):
                        continue
                    for lam in enumerate_partitions(n):
                        if not contains(alpha, lam) or lam[0] < 2 * alpha[0] - 1:
                            continue
                        diff = positivity_diff(lam, alpha).expansion
                        buckets = _expand_fillings(lam, alpha, alpha, kron=True)
                        assert diff.as_dict() == buckets, (lam, alpha)


class TestDifferential:
    """The tableau rule (on lam or its conjugate), the table of
    ``_alpha_bound`` (the value of ``kron_coeff``) and the character oracle
    are three separate computations of one number; the signed-sum expansion
    is a fourth."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_routes_and_oracles_agree(self, data):
        n = data.draw(st.integers(1, 14))
        p = data.draw(st.integers(0, n // 2))
        shapes = list(enumerate_partitions(n))
        lam = data.draw(st.sampled_from(shapes))
        nu = data.draw(st.sampled_from(shapes))
        result = _rule_coeff(n, p, lam, nu)
        assert kron_coeff(n, p, lam, nu) == result
        assert result.value == oracle_character_coeff(two_row(n, p), lam, nu)
        assert result.upper_bound >= result.value
        assert _rule_coeff(n, p, conjugate(lam), conjugate(nu)).value == result.value

    # the smallest p that has each route
    ROUTE_RANGES = {METHOD_ROWS: 0, METHOD_CONJUGATE: 2, METHOD_ORACLE: 3}

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_expansion_dimension_identity(self, data):
        # sum over nu of g_nu f^nu = f^{(n-p,p)} f^lam, past the n <= 14 of
        # the fixed grids, on every route
        method = data.draw(st.sampled_from(sorted(self.ROUTE_RANGES)))
        p = data.draw(st.integers(self.ROUTE_RANGES[method], 4))
        box = 2 * p - 2  # the oracle route's lam fits in a box x box square
        n = data.draw(st.integers(15, min(24, box * box) if method == METHOD_ORACLE else 24))
        shapes = [lam for lam in enumerate_partitions(n) if _route(p, lam)[0] == method]
        lam = data.draw(st.sampled_from(shapes))
        result = kron_expand_tworow(n, p, lam)
        assert result.method == method
        total = sum(c * dimension(nu) for nu, c in result.expansion.items_desc())
        assert total == dimension(two_row(n, p)) * dimension(lam)


def _random_partition(rng, n, rows):
    cuts = sorted(rng.sample(range(1, n), min(rows, n) - 1))
    return tuple(sorted((b - a for a, b in zip([0, *cuts], [*cuts, n])), reverse=True))


def _box_moves(rng, lam, moves):
    """Move ``moves`` boxes, each from a removable corner to an addable cell."""
    cur = list(lam)
    for _ in range(moves):
        i = rng.choice([i for i in range(len(cur)) if cur[i] > part(cur, i + 2)])
        cur[i] -= 1
        if not cur[i]:
            cur.pop()
        j = rng.choice([i for i in range(len(cur)) if i == 0 or cur[i - 1] > cur[i]] + [len(cur)])
        cur[j:j + 1] = [cur[j] + 1] if j < len(cur) else [1]
    return tuple(cur)


class TestLRComposition:
    """``kron_coeff`` takes its value from the table of the signed sum's
    levels (``_alpha_bound``) on every route; the tableau rule, kept as
    ``_rule_coeff``, is the reference."""

    def test_matches_rule_on_stream_queries(self):
        # queries shaped like a coefficient stream: n 22..36, p 2..6, lam
        # with 1..9 rows in either orientation, nu a few box moves away
        rng = random.Random(7)
        for _ in range(300):
            n, p = rng.randint(22, 36), rng.randint(2, 6)
            lam = _random_partition(rng, n, rng.randint(1, 9))
            nu = _box_moves(rng, lam, rng.randint(1, 2 * p))
            if rng.random() < 0.5:
                lam, nu = conjugate(lam), conjugate(nu)
            result = kron_coeff(n, p, lam, nu)
            assert result == _rule_coeff(n, p, lam, nu), (n, p, lam, nu)
            assert kron_coeff(n, p, lam, nu) == result

    @pytest.mark.parametrize(
        "n, p, lam, nu, value",
        [
            (2000, 1, (1000, 1000), (1000, 1000), 0),
            (1500, 2, (1500,), (1498, 2), 1),
            (1800, 6, (900, 600, 300), (897, 603, 300), 20),
            (1200, 4, (600, 400, 200), (598, 400, 202), 9),
        ],
    )
    def test_deep_queries(self, n, p, lam, nu, value):
        # far past the recursion limit of a walk over lam's cells
        assert kron_coeff(n, p, lam, nu) == KronResult(value, METHOD_ROWS, value)

    def test_stable_values_at_large_n(self):
        # g_{(n-p,p),(n-k,lam'),(n-k,nu')} no longer depends on n once the
        # first rows are long: the rule at a small stable n must agree with
        # the signed sum at n = 1500
        cases = 0
        for k in range(7):
            for p in range(1, 5):
                n0 = 2 * k + 4 * p + 10
                for lam in enumerate_partitions(k):
                    for nu in enumerate_partitions(k):
                        small = _rule_coeff(n0, p, (n0 - k, *lam), (n0 - k, *nu))
                        large = kron_coeff(1500, p, (1500 - k, *lam), (1500 - k, *nu))
                        assert small == large, (k, p, lam, nu)
                        cases += 1
        assert cases == 840
