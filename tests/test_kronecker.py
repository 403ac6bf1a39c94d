import random

import pytest
from hypothesis import given, settings
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
    dimension,
    enumerate_partitions,
    hook_coeff,
    intersect,
    is_multiplicity_free,
    is_ssyt,
    is_alpha_lattice,
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
    reverse_reading_word,
    skew_expand,
    skew_shape,
    skew_times_alpha,
    tworow_target_coeff,
)
from schurkron.kronecker import _route, _rule_coeff, two_row
from schurkron.tableaux import _expand_fillings


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


class TestNonPartitions:
    @pytest.mark.parametrize("bad", [(2, 3), (3, 0, 2), (6, -1), (4, 1, 0), (1, 2, 2)])
    @pytest.mark.parametrize("call", NON_PARTITION_CALLS.values(), ids=NON_PARTITION_CALLS)
    def test_domain_error(self, call, bad):
        with pytest.raises(DomainError, match="not a partition"):
            call(bad)

    @pytest.mark.parametrize("call", WRONG_SIZE_CALLS.values(), ids=WRONG_SIZE_CALLS)
    def test_wrong_size(self, call):
        with pytest.raises(DomainError, match=r"\(4, 2\) is not a partition of 5"):
            call()

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
    """The tableau rule (on lam or its conjugate), LR composition (the value
    of ``kron_coeff``) and the character oracle are three separate
    computations of one number; the signed-sum expansion is a fourth."""

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
    """``kron_coeff`` takes its value from LR composition on every route; the
    tableau rule, kept as ``_rule_coeff``, is the reference."""

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
        # LR composition at n = 1500
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
