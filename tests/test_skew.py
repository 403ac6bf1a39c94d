import pytest

from schurkron import (
    DomainError,
    SkewShape,
    contains,
    enumerate_partitions,
    join,
    lex_compare,
    lr_coefficient,
    min_lex_term,
    part,
    positivity_diff,
    reverse_lex_filling,
    skew_expand,
    skew_times_alpha,
)


class TestReverseLexFilling:
    def test_rows_descend_rightward(self):
        assert reverse_lex_filling((3, 3)) == ((3, 2, 1), (6, 5, 4))
        assert reverse_lex_filling((3, 1)) == ((3, 2, 1), (4,))
        assert reverse_lex_filling(()) == ()


class TestSkewExpand:
    def test_worked_example(self):
        got = skew_expand((4, 4, 2, 2), (3, 3))
        assert got.as_dict() == {(2, 2, 1, 1): 1, (3, 2, 1): 1, (3, 3): 1}

    def test_empty_inner(self):
        assert skew_expand((3, 2, 1), ()).as_dict() == {(3, 2, 1): 1}

    def test_rectangle_minus_column(self):
        assert skew_expand((3, 3, 3), (1, 1)).as_dict() == {(3, 2, 2): 1}

    def test_rejects_non_contained(self):
        with pytest.raises(DomainError):
            skew_expand((2, 2), (3,))

    def test_many_labels_past_the_recursion_limit(self):
        # 1050 labels, each placed in turn, once raised RecursionError
        assert skew_expand((1100,), (1050,)).as_dict() == {(50,): 1}
        assert skew_expand((1100, 1), (1050, 1)).as_dict() == {(50,): 1}

    def test_agrees_with_lr_rule(self):
        # two independent computations of s_{lam/mu}
        for n in range(1, 10):
            for lam in enumerate_partitions(n):
                for msize in range(n + 1):
                    for mu in enumerate_partitions(msize, inside=lam):
                        expansion = skew_expand(lam, mu)
                        for nu in enumerate_partitions(n - msize):
                            assert expansion[nu] == lr_coefficient(lam, mu, nu), (
                                lam,
                                mu,
                                nu,
                            )


class TestMinLexTerm:
    def test_examples(self):
        assert min_lex_term((6, 4, 2, 2), (3, 1)) == (3, 3, 2, 2)
        assert min_lex_term((4, 4, 2, 2), (3, 3)) == (2, 2, 1, 1)
        assert min_lex_term((3, 2), (3, 2)) == ()

    def test_is_lex_minimal_with_coeff_one(self):
        for n in range(1, 10):
            for lam in enumerate_partitions(n):
                for asize in range(n + 1):
                    for alpha in enumerate_partitions(asize, inside=lam):
                        low = min_lex_term(lam, alpha)
                        expansion = skew_expand(lam, alpha)
                        assert expansion[low] == 1
                        for nu in expansion:
                            assert lex_compare(low, nu) <= 0


class TestSkewTimesAlpha:
    def test_rectangle_column_case(self):
        got = skew_times_alpha((3, 3), (1, 1))
        assert got.as_dict() == {(3, 3): 1, (3, 2, 1): 1, (2, 2, 1, 1): 1}

    def test_empty_alpha(self):
        assert skew_times_alpha((4, 2), ()).as_dict() == {(4, 2): 1}

    def test_matches_join_expansion(self):
        # same product computed as the skew function of the glued shape
        lam, alpha = (6, 4, 2, 2), (3, 1)
        direct = skew_times_alpha(lam, alpha)
        glued = join(SkewShape(alpha, ()), SkewShape(lam, alpha))
        assert skew_expand(glued.outer, glued.inner) == direct

    def test_matches_join_expansion_grid(self):
        for lam in enumerate_partitions(6):
            for asize in range(7):
                for alpha in enumerate_partitions(asize, inside=lam):
                    glued = join(SkewShape(alpha, ()), SkewShape(lam, alpha))
                    assert skew_expand(glued.outer, glued.inner) == skew_times_alpha(
                        lam, alpha
                    )


class TestProductLowTerm:
    def test_concatenation_rule(self):
        # lex-min term of s_alpha s_beta is the sorted concatenation of parts
        for asize in range(1, 6):
            for bsize in range(1, 6):
                for alpha in enumerate_partitions(asize):
                    for beta in enumerate_partitions(bsize):
                        glued = join(SkewShape(alpha, ()), SkewShape(beta, ()))
                        product = skew_expand(glued.outer, glued.inner)
                        low = tuple(sorted(alpha + beta, reverse=True))
                        assert product[low] >= 1
                        for nu in product:
                            assert lex_compare(low, nu) <= 0


class TestPositivity:
    def test_positive_example(self):
        result = positivity_diff((6, 4, 2, 2), (3, 1))
        assert result.schur_positive

    def test_negative_example_with_witness(self):
        result = positivity_diff((4, 4), (3, 1))
        assert not result.schur_positive
        # lex-least term of the subtrahend survives with coefficient -1
        assert result.expansion[(3, 2, 2, 1)] == -1

    def test_boundary_case(self):
        assert positivity_diff((5, 1), (3,)).schur_positive

    def test_alpha_one(self):
        # alpha = (1) compares against the plain Schur function
        result = positivity_diff((3, 1), (1,))
        assert result.schur_positive

    def test_rejects_bad_alpha(self):
        with pytest.raises(DomainError):
            positivity_diff((4, 4), (2, 2))
        with pytest.raises(DomainError):
            positivity_diff((2, 2), (3,))
        with pytest.raises(DomainError):
            positivity_diff((4, 4), ())

    def test_iff_characterization_small(self):
        for n in range(1, 10):
            for p in range(1, 5):
                for alpha in enumerate_partitions(p):
                    if part(alpha, 1) == part(alpha, 2):
                        continue
                    for lam in enumerate_partitions(n):
                        if not contains(alpha, lam):
                            continue
                        flag = positivity_diff(lam, alpha).schur_positive
                        assert flag == (lam[0] >= 2 * alpha[0] - 1), (lam, alpha)
