import pytest

from schurkron import (
    DomainError,
    descent_count,
    enumerate_partitions,
    hook_coeff,
    is_multiplicity_free,
    kron_coeff,
    kron_expand_tworow,
    nu_double_pair_coeff,
    oracle_character_kron,
    p1_expand,
    part,
    rect_p2_expand,
    tworow_target_coeff,
    tworow_tworow_coeff,
    tworow_tworow_sequence,
)
from schurkron import kronecker
from schurkron.formulas import _direct_mfree


def hook(n, s):
    return (n - s,) + (1,) * s


class TestP1Expand:
    def test_single_row(self):
        assert p1_expand((5,)).as_dict() == {(4, 1): 1}

    def test_square(self):
        assert p1_expand((2, 2)).as_dict() == {(3, 1): 1, (2, 1, 1): 1}

    def test_hook(self):
        assert p1_expand((3, 1)).as_dict() == {
            (4,): 1,
            (3, 1): 1,
            (2, 2): 1,
            (2, 1, 1): 1,
        }

    def test_descent_count_multiplicity(self):
        for n in range(2, 10):
            for lam in enumerate_partitions(n):
                assert p1_expand(lam)[lam] == descent_count(lam)

    def test_matches_character_oracle(self):
        for n in range(2, 11):
            for lam in enumerate_partitions(n):
                assert p1_expand(lam) == oracle_character_kron((n - 1, 1), lam)

    def test_rejects_tiny(self):
        with pytest.raises(DomainError):
            p1_expand((1,))


class TestMultiplicityFree:
    def test_p2_examples(self):
        verdict = is_multiplicity_free(6, 2, (3, 3))
        assert verdict.multiplicity_free and verdict.source == "thm_p2"
        verdict = is_multiplicity_free(7, 2, (4, 2, 1))
        assert not verdict.multiplicity_free

    def test_p3_half_case(self):
        verdict = is_multiplicity_free(18, 3, (9, 9))
        assert verdict.multiplicity_free and verdict.source == "thm_p3"
        verdict = is_multiplicity_free(18, 3, (2,) * 9)
        assert verdict.multiplicity_free

    def test_p1_classification(self):
        for n in range(2, 11):
            for lam in enumerate_partitions(n):
                verdict = is_multiplicity_free(n, 1, lam)
                assert verdict.source == "prop_p1"
                free, _ = _direct_mfree(n, 1, lam)
                assert verdict.multiplicity_free == free

    def test_direct_source_with_witness(self):
        # n=5 sits below the p=2 theorem's domain
        verdict = is_multiplicity_free(5, 2, (3, 1, 1))
        assert verdict.source == "direct_computation"
        if not verdict.multiplicity_free:
            nu, coeff = verdict.witness
            assert coeff >= 2
            assert kron_coeff(5, 2, (3, 1, 1), nu).value == coeff

    def test_direct_witnesses_pinned(self):
        # the first coefficient to reach 2 in the fill engine's reverse
        # reading order; the CLI prints these witnesses
        cases = {
            (12, 3, (6, 4, 2)): ((8, 3, 1), 4),
            (10, 3, (4, 3, 3)): ((6, 3, 1), 2),
            (14, 3, (5, 4, 3, 2)): ((7, 4, 3), 4),
            (16, 4, (6, 5, 3, 2)): ((9, 5, 2), 4),
            (13, 4, (4, 4, 3, 2)): ((7, 4, 2), 3),
        }
        for (n, p, lam), witness in cases.items():
            verdict = is_multiplicity_free(n, p, lam)
            assert verdict.source == "direct_computation"
            assert not verdict.multiplicity_free
            assert verdict.witness == witness, (n, p, lam)

    @pytest.mark.parametrize(
        "n, p, lam, witness",
        [
            (1400, 20, (700, 700), ((716, 682, 2), 2)),
            (1400, 20, (1398, 2), ((1380, 20), 2)),
            (1200, 19, (600, 599, 1), ((618, 582), 2)),
            # past the rule's depth limit the witness is the signed sum's
            # lex-largest coefficient >= 2; the rule's walk met ((465, 434, 1), 3)
            (900, 16, (450, 449, 1), ((465, 435), 2)),
        ],
    )
    def test_deep_shapes(self, n, p, lam, witness):
        # n <= (2p-2)^2, so these are decided by expanding; the rule would
        # walk n - p cells, past the recursion limit
        assert is_multiplicity_free(n, p, lam) == (False, "direct_computation", witness)

    def test_signed_sum_cap_matches_the_rule(self, monkeypatch):
        # with RULE_MAX_CELLS at 0 the rule's routes stop in the signed sum
        rule = {
            (n, p, lam): _direct_mfree(n, p, lam)
            for n in range(4, 13)
            for p in range(2, n // 2 + 1)
            for lam in enumerate_partitions(n)
        }
        monkeypatch.setattr(kronecker, "RULE_MAX_CELLS", 0)
        moved = 0
        for (n, p, lam), (free, witness) in rule.items():
            got, got_witness = _direct_mfree(n, p, lam)
            assert got == free, (n, p, lam, witness, got_witness)
            if not got:
                assert kron_coeff(n, p, lam, got_witness[0]).value == got_witness[1] >= 2
                moved += got_witness != witness
        # the patch took effect: some witnesses now come from the signed sum
        assert moved > 0

    def test_small_n_remark(self):
        # the p=2 classification holds vacuously at n=4 and gains two extra
        # multiplicity-free products at n=5
        for lam in enumerate_partitions(4):
            assert is_multiplicity_free(4, 2, lam).multiplicity_free
        extras = [
            lam
            for lam in enumerate_partitions(5)
            if is_multiplicity_free(5, 2, lam).multiplicity_free
            and not (
                lam in ((5,), (1,) * 5, (4, 1), (2, 1, 1, 1)) or len(set(lam)) == 1
            )
        ]
        assert extras == [(3, 2), (2, 2, 1)]

    def test_p2_theorem_exhaustive_to_ten(self):
        for n in range(6, 11):
            for lam in enumerate_partitions(n):
                verdict = is_multiplicity_free(n, 2, lam)
                free, witness = _direct_mfree(n, 2, lam)
                assert verdict.multiplicity_free == free, (n, lam, witness)

    def test_p4_theorem_route(self):
        verdict = is_multiplicity_free(38, 4, (19, 19))
        assert verdict.source == "thm_p4plus"
        assert not verdict.multiplicity_free
        assert is_multiplicity_free(38, 4, (37, 1)).multiplicity_free

    def test_validates_inputs(self):
        with pytest.raises(DomainError):
            is_multiplicity_free(6, 0, (3, 3))
        with pytest.raises(DomainError):
            is_multiplicity_free(6, 2, (3, 2))


class TestRectP2:
    def test_m3_k2(self):
        assert rect_p2_expand(3, 2).as_dict() == {
            (3, 3): 1,
            (3, 2, 1): 1,
            (2, 2, 1, 1): 1,
            (5, 1): 1,
            (4, 1, 1): 1,
        }

    def test_m4_k3(self):
        assert rect_p2_expand(4, 3).as_dict() == {
            (4, 4, 4): 1,
            (4, 4, 3, 1): 1,
            (4, 3, 3, 1, 1): 1,
            (5, 4, 3): 1,
            (5, 3, 3, 1): 1,
            (6, 4, 2): 1,
            (5, 4, 2, 1): 1,
            (4, 4, 2, 2): 1,
        }

    def test_k1_identity(self):
        assert rect_p2_expand(6, 1).as_dict() == {(4, 2): 1}

    def test_matches_rule(self):
        small = [(m, k) for m in range(2, 13) for k in range(1, 7) if 6 <= m * k <= 12]
        # the (m+1, m+1, m^(k-4), m-1, m-1) term needs k >= 4, so n >= 16
        for m, k in small + [(4, 4), (5, 4), (6, 4), (5, 5), (6, 5)]:
            if k > 1 and m < k:
                continue
            got = rect_p2_expand(m, k)
            assert got.max_coefficient() == 1
            assert got == kron_expand_tworow(m * k, 2, (m,) * k).expansion, (m, k)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rect_p2_expand(2, 2)
        with pytest.raises(DomainError):
            rect_p2_expand(2, 3)


class TestHookCoeff:
    def test_examples(self):
        assert hook_coeff(10, 2, 3, (7, 1, 1, 1)) == 2
        assert hook_coeff(10, 2, 3, (5, 3, 1, 1)) == 1

    def test_against_rule_single(self):
        expansion = kron_expand_tworow(10, 2, hook(10, 3)).expansion
        assert hook_coeff(10, 2, 3, (7, 2, 1)) == expansion[(7, 2, 1)]

    def test_domain_error(self):
        with pytest.raises(DomainError):
            hook_coeff(10, 4, 4, (7, 1, 1, 1))

    def test_p1_reads_the_intersection(self, monkeypatch):
        # one coefficient from hook & nu, no expansion; p1_expand is the reference
        from schurkron import formulas

        expansions = {(n, s): p1_expand(hook(n, s)) for n in range(2, 15) for s in range(1, n)}
        monkeypatch.setattr(formulas, "p1_expand", None)
        for (n, s), expansion in expansions.items():
            for nu in enumerate_partitions(n):
                assert hook_coeff(n, 1, s, nu) == expansion[nu], (n, s, nu)
        assert hook_coeff(2000, 1, 1000, hook(2000, 1000)) == 1
        assert hook_coeff(2000, 1, 1000, hook(2000, 999)) == 1
        assert hook_coeff(2000, 1, 1000, hook(2000, 998)) == 0

    def test_grid_matches_rule(self):
        for n in range(2, 12):
            for p in range(1, min(4, n // 2) + 1):
                for s in range(1, n):
                    if n - s < 2 * p - 1:
                        continue
                    expansion = kron_expand_tworow(n, p, hook(n, s)).expansion
                    for nu in enumerate_partitions(n):
                        assert hook_coeff(n, p, s, nu) == expansion[nu], (n, p, s, nu)


class TestTworowTarget:
    def test_long_partitions_vanish(self):
        # a two-row target never appears against a 5-row lam
        for lam, t in (((3, 3, 2, 1, 1), 3), ((4, 2, 2, 1, 1), 5), ((6, 1, 1, 1, 1), 2)):
            n = sum(lam)
            assert tworow_target_coeff(n, 2, lam, t) == 0
            assert kron_coeff(n, 2, lam, (n - t, t)).value == 0

    def test_hand_checked_values(self):
        assert tworow_target_coeff(12, 2, (9, 3), 3) == 2
        assert tworow_target_coeff(13, 2, (9, 4), 6) == 1

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tworow_target_coeff(8, 3, (4, 4), 2)

    def test_grid_matches_rule(self):
        for n in range(2, 12):
            for p in range(1, min(4, n // 2) + 1):
                for lam in enumerate_partitions(n, inside=(n,) * 4):
                    if part(lam, 1) < 2 * p - 1:
                        continue
                    for t in range(n // 2 + 1):
                        nu = (n - t, t) if t else (n,)
                        assert (
                            tworow_target_coeff(n, p, lam, t)
                            == kron_coeff(n, p, lam, nu).value
                        ), (n, p, lam, t)


class TestTworowTworow:
    def test_floor_half_plus_one(self):
        assert tworow_tworow_coeff(12, 2, 3, 3) == 2

    def test_vanishing_tail(self):
        assert tworow_tworow_coeff(12, 2, 3, 0) == 0

    def test_window(self):
        assert [tworow_tworow_coeff(13, 2, 4, t) for t in range(2, 7)] == [
            1, 1, 2, 1, 1,
        ]

    def test_specializes_target_formula(self):
        for n in range(2, 13):
            for p in range(1, min(4, n // 2) + 1):
                for s in range(n // 2 + 1):
                    if n - s < 2 * p - 1:
                        continue
                    lam = (n - s, s) if s else (n,)
                    for t in range(n // 2 + 1):
                        assert tworow_tworow_coeff(n, p, s, t) == (
                            tworow_target_coeff(n, p, lam, t)
                        ), (n, p, s, t)


class TestTworowSequence:
    def test_window_13_2_4(self):
        seq = tworow_tworow_sequence(13, 2, 4)
        assert [e.value for e in seq.entries] == [1, 1, 2, 1, 1]
        assert all(e.source == "corollary" for e in seq.entries)
        assert seq.unimodal

    def test_p1_flat(self):
        seq = tworow_tworow_sequence(12, 1, 4)
        assert [e.value for e in seq.entries] == [1, 1, 1]
        assert seq.unimodal

    def test_partial_coverage_flags(self):
        seq = tworow_tworow_sequence(12, 3, 5)
        assert [e.value for e in seq.entries] == [1, 1, 2, 1, 1, 0, 0]
        assert [e.source for e in seq.entries] == ["corollary"] * 2 + ["direct"] * 5
        assert seq.unimodal

    def test_rejects_large_p(self):
        with pytest.raises(DomainError):
            tworow_tworow_sequence(12, 4, 4)


class TestNuDoublePair:
    def test_hand_checked_zero(self):
        assert nu_double_pair_coeff(10, 3, 4, (4, 2, 2, 2)) == 0

    def test_p_zero_and_one_vanish(self):
        assert nu_double_pair_coeff(8, 1, 4, (3, 3, 1, 1)) == 0
        assert nu_double_pair_coeff(10, 1, 5, (4, 2, 2, 2)) == 0
        assert nu_double_pair_coeff(10, 0, 5, (4, 2, 2, 2)) == 0

    def test_against_oracle_value(self):
        want = kron_coeff(12, 4, (7, 5), (5, 3, 2, 2)).value
        assert nu_double_pair_coeff(12, 4, 5, (5, 3, 2, 2)) == want

    def test_validates_shape(self):
        with pytest.raises(DomainError):
            nu_double_pair_coeff(10, 3, 4, (4, 3, 2, 1))
        with pytest.raises(DomainError):
            nu_double_pair_coeff(9, 3, 4, (4, 2, 2, 2))

    def test_grid_matches_rule(self):
        for n in range(4, 13):
            for p in range(0, min(5, n // 2) + 1):
                for s in range(1, n // 2 + 1):
                    if n - s < 2 * p - 1:
                        continue
                    for nu in enumerate_partitions(n, inside=(n,) * 4):
                        if len(nu) != 4 or nu[2] != nu[3]:
                            continue
                        assert nu_double_pair_coeff(n, p, s, nu) == (
                            kron_coeff(n, p, (n - s, s), nu).value
                        ), (n, p, s, nu)


# one bad argument per refusal of the closed formulas; 2p > n was answered 0
# by tworow_target_coeff and tworow_tworow_coeff
REFUSALS = {
    "hook-s": (hook_coeff, (10, 2, 0, (10,)), "need 1 <= s <= n-1"),
    "hook-p": (hook_coeff, (10, 0, 3, (7, 1, 1, 1)), "need p >= 1"),
    "tworow-p": (tworow_target_coeff, (12, 0, (9, 3), 3), "need 1 <= p <= n/2"),
    "tworow-2p>n": (tworow_target_coeff, (5, 3, (5,), 1), "need 1 <= p <= n/2"),
    "tworow-t": (tworow_target_coeff, (12, 2, (9, 3), 7), "need 0 <= t <= n/2"),
    "tworow2-p": (tworow_tworow_coeff, (12, 0, 3, 3), "need 1 <= p <= n/2"),
    "tworow2-2p>n": (tworow_tworow_coeff, (5, 3, 0, 0), "need 1 <= p <= n/2"),
    "tworow2-s": (tworow_tworow_coeff, (12, 2, 7, 3), "need 0 <= s <= n/2"),
    "tworow2-t": (tworow_tworow_coeff, (12, 2, 3, 7), "need 0 <= t <= n/2"),
    "tworow2-n-s": (tworow_tworow_coeff, (6, 3, 3, 3), "need n-s >= 2p-1"),
    "seq-n-s": (tworow_tworow_sequence, (8, 3, 4), "need n-s >= 2p-1"),
    "seq-n-p": (tworow_tworow_sequence, (10, 2, 6), "need n-p >= 2s-1"),
    "nu334-s": (nu_double_pair_coeff, (10, 2, 0, (4, 2, 2, 2)), "need s >= 1"),
    "nu334-2s>n": (nu_double_pair_coeff, (10, 2, 6, (4, 2, 2, 2)), "need 2p <= n and 2s <= n"),
    "nu334-n-s": (nu_double_pair_coeff, (10, 4, 4, (4, 2, 2, 2)), "need n-s >= 2p-1"),
    # m*k >= 6 and m >= k both held for these, which failed inside SchurExpansion
    "rect-p2-negative": (rect_p2_expand, (-1, -6), "need m >= 1 and k >= 1"),
    "rect-p2-negative-square": (rect_p2_expand, (-2, -3), "need m >= 1 and k >= 1"),
    # a scalar that is not an integer was answered as one, or failed inside
    # the formula with a TypeError
    "hook-float-p": (hook_coeff, (10, 2.5, 3, (7, 1, 1, 1)), "n, p and s must be integers"),
    "tworow-float-p": (tworow_target_coeff, (10, 2.0, (6, 4), 2), "n, p and t must be integers"),
    "tworow-str-t": (tworow_target_coeff, (10, 2, (6, 4), "2"), "n, p and t must be integers"),
    "tworow2-float-s": (tworow_tworow_coeff, (12, 2, 3.0, 3), "n, p, s and t must be integers"),
    "seq-float-n": (tworow_tworow_sequence, (10.0, 2, 4), "n, p and s must be integers"),
    "nu334-float-n": (nu_double_pair_coeff, (10.0, 2, 3, (4, 2, 2, 2)), "n, p and s must be integers"),
    "rect-p2-float-m": (rect_p2_expand, (3.0, 2), "m and k must be integers"),
}


@pytest.mark.parametrize("fn, args, message", REFUSALS.values(), ids=REFUSALS)
def test_formula_refusals(fn, args, message):
    with pytest.raises(DomainError, match=message):
        fn(*args)
