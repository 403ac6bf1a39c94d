import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkron import (
    METHOD_ROWS,
    DomainError,
    InvariantError,
    KronResult,
    centralizer_order,
    clear_caches,
    conjugate,
    cycle_types,
    dimension,
    enumerate_partitions,
    kron_coeff,
    mn_character,
    oracle_character_coeff,
    oracle_character_kron,
    oracle_tworow_signed_coeff,
    oracle_tworow_signed_sum,
)
from schurkron import kronecker, oracle
from schurkron.kronecker import two_row
from schurkron.partitions import intersect, part, shrink


class TestCycleTypes:
    def test_class_sizes_sum_to_group_order(self):
        for n in range(1, 9):
            fact = math.factorial(n)
            assert sum(fact // ct.z for ct in cycle_types(n)) == fact

    def test_centralizer_examples(self):
        assert centralizer_order((1, 1, 1)) == 6
        assert centralizer_order((2, 1)) == 2
        assert centralizer_order((3,)) == 3
        assert centralizer_order(()) == 1

    @pytest.mark.parametrize("rho", [(1.5,), (0,), (-1,), ("a",)])
    def test_centralizer_refuses_non_partitions(self, rho):
        # these returned 1.5, 0 and -1, and raised TypeError
        with pytest.raises(DomainError, match="not a partition"):
            centralizer_order(rho)


class TestMnCharacter:
    def test_trivial_character(self):
        for n in range(1, 8):
            for ct in cycle_types(n):
                assert mn_character((n,), ct.parts) == 1

    def test_sign_character(self):
        for n in range(1, 8):
            for ct in cycle_types(n):
                assert mn_character((1,) * n, ct.parts) == (-1) ** (n - len(ct.parts))

    def test_single_strip(self):
        assert mn_character((2, 1), (3,)) == -1

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            mn_character((2, 1), (2,))

    def test_column_orthogonality(self):
        for n in range(1, 9):
            classes = cycle_types(n)
            lams = list(enumerate_partitions(n))
            for rho, sigma in itertools.product(classes, classes):
                total = sum(
                    mn_character(lam, rho.parts) * mn_character(lam, sigma.parts)
                    for lam in lams
                )
                assert total == (rho.z if rho.parts == sigma.parts else 0)

    def test_table_matches_single_values(self):
        # the table adds strips to the empty shape, mn_character removes
        # them from lam, so each direction checks the other
        for n in range(0, 13):
            parts, _, chi, _, _, _ = oracle._char_table(n)
            for lam, row in zip(parts, chi):
                assert row == tuple(mn_character(lam, rho) for rho in parts), lam

    def test_far_past_the_recursion_limit(self):
        assert mn_character((1,) * 1200, (1,) * 1200) == 1
        assert mn_character((1,) * 1200, (2,) + (1,) * 1198) == -1
        assert mn_character((1200,), (1,) * 1200) == 1


class TestDimension:
    def test_examples(self):
        assert dimension((5,)) == 1
        assert dimension((2, 1)) == 2
        assert dimension((3, 2)) == 5
        assert dimension(()) == 1

    def test_sum_of_squares(self):
        for n in range(1, 9):
            assert sum(dimension(l) ** 2 for l in enumerate_partitions(n)) == (
                math.factorial(n)
            )


class TestCharacterKron:
    def test_s3_square(self):
        got = oracle_character_kron((2, 1), (2, 1))
        assert got.as_dict() == {(3,): 1, (2, 1): 1, (1, 1, 1): 1}

    def test_identity_element(self):
        for mu in enumerate_partitions(6):
            assert oracle_character_kron((6,), mu).as_dict() == {mu: 1}

    def test_sign_twist(self):
        for mu in enumerate_partitions(6):
            assert oracle_character_kron((1,) * 6, mu).as_dict() == {conjugate(mu): 1}

    def test_full_symmetry(self):
        for n in range(1, 10):
            lams = list(enumerate_partitions(n))
            for lam, mu in itertools.product(lams, lams):
                expansion = oracle_character_kron(lam, mu)
                for nu in expansion:
                    g = expansion[nu]
                    assert oracle_character_coeff(lam, nu, mu) == g
                    assert oracle_character_coeff(mu, lam, nu) == g
                    assert oracle_character_coeff(mu, nu, lam) == g
                    assert oracle_character_coeff(nu, lam, mu) == g
                    assert oracle_character_coeff(nu, mu, lam) == g

    def test_packed_expansion_matches_single_coefficients(self):
        # every nu, not only the support: a dropped or shifted digit fails
        for n in range(0, 10):
            lams = list(enumerate_partitions(n))
            for lam, mu in itertools.product(lams, lams):
                want = {nu: oracle_character_coeff(lam, mu, nu) for nu in lams}
                assert oracle_character_kron(lam, mu).as_dict() == {
                    nu: g for nu, g in want.items() if g
                }, (lam, mu)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_packed_expansion_matches_single_coefficients_random(self, data):
        n = data.draw(st.integers(10, 12))
        lams = list(enumerate_partitions(n))
        lam = data.draw(st.sampled_from(lams))
        mu = data.draw(st.sampled_from(lams))
        want = {nu: oracle_character_coeff(lam, mu, nu) for nu in lams}
        assert oracle_character_kron(lam, mu).as_dict() == {
            nu: g for nu, g in want.items() if g
        }

    def test_size_limit(self, monkeypatch):
        def no_strips(*args):
            raise AssertionError("a character value was computed")

        # refused before a single character value is computed
        monkeypatch.setattr(oracle, "_strips", no_strips)
        n = oracle.MAX_CHAR_N + 1
        with pytest.raises(DomainError, match="n <= "):
            oracle_character_kron((n,), (n - 1, 1))
        with pytest.raises(DomainError, match="n <= "):
            oracle_character_coeff((n,), (n,), (n,))

    def test_conjugation_invariance(self):
        for n in range(1, 10):
            lams = list(enumerate_partitions(n))
            for lam, mu in itertools.product(lams, lams):
                a = oracle_character_kron(lam, mu)
                b = oracle_character_kron(conjugate(lam), conjugate(mu))
                assert a == b

    def test_dimension_identity(self):
        for n in range(1, 9):
            lams = list(enumerate_partitions(n))
            dims = {lam: dimension(lam) for lam in lams}
            for lam, mu in itertools.product(lams, lams):
                expansion = oracle_character_kron(lam, mu)
                total = sum(c * dims[nu] for nu, c in expansion.items_desc())
                assert total == dims[lam] * dims[mu]


class TestSignedSum:
    def test_shape_43_cube_coefficients(self):
        expansion = oracle_tworow_signed_sum(7, 3, (4, 3))
        assert expansion[(4, 2, 1)] == 1
        assert expansion[(3, 2, 2)] == 1

    def test_p_zero(self):
        assert oracle_tworow_signed_sum(5, 0, (3, 2)).as_dict() == {(3, 2): 1}

    def test_worked_example(self):
        assert oracle_tworow_signed_sum(15, 3, (6, 4, 4, 1))[(5, 4, 3, 3)] == 4

    def test_single_coeff_matches_full(self):
        # every p up to n = 8, then p <= 4 up to n = 12
        for n in range(1, 13):
            for p in range(0, min(n // 2, 4 if n > 8 else n) + 1):
                for lam in enumerate_partitions(n):
                    expansion = oracle_tworow_signed_sum(n, p, lam)
                    for nu in enumerate_partitions(n):
                        assert (
                            oracle_tworow_signed_coeff(n, p, lam, nu) == expansion[nu]
                        )

    def test_agrees_with_character_oracle(self):
        for n in range(0, 10):
            for p in range(0, n // 2 + 1):
                for lam in enumerate_partitions(n):
                    assert oracle_tworow_signed_sum(n, p, lam) == (
                        oracle_character_kron(two_row(n, p), lam)
                    ), (n, p, lam)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_single_coeff_matches_full_random(self, data):
        # nu from every shape or from the expansion's own terms; both sums
        # walk the wider of lam and its conjugate
        n = data.draw(st.integers(1, 14))
        p = data.draw(st.integers(0, n // 2))
        shapes = list(enumerate_partitions(n))
        lam = data.draw(st.sampled_from(shapes))
        expansion = oracle_tworow_signed_sum(n, p, lam)
        nu = data.draw(st.sampled_from(shapes) | st.sampled_from(sorted(expansion)))
        assert oracle_tworow_signed_coeff(n, p, lam, nu) == expansion[nu]

    def test_conjugate_lam_conjugates_the_sum(self):
        # s_{(n-p,p)} * s_lam' is s_{(n-p,p)} * s_lam with every nu conjugated
        for n in range(0, 11):
            for p in range(0, n // 2 + 1):
                for lam in enumerate_partitions(n):
                    flipped = oracle_tworow_signed_sum(n, p, conjugate(lam))
                    want = oracle_tworow_signed_sum(n, p, lam).items_desc()
                    assert flipped.as_dict() == {conjugate(nu): c for nu, c in want}, (p, lam)

    def test_ladder_is_the_signed_sum_at_every_p(self, monkeypatch):
        # each level of shrink(work, pmax) is walked once, one walk per mu,
        # and signing levels p and p - 1 gives the signed sum for every p <= pmax
        walks = []
        fill = oracle._expand_fillings

        def logged(outer, inner, *args, **kwargs):
            walks.append(inner)
            return fill(outer, inner, *args, **kwargs)

        monkeypatch.setattr(oracle, "_expand_fillings", logged)
        for n in range(0, 11):
            for work in enumerate_partitions(n):
                if len(work) > part(work, 1):
                    continue
                walks.clear()
                ladder = oracle._signed_ladder(work, n // 2)
                assert len(walks) == sum(map(len, shrink(work, n // 2))), work
                previous = {}
                for p, level in enumerate(ladder):
                    signed = oracle._signed(level, previous, False)
                    assert signed == oracle_tworow_signed_sum(n, p, work), (p, work)
                    previous = level

    def test_coeff_levels_are_two_levels_of_shrink(self):
        # every pair with n <= 12 and every p: the mu of sizes n - p and
        # n - p + 1 inside lam & nu, as the full ladder of shrink lists them;
        # at surplus 0 that is lam & nu alone, and below 0 nothing
        for n in range(0, 13):
            shapes = list(enumerate_partitions(n))
            for lam in shapes:
                for nu in shapes:
                    inter = intersect(lam, nu)
                    for p in range(0, n // 2 + 1):
                        surplus = sum(inter) - (n - p)
                        levels = shrink(inter, surplus) if surplus >= 0 else []
                        want = (
                            levels[surplus] if levels else [],
                            levels[surplus - 1] if surplus > 0 else [],
                        )
                        assert oracle._coeff_levels(lam, nu, p) == want, (p, lam, nu)

    def test_deep_single_coefficients(self):
        # shapes far deeper than the recursion limit; each walk has <= p cells
        assert oracle_tworow_signed_coeff(2000, 1, (1000, 1000), (1000, 1000)) == 0
        assert oracle_tworow_signed_coeff(1500, 2, (1500,), (1498, 2)) == 1
        # s_{(n-2,2)} * s_{1^n} = s_{(2,2,1^{n-4})}
        column = (1,) * 1200
        assert oracle_tworow_signed_coeff(1200, 2, column, (2, 2) + (1,) * 1196) == 1
        assert oracle_tworow_signed_coeff(1200, 2, column, (2,) + (1,) * 1198) == 0
        assert oracle_tworow_signed_coeff(1200, 2, column, conjugate(column)) == 0

    def test_walks_of_p_cells_past_the_recursion_limit(self):
        # s_{(n-p,p)} * s_{(p,p)} holds s_(n) once: (p,p) is (n-p,p) at n = 2p
        assert oracle_tworow_signed_coeff(2400, 1200, (1200, 1200), (2400,)) == 1

    def test_deep_full_expansion(self):
        # s_{(n-2,2)} * s_{1^n} = s_{(2,2,1^{n-4})}, with lam/mu of 1 or 2 cells
        column = (1,) * 1200
        assert oracle_tworow_signed_sum(1200, 2, column).as_dict() == {
            (2, 2) + (1,) * 1196: 1
        }

    def test_murnaghan_stability(self):
        # once lam_1 is long the expansion only shifts its first rows with n:
        # n = 10^6 against n = 708, term by term
        shift = 10**6 - 708
        large = oracle_tworow_signed_sum(10**6, 4, (999600, 300, 100))
        small = oracle_tworow_signed_sum(708, 4, (308, 300, 100))
        back = {(nu[0] - shift, *nu[1:]): c for nu, c in large.items_desc()}
        assert back == small.as_dict()
        assert len(back) == 259

    def test_validates_inputs(self):
        with pytest.raises(DomainError):
            oracle_tworow_signed_sum(6, 2, (3, 2))
        with pytest.raises(DomainError):
            oracle_tworow_signed_sum(4, 3, (2, 2))


class TestInvariantErrors:
    """Broken invariants raise InvariantError, which ``python -O`` keeps."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        # a memoised answer from an earlier test would hide the injected fault
        clear_caches()
        yield
        clear_caches()

    def test_signed_sum_going_negative(self, monkeypatch):
        # fill only the walks of the subtracted level, lam/mu of p-1 = 1 cell
        def fake(outer, inner, alpha, kron, out=None, cap=None):
            if sum(outer) - sum(inner) == 1:
                out[outer] = out.get(outer, 0) + 1
            return out

        monkeypatch.setattr(oracle, "_expand_fillings", fake)
        with pytest.raises(InvariantError, match="went negative"):
            oracle_tworow_signed_sum(5, 2, (3, 2))
        # a tall lam is walked on its conjugate; the message names nu as answered
        with pytest.raises(InvariantError, match=r"went negative: \{\(2, 2, 1\)"):
            oracle_tworow_signed_sum(5, 2, (2, 2, 1))

    def test_signed_coeff_going_negative(self, monkeypatch):
        # count only the walks of the subtracted level, lam/mu of p-1 = 1 cell
        def fake(outer, inner, nu, alpha, kron):
            return 1 if sum(outer) - sum(inner) == 1 else 0

        monkeypatch.setattr(oracle, "_count_fillings", fake)
        with pytest.raises(InvariantError, match="went negative"):
            oracle_tworow_signed_coeff(5, 2, (3, 2), (3, 2))
        # a tall lam is counted on its conjugate; the message names nu as given
        with pytest.raises(InvariantError, match=r"went negative at \(2, 2, 1\)"):
            oracle_tworow_signed_coeff(5, 2, (2, 2, 1), (2, 2, 1))

    @staticmethod
    def _fake_table(monkeypatch, chi):
        # S_2 with a made-up character table, packed as the real one is
        parts = ((2,), (1, 1))
        table = (parts, (2, 2), chi, {(2,): 0, (1, 1): 1})
        table += oracle._pack_columns(tuple(zip(*chi)), 2)
        monkeypatch.setattr(oracle, "_char_table", lambda n: table)

    @pytest.mark.parametrize(
        "chi, message",
        [(((1, 0), (0, 1)), "non-integral"), (((-1, -1), (1, -1)), "negative")],
    )
    def test_character_sum(self, monkeypatch, chi, message):
        self._fake_table(monkeypatch, chi)
        with pytest.raises(InvariantError, match=message):
            oracle_character_coeff((2,), (2,), (2,))
        with pytest.raises(InvariantError, match=message):
            oracle_character_kron((2,), (2,))

    def test_character_sum_negative_after_a_good_digit(self, monkeypatch):
        # 2! g = 2 at (2,), then -2 at (1,1): the second digit borrows
        self._fake_table(monkeypatch, ((1, 1), (-1, -1)))
        assert oracle_character_coeff((2,), (2,), (2,)) == 1
        with pytest.raises(InvariantError, match="negative.*1, 1"):
            oracle_character_coeff((2,), (2,), (1, 1))
        with pytest.raises(InvariantError, match="negative.*1, 1"):
            oracle_character_kron((2,), (2,))

    def test_character_sum_carry(self, monkeypatch):
        # 2! g = 64 at (2,) does not fit a 3-bit digit: both digits read 0
        # and 64 = 1 * 8^2 is left over
        chi = ((4, 0), (0, 0))
        table = (((2,), (1, 1)), (2, 2), chi, {(2,): 0, (1, 1): 1}, 3, (4, 0))
        monkeypatch.setattr(oracle, "_char_table", lambda n: table)
        with pytest.raises(InvariantError, match="carry"):
            oracle_character_kron((2,), (2,))


def _package_caches():
    return {
        f"{name.removeprefix('schurkron.')}.{attr}": value
        for name, module in list(sys.modules.items())
        if name.startswith("schurkron.")
        for attr, value in vars(module).items()
        if hasattr(value, "cache_info") and value.__module__ == name
    }


class TestCaches:
    def test_clear_caches_empties_every_cache(self):
        kron_coeff(15, 3, (6, 4, 4, 1), (5, 4, 3, 3))
        oracle_character_coeff((12, 3), (6, 4, 4, 1), (5, 4, 3, 3))
        caches = _package_caches()
        assert set(caches) == {
            "kronecker._kron_coeff",
            "kronecker._lr_walk",
            "oracle._char_table",
        }
        assert all(c.cache_info().currsize for c in caches.values())
        clear_caches()
        assert {name: c.cache_info().currsize for name, c in caches.items()} == dict.fromkeys(caches, 0)

    def test_every_cache_is_bounded(self):
        unbounded = [
            name for name, c in _package_caches().items() if c.cache_info().maxsize is None
        ]
        assert unbounded == []

    def test_single_coefficients_are_memoised_within_a_bound(self):
        assert kronecker._kron_coeff.cache_info().maxsize == kronecker.KRON_COEFF_CACHE
        clear_caches()
        first = kron_coeff(15, 3, [6, 4, 4, 1], (5, 4, 3, 3))
        again = kron_coeff(15, 3, (6, 4, 4, 1), [5, 4, 3, 3])
        assert again == first == KronResult(4, METHOD_ROWS, 4)
        info = kronecker._kron_coeff.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    @pytest.mark.parametrize(
        "lam, nu", [([4, 6, 4, 1], (5, 4, 3, 3)), ((6, 4, 4, 1), [3, 5, 4, 3])]
    )
    def test_non_partition_is_refused_before_the_memo(self, lam, nu):
        clear_caches()
        with pytest.raises(DomainError, match="not a partition"):
            kron_coeff(15, 3, lam, nu)
        assert kronecker._kron_coeff.cache_info().misses == 0
