"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured scope and timing.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they complete."""

import itertools
import time

from schurkron import (
    enumerate_partitions,
    dimension,
    is_multiplicity_free,
    kron_coeff,
    kron_expand_tworow,
    kron_upper_bound,
    kronecker_tableau_count,
    lr_coefficient,
    oracle_character_coeff,
    oracle_character_kron,
    oracle_tworow_signed_coeff,
    oracle_tworow_signed_sum,
    part,
    positivity_diff,
    skew_expand,
    contains,
    tworow_tworow_coeff,
    tworow_tworow_sequence,
)
from schurkron.formulas import _direct_mfree
from schurkron.kronecker import _rule_coeff, two_row
from schurkron.verify import suite_formulas, suite_oracles, suite_theorem


def _report(number, detail):
    print(f"[acceptance] criterion {number:2d} PASS: {detail}")


def test_criterion_01_flagship_coefficient_three_routes():
    lam, nu = (6, 4, 4, 1), (5, 4, 3, 3)
    timings = {}
    start = time.perf_counter()
    rule = _rule_coeff(15, 3, lam, nu)
    timings["rule"] = time.perf_counter() - start
    start = time.perf_counter()
    lr = kron_coeff(15, 3, lam, nu)
    timings["lr"] = time.perf_counter() - start
    start = time.perf_counter()
    char = oracle_character_coeff((12, 3), lam, nu)
    timings["char"] = time.perf_counter() - start
    assert rule.value == 4 and rule.method == "tableau_rule"
    assert lr == rule
    assert char == 4
    assert all(dt < 5.0 for dt in timings.values()), timings
    _report(1, f"g = 4 on all three routes, times {timings}")


def test_criterion_02_skew_and_lr_examples():
    got = skew_expand((4, 4, 2, 2), (3, 3))
    assert got.as_dict() == {(2, 2, 1, 1): 1, (3, 2, 1): 1, (3, 3): 1}
    assert lr_coefficient((5, 4, 3), (4, 3, 2), (2, 1)) == 2
    _report(2, "skew expansion of (4,4,2,2)/(3,3) and LR coefficient 2")


def test_criterion_03_bound_strictness():
    for nu in ((4, 2, 1), (3, 2, 2)):
        assert oracle_tworow_signed_coeff(7, 3, (4, 3), nu) == 1
        assert oracle_character_coeff((4, 3), (4, 3), nu) == 1
        assert kron_upper_bound(3, (4, 3), nu) == 2
    _report(3, "s_(4,3)*s_(4,3): coefficients 1, tableau bounds 2")


def test_criterion_04_rule_exact_on_its_domain():
    start = time.perf_counter()
    # the verify suite compares the rule with the signed oracle for 1 <= n <= 12
    cases, mismatches = suite_theorem(12, 4)
    assert (cases, mismatches) == (1100, [])
    rule = kron_expand_tworow(0, 0, ())
    assert rule.expansion == oracle_tworow_signed_sum(0, 0, ())
    for n in range(0, 13):
        for p in range(0, min(4, n // 2) + 1):
            for lam in enumerate_partitions(n):
                if part(lam, 1) >= 2 * p - 1 or len(lam) >= 2 * p - 1:
                    method = kron_expand_tworow(n, p, lam).method
                    assert method in ("tableau_rule", "tableau_rule_conjugate"), (n, p, lam)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(4, f"{cases + 1} expansions equal the signed oracle in {elapsed:.1f}s")


def test_criterion_05_positivity_iff():
    start = time.perf_counter()
    cases = 0
    for p in range(1, 5):
        alphas = [
            a for a in enumerate_partitions(p) if part(a, 1) > part(a, 2)
        ]
        for n in range(1, 13):
            for lam in enumerate_partitions(n):
                for alpha in alphas:
                    if not contains(alpha, lam):
                        continue
                    cases += 1
                    flag = positivity_diff(lam, alpha).schur_positive
                    assert flag == (lam[0] >= 2 * alpha[0] - 1), (lam, alpha)
    elapsed = time.perf_counter() - start
    _report(5, f"{cases} (lam, alpha) pairs, both directions, in {elapsed:.1f}s")


def test_criterion_06_oracle_cross_agreement():
    start = time.perf_counter()
    # the verify suite compares the two oracles for 1 <= n <= 12 and every p
    cases, mismatches = suite_oracles(12, 6)
    assert (cases, mismatches) == (1538, [])
    assert oracle_tworow_signed_sum(0, 0, ()) == oracle_character_kron(two_row(0, 0), ())
    cases += 1
    dims = 0
    for n in range(1, 11):
        lams = list(enumerate_partitions(n))
        fdim = {lam: dimension(lam) for lam in lams}
        for lam, mu in itertools.product(lams, lams):
            expansion = oracle_character_kron(lam, mu)
            total = sum(c * fdim[nu] for nu, c in expansion.items_desc())
            assert total == fdim[lam] * fdim[mu], (lam, mu)
            dims += 1
    elapsed = time.perf_counter() - start
    _report(6, f"{cases} oracle pairs and {dims} dimension identities in {elapsed:.1f}s")


def test_criterion_07_multiplicity_free_classifications():
    start = time.perf_counter()
    # p = 2 exhaustively on the theorem's domain
    for n in range(6, 13):
        for lam in enumerate_partitions(n):
            verdict = is_multiplicity_free(n, 2, lam)
            assert verdict.source == "thm_p2"
            free, witness = _direct_mfree(n, 2, lam)
            assert verdict.multiplicity_free == free, (n, lam, witness)
    # the stated exceptions below the domain
    for lam in enumerate_partitions(4):
        assert _direct_mfree(4, 2, lam)[0], lam
    for lam in ((3, 2), (2, 2, 1)):
        assert _direct_mfree(5, 2, lam)[0], lam
    # p = 3 at n = 17 and 18
    for n in (17, 18):
        for lam in enumerate_partitions(n):
            verdict = is_multiplicity_free(n, 3, lam)
            assert verdict.source == "thm_p3"
            free, witness = _direct_mfree(n, 3, lam)
            assert verdict.multiplicity_free == free, (n, lam, witness)
    elapsed = time.perf_counter() - start
    _report(7, f"p=2 over n=6..12 and p=3 at n=17,18 in {elapsed:.1f}s")


def test_criterion_08_formula_grids():
    start = time.perf_counter()
    # hook, two-row, cross, nu334, p1 and rect-p2 formulas against the rule
    cases, mismatches = suite_formulas(14, 5)
    assert (cases, mismatches) == (2722, [])
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    _report(8, f"{cases} formula cases (n <= 14, p <= 5) equal the rule in {elapsed:.1f}s")


def test_criterion_09_unimodality_and_pattern():
    start = time.perf_counter()
    sequences = 0
    for n in range(4, 21):
        for s in range(2, n // 2 + 1):
            for p in range(1, s):
                if n - s < 2 * p - 1 or n - p < 2 * s - 1:
                    continue
                seq = tworow_tworow_sequence(n, p, s)
                values = [e.value for e in seq.entries]
                if all(e.source == "corollary" for e in seq.entries):
                    assert seq.unimodal, (n, p, s, values)
                    sequences += 1
                    if n - p >= 2 * s:
                        want = [
                            min(i, 2 * p - i) // 2 + 1 for i in range(2 * p + 1)
                        ]
                        assert values == want, (n, p, s, values)
    # a floor(p/2)+1 center value, checked against the character oracle
    assert tworow_tworow_coeff(12, 2, 3, 3) == 2
    assert oracle_character_coeff((10, 2), (9, 3), (9, 3)) == 2
    center_spots = [(13, 2, 4), (16, 3, 5), (20, 4, 6)]
    for n, p, s in center_spots:
        want = oracle_character_coeff(two_row(n, p), (n - s, s), (n - s, s))
        assert tworow_tworow_coeff(n, p, s, s) == want == p // 2 + 1
    elapsed = time.perf_counter() - start
    _report(9, f"{sequences} fully-covered sequences unimodal in {elapsed:.1f}s")


def test_criterion_10_large_n_certificates():
    start = time.perf_counter()
    lam, nu = (19, 19), (19, 17, 2)
    k31 = kronecker_tableau_count(lam, (3, 1), nu)
    k22 = kronecker_tableau_count(lam, (2, 2), nu)
    assert k31 >= 1 and k22 >= 1
    assert k31 + k22 >= 2
    g = oracle_tworow_signed_coeff(38, 4, lam, nu)
    assert g >= 2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        10,
        f"n=38: k_(3,1)+k_(2,2) = {k31 + k22} >= 2 and oracle g = {g} in {elapsed:.1f}s",
    )
