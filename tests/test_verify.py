"""Each ``verify`` check reports a wrong engine with its exact message; the
grouped suites check every case once and report in grid order."""

import pytest

from schurkron import verify
from schurkron.expansion import SchurExpansion
from schurkron.kronecker import METHOD_ORACLE, _route
from schurkron.partitions import conjugate, enumerate_partitions, part

EMPTY = SchurExpansion({})


def grid(nmax, pmax):
    """Every (n, p, lam) of a verify grid, in the order the suites report."""
    return [
        (n, p, lam)
        for n in range(1, nmax + 1)
        for p in range(0, min(pmax, n // 2) + 1)
        for lam in enumerate_partitions(n)
    ]


# the grouped checks take (n, work, lams, top) and report (case, message)
# pairs for p = 0..top; this group holds lam = (3, 1) and its conjugate
GROUP = (4, (3, 1), ((3, 1), (2, 1, 1)), 1)
CASES = [(4, 0, (3, 1)), (4, 0, (2, 1, 1)), (4, 1, (3, 1)), (4, 1, (2, 1, 1))]

# check -> (its arguments, the engine it compares, a wrong answer, the message)
MISMATCHES = {
    "theorem": (
        verify._check_theorem, GROUP, "_signed_ladder", [{}] * 2,
        list(zip(CASES, [
            "n=4 p=0 lam=(3, 1): rule (tableau_rule) != signed oracle",
            "n=4 p=0 lam=(2, 1, 1): rule (tableau_rule) != signed oracle",
            "n=4 p=1 lam=(3, 1): rule (tableau_rule) != signed oracle",
            "n=4 p=1 lam=(2, 1, 1): rule (tableau_rule) != signed oracle",
        ])),
    ),
    "oracles": (
        verify._check_oracles, GROUP, "oracle_character_kron", EMPTY,
        list(zip(CASES, [
            "n=4 p=0 lam=(3, 1): signed oracle != character oracle",
            "n=4 p=0 lam=(2, 1, 1): signed oracle != character oracle",
            "n=4 p=1 lam=(3, 1): signed oracle != character oracle",
            "n=4 p=1 lam=(2, 1, 1): signed oracle != character oracle",
        ])),
    ),
    "hook": (verify._check_hook, (8, 2, 3), "hook_coeff", -1, "hook n=8 p=2 s=3 nu=(8,)"),
    "tworow": (
        verify._check_tworow, (8, 2, (5, 3)), "tworow_target_coeff", -1,
        "tworow n=8 p=2 lam=(5, 3) t=0",
    ),
    "tworow2": (
        verify._check_tworow2, (8, 2, 3), "tworow_tworow_coeff", -1, "tworow2 n=8 p=2 s=3 t=0",
    ),
    "nu334": (
        verify._check_nu334, (10, 2, 3, (4, 2, 2, 2)), "nu_double_pair_coeff", -1,
        "nu334 n=10 p=2 s=3 nu=(4, 2, 2, 2)",
    ),
    "rectp2": (verify._check_rectp2, (3, 2), "rect_p2_expand", EMPTY, "rect-p2 m=3 k=2"),
    "p1": (verify._check_p1, ((3, 1),), "p1_expand", EMPTY, "p1 lam=(3, 1)"),
}


@pytest.mark.parametrize("check, args, engine, wrong, message", MISMATCHES.values(), ids=MISMATCHES)
def test_check_reports_a_wrong_engine(check, args, engine, wrong, message, monkeypatch):
    assert not check(*args)
    monkeypatch.setattr(verify, engine, lambda *_: wrong)
    assert check(*args) == message


def test_run_keeps_mismatches_in_task_order(monkeypatch):
    monkeypatch.setenv("SCHURKRON_WORKERS", "1")
    monkeypatch.setattr(verify, "p1_expand", lambda *_: EMPTY)
    tasks = [(verify._check_p1, ((2, 1),)), (verify._check_rectp2, (3, 2)), (verify._check_p1, ((3,),))]
    assert verify._run(tasks) == (3, ["p1 lam=(2, 1)", "p1 lam=(3,)"])


@pytest.mark.parametrize("workers", ["1", "2"])
def test_grouped_suites_report_mismatches_in_grid_order(workers, monkeypatch):
    # every case fails; the pool forks, so its workers inherit the patches
    monkeypatch.setenv("SCHURKRON_WORKERS", workers)
    monkeypatch.setattr(verify, "_signed_ladder", lambda work, pmax: [{}] * (pmax + 1))
    cases = grid(8, 3)
    rule = [(n, p, lam) for n, p, lam in cases if _route(p, lam)[0] != METHOD_ORACLE]
    want = [f"n={n} p={p} lam={lam}: rule ({_route(p, lam)[0]}) != signed oracle" for n, p, lam in rule]
    assert verify.suite_theorem(8, 3) == (len(rule), want)
    monkeypatch.undo()
    monkeypatch.setenv("SCHURKRON_WORKERS", workers)
    monkeypatch.setattr(verify, "oracle_character_kron", lambda *_: EMPTY)
    want = [f"n={n} p={p} lam={lam}: signed oracle != character oracle" for n, p, lam in cases]
    assert verify.suite_oracles(8, 3) == (len(cases), want)


def test_each_shape_is_signed_once_by_the_oracle(monkeypatch):
    # work and its conjugate at each p: the conjugate is transposed by
    # oracle._signed, as oracle_tworow_signed_sum does, and by nothing else
    calls = []
    signed = verify._signed

    def logged(top, below, tall):
        calls.append(tall)
        return signed(top, below, tall)

    monkeypatch.setattr(verify, "_signed", logged)
    assert verify._check_theorem(*GROUP) == []
    assert calls == [False, True, False, True]


@pytest.mark.parametrize(
    "suite, nmax, pmax, cases",
    [
        ("theorem", 14, 5, 2273),
        ("oracles", 14, 5, 2877),
        ("theorem", 12, 4, 1100),
        ("oracles", 12, 6, 1538),
    ],
)
def test_grouped_suites_check_every_case_once(suite, nmax, pmax, cases, monkeypatch):
    # the count is of (n, p, lam) cases, not of groups; each group is one
    # (n, work) and checks work and its conjugate at the same p, which are
    # exactly the grid's cases (on the rule's routes, for the theorem suite)
    monkeypatch.setenv("SCHURKRON_WORKERS", "1")
    seen = []

    def check(n, work, lams, top):
        assert len(work) <= part(work, 1) and lams in ((work,), (work, conjugate(work)))
        seen.extend((n, p, lam) for p in range(top + 1) for lam in lams)
        return []

    monkeypatch.setattr(verify, f"_check_{suite}", check)
    assert verify.SUITES[suite](nmax, pmax) == (cases, [])
    want = grid(nmax, pmax)
    if suite == "theorem":
        want = [(n, p, lam) for n, p, lam in want if _route(p, lam)[0] != METHOD_ORACLE]
    assert sorted(seen) == sorted(want) and len(want) == cases
