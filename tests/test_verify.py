"""Each ``verify`` check reports a wrong engine with its exact message."""

import pytest

from schurkron import verify
from schurkron.expansion import SchurExpansion

EMPTY = SchurExpansion({})

# check -> (its arguments, the engine it compares, a wrong answer, the message)
MISMATCHES = {
    "theorem": (
        verify._check_theorem, (6, 2, (4, 2)), "oracle_tworow_signed_sum", EMPTY,
        "n=6 p=2 lam=(4, 2): rule (tableau_rule) != signed oracle",
    ),
    "oracles": (
        verify._check_oracles, (6, 2, (4, 2)), "oracle_character_kron", EMPTY,
        "n=6 p=2 lam=(4, 2): signed oracle != character oracle",
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
    assert check(*args) is None
    monkeypatch.setattr(verify, engine, lambda *_: wrong)
    assert check(*args) == message


def test_run_keeps_mismatches_in_task_order(monkeypatch):
    monkeypatch.setenv("SCHURKRON_WORKERS", "1")
    monkeypatch.setattr(verify, "p1_expand", lambda *_: EMPTY)
    tasks = [(verify._check_p1, ((2, 1),)), (verify._check_rectp2, (3, 2)), (verify._check_p1, ((3,),))]
    assert verify._run(tasks) == (3, ["p1 lam=(2, 1)", "p1 lam=(3,)"])
