import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schurkron
from schurkron import verify
from schurkron.cli import main
from schurkron.partitions import enumerate_partitions
from schurkron.verify import WorkerCountError, worker_count

EXE = [sys.executable, "-m", "schurkron.cli"]
# the child processes import the same schurkron as this one
SRC = str(Path(schurkron.__file__).resolve().parent.parent)
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}
GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "golden.json").read_text()
)


def run_cli(*args):
    proc = subprocess.run(
        EXE + list(args), capture_output=True, text=True, timeout=300, env=ENV
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestKronCommand:
    def test_worked_example(self):
        rc, out, _ = run_cli("kron", "15", "3", "6,4,4,1", "--nu", "5,4,3,3")
        assert rc == 0
        assert "5,4,3,3 : 4" in out
        assert "method=tableau_rule" in out

    def test_full_expansion_sorted(self):
        rc, out, _ = run_cli("kron", "7", "3", "4,3", "--method", "oracle-signed")
        assert rc == 0
        assert "4,2,1 : 1" in out
        terms = [line.split(" : ")[0] for line in out.splitlines() if " : " in line]
        assert terms == sorted(
            terms, key=lambda s: tuple(int(x) for x in s.split(",")), reverse=True
        )

    def test_p_zero_identity(self):
        rc, out, _ = run_cli("kron", "6", "0", "3,2,1")
        assert rc == 0
        assert "3,2,1 : 1" in out

    def test_json_schema(self):
        rc, out, _ = run_cli("kron", "15", "3", "6,4,4,1", "--json")
        assert rc == 0
        record = json.loads(out)
        assert record["n"] == 15 and record["p"] == 3
        assert record["lambda"] == [6, 4, 4, 1]
        assert {"nu": [5, 4, 3, 3], "coeff": "4"} in record["terms"]
        assert record["method"] == "tableau_rule"

    def test_methods_agree(self):
        values = {}
        for method in ("auto", "theorem", "oracle-signed", "oracle-char"):
            rc, out, _ = run_cli(
                "kron", "9", "2", "4,3,2", "--nu", "5,2,2", "--method", method, "--json"
            )
            assert rc == 0
            values[method] = json.loads(out)["value"]
        assert len(set(values.values())) == 1

    def test_theorem_method_unavailable_is_domain_error(self):
        rc, _, err = run_cli("kron", "7", "3", "4,3", "--method", "theorem")
        assert rc == 3
        assert "domain" in err

    def test_parse_error_exit_2(self):
        rc, _, _ = run_cli("kron", "6", "1", "bogus")
        assert rc == 2
        rc, _, _ = run_cli("kron", "6", "1", "1,3")
        assert rc == 2

    def test_oversized_exponent_is_parse_error(self):
        rc, out, err = run_cli("kron", "6", "1", "3^99999999999")
        assert (rc, out) == (2, "")
        assert "parts" in err and "Traceback" not in err

    def test_character_oracle_size_limit_exit_3(self):
        from schurkron.oracle import MAX_CHAR_N

        n = str(MAX_CHAR_N + 1)
        for extra in ([], ["--nu", n]):
            rc, out, err = run_cli("kron", n, "2", n, "--method", "oracle-char", *extra)
            assert (rc, out) == (3, "")
            assert err.count("\n") == 1 and f"n <= {MAX_CHAR_N}" in err

    def test_domain_error_exit_3(self):
        rc, _, _ = run_cli("kron", "5", "3", "4,1")
        assert rc == 3
        rc, _, _ = run_cli("kron", "6", "2", "3,2")
        assert rc == 3


class TestOtherCommands:
    def test_skew(self):
        rc, out, _ = run_cli("skew", "4,4,2,2", "3,3")
        assert rc == 0
        assert out.splitlines()[1:] == ["3,3 : 1", "3,2,1 : 1", "2,2,1,1 : 1"]

    def test_skew_empty_inner(self):
        rc, out, _ = run_cli("skew", "3,2,1", "")
        assert rc == 0
        assert "3,2,1 : 1" in out

    def test_skew_column(self):
        rc, out, _ = run_cli("skew", "3,3,3", "1,1")
        assert rc == 0
        assert out.splitlines()[1:] == ["3,2,2 : 1"]

    def test_skew_with_many_labels(self):
        rc, out, err = run_cli("skew", "1100", "1050")
        assert rc == 0 and "Traceback" not in err
        assert out.splitlines()[1:] == ["50 : 1"]

    def test_lr(self):
        rc, out, _ = run_cli("lr", "5,4,3", "4,3,2", "2,1")
        assert rc == 0
        assert out.splitlines()[-1] == "2"

    def test_positivity(self):
        rc, out, _ = run_cli("positivity", "6,4,2,2", "3,1")
        assert rc == 0 and "schur_positive=true" in out
        rc, out, _ = run_cli("positivity", "4,4", "3,1")
        assert rc == 0 and "schur_positive=false" in out
        assert "3,2,2,1 : -1" in out
        rc, out, _ = run_cli("positivity", "5,1", "3")
        assert rc == 0 and "schur_positive=true" in out

    def test_mfree(self):
        rc, out, _ = run_cli("mfree", "6", "2", "3,3")
        assert rc == 0 and "multiplicity_free: true (source: thm_p2)" in out
        rc, out, _ = run_cli("mfree", "7", "2", "4,2,1")
        assert rc == 0 and "multiplicity_free: false" in out

    def test_mfree_sweep(self):
        rc, out, _ = run_cli("mfree", "--sweep", "8", "2", "--json")
        assert rc == 0
        record = json.loads(out)
        assert len(record["results"]) == 22
        free = {
            tuple(r["lambda"]) for r in record["results"] if r["multiplicity_free"]
        }
        assert free == {(8,), (7, 1), (4, 4), (2, 2, 2, 2), (2, 1, 1, 1, 1, 1, 1), (1,) * 8}

    def test_formula_subcommands(self):
        rc, out, _ = run_cli("formula", "hook", "10", "2", "3", "7,1,1,1")
        assert rc == 0 and out.splitlines()[-1] == "2"
        rc, out, _ = run_cli("formula", "tworow", "12", "2", "9,3", "3")
        assert rc == 0 and out.splitlines()[-1] == "2"
        rc, out, _ = run_cli("formula", "seq", "13", "2", "4", "--json")
        assert rc == 0
        record = json.loads(out)
        assert [e["value"] for e in record["entries"]] == ["1", "1", "2", "1", "1"]
        assert record["unimodal"] is True
        rc, out, _ = run_cli("formula", "nu334", "10", "3", "4", "4,2,2,2")
        assert rc == 0 and out.splitlines()[-1] == "0"
        rc, out, _ = run_cli("formula", "rect-p2", "3", "2")
        assert rc == 0 and "5,1 : 1" in out
        rc, out, _ = run_cli("formula", "p1", "3,1")
        assert rc == 0 and "2,2 : 1" in out

    def test_formula_domain_error(self):
        rc, _, _ = run_cli("formula", "hook", "10", "4", "4", "7,1,1,1")
        assert rc == 3

    def test_verify_ok(self):
        rc, out, _ = run_cli("verify", "--grid", "7", "2", "--suite", "theorem")
        assert rc == 0 and "all equal" in out

    def test_verify_json(self):
        rc, out, _ = run_cli(
            "verify", "--grid", "6", "2", "--suite", "oracles", "--json"
        )
        assert rc == 0
        record = json.loads(out)
        assert record["ok"] is True and record["checked"] > 0


class TestDeterminism:
    def test_byte_identical_runs(self):
        first = run_cli("kron", "10", "3", "5,3,2", "--json")
        second = run_cli("kron", "10", "3", "5,3,2", "--json")
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

    def test_json_round_trip(self):
        for args in (
            ("kron", "10", "3", "5,3,2", "--json"),
            ("skew", "4,4,2,2", "3,3", "--json"),
            ("mfree", "6", "2", "3,3", "--json"),
        ):
            _, out, _ = run_cli(*args)
            text = out.strip()
            assert json.dumps(json.loads(text), separators=(",", ":")) == text

    def test_worker_count_does_not_change_output(self):
        results = []
        for workers in ("1", "2"):
            proc = subprocess.run(
                EXE + ["verify", "--grid", "6", "1", "--suite", "theorem"],
                capture_output=True,
                text=True,
                timeout=300,
                env={**ENV, "SCHURKRON_WORKERS": workers},
            )
            results.append((proc.returncode, proc.stdout))
        assert results[0] == results[1]
        assert results[0][0] == 0 and "all equal" in results[0][1]

    def test_non_integer_worker_count_exits_2(self):
        proc = subprocess.run(
            EXE + ["verify", "--grid", "6", "1"],
            capture_output=True,
            text=True,
            timeout=300,
            env={**ENV, "SCHURKRON_WORKERS": "abc"},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.count("\n") == 1 and "SCHURKRON_WORKERS" in proc.stderr

    def test_worker_count_clamped_to_cpu_count(self, monkeypatch):
        # only worker_count() is called: no pool of these sizes is started
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for env, want in (("", 4), ("1", 1), ("3", 3), ("4", 4), ("1000000", 4),
                          ("0", 1), ("-7", 1), (" 2 ", 2)):
            monkeypatch.setenv("SCHURKRON_WORKERS", env)
            assert worker_count() == want, env
        monkeypatch.setenv("SCHURKRON_WORKERS", "2.5")
        with pytest.raises(WorkerCountError):
            worker_count()


class TestMainEntry:
    def test_main_returns_codes(self, capsys):
        assert main(["skew", "4,4,2,2", "3,3"]) == 0
        assert main(["skew", "2,2", "3"]) == 3
        assert main(["skew", "x", ""]) == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self):
        rc, _, _ = run_cli("nosuch")
        assert rc == 2


def run_main(capsys, *args):
    """Exit code and stdout of one in-process ``main`` call."""
    capsys.readouterr()
    code = main(list(args))
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "entry", GOLDEN["cli"], ids=[f"{i:02d}-{e['kind']}" for i, e in enumerate(GOLDEN["cli"])]
)
def test_golden_stdout(entry, capsys):
    code, out = run_main(capsys, *entry["argv"])
    assert code in entry["codes"]
    assert out == entry["stdout"]


MFREE_SWEEP_8_2 = (
    "# mfree-sweep n=8 p=2\n8 : true (thm_p2)\n7,1 : true (thm_p2)\n"
    "6,2 : false (thm_p2)\n6,1,1 : false (thm_p2)\n5,3 : false (thm_p2)\n"
    "5,2,1 : false (thm_p2)\n5,1,1,1 : false (thm_p2)\n4,4 : true (thm_p2)\n"
    "4,3,1 : false (thm_p2)\n4,2,2 : false (thm_p2)\n4,2,1,1 : false (thm_p2)\n"
    "4,1,1,1,1 : false (thm_p2)\n3,3,2 : false (thm_p2)\n3,3,1,1 : false (thm_p2)\n"
    "3,2,2,1 : false (thm_p2)\n3,2,1,1,1 : false (thm_p2)\n"
    "3,1,1,1,1,1 : false (thm_p2)\n2,2,2,2 : true (thm_p2)\n"
    "2,2,2,1,1 : false (thm_p2)\n2,2,1,1,1,1 : false (thm_p2)\n"
    "2,1,1,1,1,1,1 : true (thm_p2)\n1,1,1,1,1,1,1,1 : true (thm_p2)\n"
)
FREE_8_2 = {(8,), (7, 1), (4, 4), (2, 2, 2, 2), (2, 1, 1, 1, 1, 1, 1), (1,) * 8}


class TestPinnedStdout:
    """Byte-exact stdout for the commands that bench/golden.json leaves out."""

    def test_mfree_sweep_plain(self, capsys):
        assert run_main(capsys, "mfree", "--sweep", "8", "2") == (0, MFREE_SWEEP_8_2)

    def test_mfree_sweep_json(self, capsys):
        results = ",".join(
            '{"lambda":[%s],"multiplicity_free":%s,"source":"thm_p2"}'
            % (",".join(map(str, lam)), "true" if lam in FREE_8_2 else "false")
            for lam in enumerate_partitions(8)
        )
        want = '{"command":"mfree-sweep","n":8,"p":2,"results":[%s]}\n' % results
        assert run_main(capsys, "mfree", "--sweep", "8", "2", "--json") == (0, want)

    def test_verify_plain(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHURKRON_WORKERS", "1")
        want = "# verify suite=theorem nmax=7 pmax=2\nchecked 124 cases: all equal\n"
        assert run_main(capsys, "verify", "--grid", "7", "2") == (0, want)

    def test_verify_json(self, capsys, monkeypatch):
        monkeypatch.setenv("SCHURKRON_WORKERS", "1")
        want = (
            '{"command":"verify","suite":"oracles","nmax":6,"pmax":2,'
            '"checked":80,"ok":true}\n'
        )
        got = run_main(capsys, "verify", "--grid", "6", "2", "--suite", "oracles", "--json")
        assert got == (0, want)


MISMATCHES = [
    "n=3 p=1 lam=(2, 1): rule (tableau_rule) != signed oracle",
    "n=4 p=2 lam=(2, 2): rule (tableau_rule_conjugate) != signed oracle",
]


class TestVerifyFailure:
    """A suite that reports mismatches makes ``verify`` exit 4."""

    @pytest.fixture(autouse=True)
    def failing_suite(self, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "theorem", lambda nmax, pmax: (5, MISMATCHES))

    def test_plain(self, capsys):
        want = (
            "# verify suite=theorem nmax=4 pmax=2\n"
            "MISMATCH n=3 p=1 lam=(2, 1): rule (tableau_rule) != signed oracle\n"
            "MISMATCH n=4 p=2 lam=(2, 2): rule (tableau_rule_conjugate) != signed oracle\n"
            "2 mismatches in 5 cases\n"
        )
        assert run_main(capsys, "verify", "--grid", "4", "2") == (4, want)

    def test_json(self, capsys):
        want = (
            '{"command":"verify","suite":"theorem","nmax":4,"pmax":2,"checked":5,'
            '"ok":false,"mismatches":["n=3 p=1 lam=(2, 1): rule (tableau_rule) '
            '!= signed oracle","n=4 p=2 lam=(2, 2): rule (tableau_rule_conjugate) '
            '!= signed oracle"]}\n'
        )
        assert run_main(capsys, "verify", "--grid", "4", "2", "--json") == (4, want)
