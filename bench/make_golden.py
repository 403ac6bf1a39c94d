"""Regenerate ``bench/golden.json``: the command pools and their golden stdout.

    python3 bench/make_golden.py

Each pool entry is a ``schurkron`` command line, the exit codes the README
documents for it, and the stdout the CLI prints for it.  Commands that must
succeed, or fail with a documented code, get the stdout of the current CLI,
after the current exit code is confirmed to be allowed.  The one command
known to crash today (a huge exponent, MemoryError, exit 1) keeps its
documented codes and empty stdout, so the benchmark counts it as failed.

cli-oneshot draws ``mix[kind]`` commands of each kind per seed; verify-grid
runs the three suites at the benchmark's grid.
"""

from __future__ import annotations

import json

import workloads as wl

OK = [0]
PARSE = [2]
DOMAIN = [3]
# A partition this large is outside every domain; the README allows either a
# parse error or a domain error for it.
HUGE = [2, 3]

POOLS: dict[str, list[tuple[list[str], list[int]]]] = {
    "kron-coeff": [
        (["kron", "15", "3", "6,4,4,1", "--nu", "5,4,3,3"], OK),
        (["kron", "12", "2", "5,4,3", "--nu", "5,4,2,1"], OK),
        (["kron", "16", "3", "7,5,3,1", "--nu", "6,5,3,2"], OK),
        (["kron", "20", "4", "8,6,4,2", "--nu", "8,5,4,3"], OK),
        (["kron", "18", "3", "4,4,3,3,2,2", "--nu", "4,4,3,3,3,1"], OK),
        (["kron", "14", "3", "4,4,3,3", "--nu", "4,4,3,2,1"], OK),
        (["kron", "22", "4", "9,6,4,3", "--nu", "9,6,4,2,1"], OK),
        (["kron", "10", "2", "4,3,2,1", "--nu", "4,3,2,1"], OK),
        (["kron", "24", "5", "10,7,4,3", "--nu", "9,7,5,3"], OK),
        (["kron", "13", "2", "3^2,2^2,1^3", "--nu", "3,3,2,2,2,1"], OK),
        (["kron", "17", "3", "6,5,4,2", "--nu", "6,5,3,2,1", "--method", "oracle-signed"], OK),
        (["kron", "12", "2", "5,4,3", "--nu", "5,4,3", "--method", "oracle-char"], OK),
    ],
    "kron-coeff-json": [
        (["kron", "15", "3", "6,4,4,1", "--nu", "5,4,3,3", "--json"], OK),
        (["kron", "19", "3", "7,6,4,2", "--nu", "7,5,4,2,1", "--json"], OK),
        (["kron", "21", "4", "8,6,4,3", "--nu", "8,6,3,3,1", "--json"], OK),
        (["kron", "16", "3", "3,3,3,3,2,2", "--nu", "3,3,3,3,3,1", "--json"], OK),
        (["kron", "14", "3", "4,4,3,3", "--nu", "4,4,3,3", "--json"], OK),
        (["kron", "12", "2", "6,3,3", "--nu", "5,4,2,1", "--method", "theorem", "--json"], OK),
        (["kron", "10", "2", "4,3,2,1", "--nu", "4,3,2,1", "--method", "oracle-char", "--json"], OK),
        (["kron", "18", "4", "7,5,4,2", "--nu", "7,5,3,2,1", "--json"], OK),
    ],
    "kron-expand": [
        (["kron", "7", "3", "4,3"], OK),
        (["kron", "10", "2", "5,3,2"], OK),
        (["kron", "9", "3", "4,3,2"], OK),
        (["kron", "12", "2", "6,4,2"], OK),
        (["kron", "8", "2", "3,3,2"], OK),
        (["kron", "11", "3", "5,3,2,1"], OK),
        (["kron", "7", "3", "4,3", "--method", "oracle-signed"], OK),
        (["kron", "8", "2", "4,2,2", "--method", "theorem"], OK),
    ],
    "kron-expand-json": [
        (["kron", "7", "3", "4,3", "--json"], OK),
        (["kron", "10", "2", "4,3,3", "--json"], OK),
        (["kron", "9", "2", "5,2,2", "--json"], OK),
        (["kron", "8", "3", "3,3,2", "--json"], OK),
        (["kron", "10", "3", "4,3,2,1", "--json"], OK),
        (["kron", "8", "2", "4,2,2", "--method", "oracle-char", "--json"], OK),
    ],
    "skew": [
        (["skew", "4,4,2,2", "3,3"], OK),
        (["skew", "5,4,3", "2,1"], OK),
        (["skew", "6,4,3,1", "3,2"], OK),
        (["skew", "5,5,3", "3,2", "--json"], OK),
        (["skew", "4,3,3,2", "2,2", "--json"], OK),
        (["skew", "6,5,2", "4,1"], OK),
    ],
    "lr": [
        (["lr", "5,4,3", "4,3,2", "2,1"], OK),
        (["lr", "6,5,4", "4,3,2", "3,2,1"], OK),
        (["lr", "5,4,2", "3,2", "3,2,1"], OK),
        (["lr", "6,4,3,1", "4,2,1", "3,2,2"], OK),
        (["lr", "5,3,2", "3,2", "3,2", "--json"], OK),
        (["lr", "7,5,3", "5,3", "4,2,1", "--json"], OK),
    ],
    "positivity": [
        (["positivity", "6,4,2,2", "3,1"], OK),
        (["positivity", "7,5,3", "3,1"], OK),
        (["positivity", "5,4,3", "3,2"], OK),
        (["positivity", "6,5,2", "4,2", "--json"], OK),
        (["positivity", "8,4,2", "3"], OK),
        (["positivity", "5,5,2,1", "3,1,1", "--json"], OK),
    ],
    # every entry is on the direct-computation domain (no classification applies)
    "mfree": [
        (["mfree", "12", "3", "6,4,2"], OK),
        (["mfree", "10", "3", "4,3,3"], OK),
        (["mfree", "14", "3", "5,4,3,2"], OK),
        (["mfree", "9", "3", "3,3,3", "--json"], OK),
        (["mfree", "16", "4", "6,5,3,2"], OK),
        (["mfree", "13", "4", "4,4,3,2", "--json"], OK),
    ],
    "formula": [
        (["formula", "hook", "10", "2", "3", "7,1,1,1"], OK),
        (["formula", "hook", "12", "3", "4", "8,2,1,1", "--json"], OK),
        (["formula", "tworow", "12", "2", "6,4,2", "3"], OK),
        (["formula", "tworow", "14", "3", "7,4,2,1", "4", "--json"], OK),
        (["formula", "seq", "13", "2", "4"], OK),
        (["formula", "seq", "16", "3", "5", "--json"], OK),
        (["formula", "nu334", "14", "2", "4", "6,4,2,2"], OK),
        (["formula", "nu334", "16", "3", "5", "7,5,2,2", "--json"], OK),
        (["formula", "rect-p2", "3", "2"], OK),
        (["formula", "rect-p2", "4", "3", "--json"], OK),
        (["formula", "p1", "5,3,2"], OK),
        (["formula", "p1", "4,4,2,1", "--json"], OK),
    ],
    "parse-error": [
        (["kron", "6", "1", "3,x"], PARSE),
        (["kron", "6", "1", "2,3,1"], PARSE),
        (["skew", "4,,2", "1"], PARSE),
        (["lr", "1,0,1", "1", "1"], PARSE),
        (["kron", "six", "1", "3,3"], PARSE),
        (["positivity", "5,4", "--bogus"], PARSE),
    ],
    "domain-error": [
        (["kron", "7", "1", "3,3"], DOMAIN),
        (["kron", "6", "4", "3,3"], DOMAIN),
        (["skew", "3,2", "4"], DOMAIN),
        (["positivity", "5,4", "2,2"], DOMAIN),
        (["mfree", "6", "0", "3,3"], DOMAIN),
        (["formula", "nu334", "14", "2", "4", "6,4,3,1"], DOMAIN),
    ],
    "huge-exponent": [
        (["kron", "6", "1", "3^99999999999"], HUGE),
    ],
}

MIX = {
    "kron-coeff": 6,
    "kron-coeff-json": 4,
    "kron-expand": 4,
    "kron-expand-json": 3,
    "skew": 3,
    "lr": 3,
    "positivity": 3,
    "mfree": 3,
    "formula": 6,
    "parse-error": 2,
    "domain-error": 2,
    "huge-exponent": 1,
}

# Known crash at the time the pools were written; its golden entry keeps the
# documented codes and empty stdout.
KNOWN_CRASHES = {("kron", "6", "1", "3^99999999999")}


def golden_entry(kind: str, argv: list[str], codes: list[int]) -> dict:
    code, stdout = wl.run_cli_subprocess(argv)
    if tuple(argv) in KNOWN_CRASHES:
        stdout = b""
    elif code not in codes:
        raise SystemExit(f"{argv}: exit {code}, the pool allows {codes}")
    return {"kind": kind, "argv": argv, "codes": codes, "stdout": stdout.decode()}


def main() -> None:
    golden = {
        "mix": MIX,
        "cli": [golden_entry(kind, argv, codes) for kind, pool in POOLS.items() for argv, codes in pool],
        "verify": [
            golden_entry("verify", ["verify", "--grid", *wl.VERIFY_GRID, "--suite", suite], OK)
            for suite in wl.VERIFY_SUITES
        ],
    }
    with open(wl.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
