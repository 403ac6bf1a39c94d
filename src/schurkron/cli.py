"""Command-line interface.

Subcommands: kron, skew, lr, positivity, mfree, formula (hook, tworow, seq,
nu334, rect-p2, p1) and verify.  Plain output prints one ``nu : coeff`` line
per term, descending lex, after one ``#`` metadata line; ``--json`` emits one
compact JSON object with coefficients as decimal strings.  Exit codes:
0 ok, 2 parse error, 3 domain violation, 4 verification failure.  A reader
that closes stdout early (``| head``) changes no exit code, 0 for an
answer, and leaves no traceback: the rest of the output is dropped.

Every ``_cmd_*`` handler computes and returns ``(record, header, body)``:
``record`` is the JSON object, ``header`` the plain ``#`` line (``None``
means every key of the record but ``terms``) and ``body`` the plain lines
after it.  Only ``main`` writes stdout, and ``record["ok"] is False`` makes
it exit 4.  stdout is byte-identical across repeated invocations; timing
goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import formulas
from .expansion import SchurExpansion
from .formulas import TworowSequence, is_multiplicity_free
from .kronecker import (
    METHOD_ORACLE,
    _route,
    _rule_coeff,
    kron_coeff,
    kron_expand_tworow,
    kron_upper_bound,
    two_row,
)
from .oracle import (
    oracle_character_coeff,
    oracle_character_kron,
    oracle_tworow_signed_coeff,
    oracle_tworow_signed_sum,
)
from .partitions import (
    DomainError,
    PartitionParseError,
    check_tworow_args,
    enumerate_partitions,
    format_partition,
    parse_partition,
)
from .skew import positivity_diff, skew_expand
from .tableaux import lr_coefficient
from .verify import SUITES, WorkerCountError, worker_count

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4

MAX_SWEEP_N = 30
"""Largest n of ``mfree --sweep``, which answers for each of the p(n)
partitions of n (p(30) = 5,604).  Off the classifications' domains each
answer is a capped expansion: at n = 28 a sweep took 0.6 s at p = 4 and
219 s at p = 6, in one process on a 2-core Xeon with Python 3.11.  A far
larger n could not build the basic shapes it compares lam with."""

# formula kind -> (function in ``formulas``, positionals, help).  The function
# is looked up by name at call time, so wrappers installed over the module's
# globals see the call.
FORMULAS = {
    "hook": ("hook_coeff", ("n", "p", "s", "nu"), "coefficient in s_(n-p,p) * s_(n-s,1^s)"),
    "tworow": ("tworow_target_coeff", ("n", "p", "lam", "t"), "coefficient of s_(n-t,t)"),
    "seq": ("tworow_tworow_sequence", ("n", "p", "s"), "two-row coefficient sequence t=s-p..s+p"),
    "nu334": ("nu_double_pair_coeff", ("n", "p", "s", "nu"), "coefficient of s_(nu1,nu2,nu3,nu3)"),
    "rect-p2": ("rect_p2_expand", ("m", "k"), "expand s_(n-2,2) * s_(m^k)"),
    "p1": ("p1_expand", ("lam",), "expand s_(n-1,1) * s_lam"),
}


def _plain(value) -> str:
    if isinstance(value, (list, tuple)):
        return format_partition(tuple(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _meta(record: dict, keys=None) -> str:
    """``key=value`` pairs of the record (or of ``keys``) for a ``#`` line."""
    return " ".join(f"{k}={_plain(record[k])}" for k in keys or record if k != "terms")


def _terms(record: dict, expansion: SchurExpansion) -> list[str]:
    """Attach the expansion to the record as ``terms``; return its plain lines."""
    items = expansion.items_desc()
    record["terms"] = [{"nu": list(nu), "coeff": str(c)} for nu, c in items]
    return [f"{format_partition(nu)} : {c}" for nu, c in items]


def _read(args, names, **head) -> tuple[dict, list]:
    """The record ``head`` followed by the positionals ``names`` of ``args``
    (``lam`` keyed ``lambda``), and their values with partitions parsed."""
    values = [getattr(args, name) for name in names]
    values = [parse_partition(v) if isinstance(v, str) else v for v in values]
    record = dict(head)
    for name, value in zip(names, values):
        value = list(value) if isinstance(value, tuple) else value
        record["lambda" if name == "lam" else name] = value
    return record, values


def _cmd_kron(args):
    names = ("n", "p", "lam") if args.nu is None else ("n", "p", "lam", "nu")
    record, (n, p, *shapes) = _read(args, names, command="kron")
    if args.method == "theorem":
        # refuse a lam off the rule's routes before any engine runs
        lam = check_tworow_args(n, p, *shapes)[0]
        if _route(p, lam)[0] == METHOD_ORACLE:
            raise DomainError(f"tableau rule needs lam_1 >= {2 * p - 1} or l(lam) >= {2 * p - 1}")
    if args.method in ("auto", "theorem"):
        # a theorem coefficient counts the paper's tableaux, auto's composes LR numbers
        single = _rule_coeff if args.method == "theorem" else kron_coeff
        result = (kron_expand_tworow if args.nu is None else single)(n, p, *shapes)
        method = result.method
        answer = result.expansion if args.nu is None else result.value
    elif args.method == "oracle-signed":
        method = "oracle_signed_sum"
        signed = oracle_tworow_signed_sum if args.nu is None else oracle_tworow_signed_coeff
        answer = signed(n, p, *shapes)
    else:
        method = "oracle_character"
        character = oracle_character_kron if args.nu is None else oracle_character_coeff
        answer = character(two_row(n, p), *shapes)
    record["method"] = method
    if args.nu is None:
        return record, None, _terms(record, answer)
    record.update({"value": str(answer), "upper_bound": str(kron_upper_bound(p, *shapes))})
    return record, None, [f"{format_partition(shapes[1])} : {answer}"]


def _cmd_skew(args):
    record, (lam, mu) = _read(args, ("lam", "mu"), command="skew")
    return record, None, _terms(record, skew_expand(lam, mu))


def _cmd_lr(args):
    record, shapes = _read(args, ("lam", "mu", "nu"), command="lr")
    record["value"] = str(lr_coefficient(*shapes))
    return record, None, [record["value"]]


def _cmd_positivity(args):
    record, (lam, alpha) = _read(args, ("lam", "alpha"), command="positivity")
    result = positivity_diff(lam, alpha)
    record["schur_positive"] = result.schur_positive
    return record, None, _terms(record, result.expansion)


def _cmd_mfree(args):
    if args.sweep:
        record, (n, p) = _read(args, ("n", "p"), command="mfree-sweep")
        check_tworow_args(n, p)
        if n > MAX_SWEEP_N:
            raise DomainError(f"mfree --sweep supports n <= {MAX_SWEEP_N}, got n = {n}")
        verdicts = [(lam, is_multiplicity_free(n, p, lam)) for lam in enumerate_partitions(n)]
        record["results"] = [
            {"lambda": list(lam), "multiplicity_free": v.multiplicity_free, "source": v.source}
            for lam, v in verdicts
        ]
        body = [
            f"{format_partition(lam)} : {_plain(v.multiplicity_free)} ({v.source})"
            for lam, v in verdicts
        ]
        return record, f"# mfree-sweep {_meta(record, ('n', 'p'))}", body
    if args.lam is None:
        raise PartitionParseError("mfree needs a partition unless --sweep is given")
    record, (n, p, lam) = _read(args, ("n", "p", "lam"), command="mfree")
    verdict = is_multiplicity_free(n, p, lam)
    record.update(multiplicity_free=verdict.multiplicity_free, source=verdict.source)
    line = f"multiplicity_free: {_plain(verdict.multiplicity_free)} (source: {verdict.source})"
    if verdict.witness is not None:
        nu, coeff = verdict.witness
        record["witness"] = {"nu": list(nu), "coeff": str(coeff)}
        line += f" witness {format_partition(nu)} : {coeff}"
    return record, f"# mfree {_meta(record, ('n', 'p', 'lambda'))}", [line]


def _cmd_formula(args):
    kind = args.formula_cmd
    name, names, _ = FORMULAS[kind]
    record, values = _read(args, names, command="formula", formula=kind)
    result = getattr(formulas, name)(*values)
    if isinstance(result, SchurExpansion):
        return record, None, _terms(record, result)
    if isinstance(result, TworowSequence):
        record["entries"] = [
            {"t": e.t, "value": str(e.value), "source": e.source} for e in result.entries
        ]
        record["unimodal"] = result.unimodal
        body = [f"t={e.t} : {e.value} ({e.source})" for e in result.entries]
        return record, f"# formula seq {_meta(record, (*names, 'unimodal'))}", body
    header = f"# {_meta(record)}"
    record["value"] = str(result)
    return record, header, [record["value"]]


def _cmd_verify(args):
    nmax, pmax = args.grid
    checked, mismatches = SUITES[args.suite](nmax, pmax)
    record = {"command": "verify", "suite": args.suite, "nmax": nmax, "pmax": pmax,
              "checked": checked, "ok": not mismatches}
    if mismatches:
        record["mismatches"] = mismatches[:20]
        body = [f"MISMATCH {m}" for m in mismatches[:20]]
        body.append(f"{len(mismatches)} mismatches in {checked} cases")
    else:
        body = [f"checked {checked} cases: all equal"]
    print(f"# workers {worker_count()}", file=sys.stderr)
    return record, f"# verify {_meta(record, ('suite', 'nmax', 'pmax'))}", body


def command(parent, name: str, help: str, func, *positionals: str, **options):
    """Add subcommand ``name`` that runs ``func``.  One-letter positionals are
    ints, the others partition text; a trailing ``?`` makes one optional.
    ``options`` become ``--option``s with their ``add_argument`` keywords,
    followed by ``--json``."""
    parser = parent.add_parser(name, help=help)
    for pos in positionals:
        dest = pos.rstrip("?")
        parser.add_argument(
            dest,
            metavar="lambda" if dest == "lam" else None,
            type=int if len(dest) == 1 else None,
            nargs="?" if pos.endswith("?") else None,
        )
    for option, kwargs in options.items():
        parser.add_argument(f"--{option}", **kwargs)
    parser.add_argument("--json", action="store_true", help="emit one JSON object")
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurkron",
        description="Kronecker products of Schur functions with a two-row factor",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command(
        sub, "kron", "expand s_(n-p,p) * s_lam or one coefficient",
        _cmd_kron, "n", "p", "lam",
        nu={"default": None},
        method={"choices": ["auto", "theorem", "oracle-signed", "oracle-char"], "default": "auto"},
    )
    command(sub, "skew", "expand the skew Schur function s_lam/mu", _cmd_skew, "lam", "mu")
    command(sub, "lr", "Littlewood-Richardson coefficient c^lam_mu,nu", _cmd_lr, "lam", "mu", "nu")
    command(
        sub, "positivity",
        "expand s_lam/alpha s_alpha - s_lam/alpha- s_alpha- and test positivity",
        _cmd_positivity, "lam", "alpha",
    )
    command(
        sub, "mfree", "multiplicity-freeness of s_(n-p,p) * s_lam", _cmd_mfree, "n", "p", "lam?",
        sweep={"action": "store_true", "help": "all lam |- n"},
    )
    fsub = sub.add_parser("formula", help="closed-form coefficients").add_subparsers(
        dest="formula_cmd", required=True
    )
    for kind, (_, names, help) in FORMULAS.items():
        command(fsub, kind, help, _cmd_formula, *names)
    command(
        sub, "verify", "run a cross-check grid", _cmd_verify,
        grid={"type": int, "nargs": 2, "metavar": ("NMAX", "PMAX"), "default": [8, 2]},
        suite={"choices": sorted(SUITES), "default": "theorem"},
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    started = time.perf_counter()
    try:
        record, header, body = args.func(args)
    except (PartitionParseError, WorkerCountError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        print(json.dumps(record, separators=(",", ":")) if args.json
              else "\n".join([header or f"# {_meta(record)}", *body]), flush=True)
    except BrokenPipeError:
        # the reader stopped early: what is still buffered goes to devnull, so
        # the interpreter's flush at exit stays quiet, and the exit code stands
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(f"# elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return EXIT_VERIFY if record.get("ok") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
