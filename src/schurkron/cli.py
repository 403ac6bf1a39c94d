"""Command-line interface.

Subcommands: kron, skew, lr, positivity, mfree, formula (hook, tworow, seq,
nu334, rect-p2, p1) and verify.  Plain output prints one ``nu : coeff`` line
per term, descending lex, after ``#`` metadata lines; ``--json`` emits one
compact JSON object with coefficients as decimal strings.  Exit codes:
0 ok, 2 parse error, 3 domain violation, 4 verification failure.

stdout is byte-identical across repeated invocations; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .expansion import SchurExpansion
from .formulas import (
    hook_coeff,
    is_multiplicity_free,
    nu_double_pair_coeff,
    p1_expand,
    rect_p2_expand,
    tworow_target_coeff,
    tworow_tworow_sequence,
)
from .kronecker import (
    METHOD_CONJUGATE,
    METHOD_ROWS,
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


def _dump(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def _terms_json(expansion: SchurExpansion) -> list[dict]:
    return [
        {"nu": list(nu), "coeff": str(c)} for nu, c in expansion.items_desc()
    ]


def _print_terms(expansion: SchurExpansion) -> None:
    for nu, c in expansion.items_desc():
        print(f"{format_partition(nu)} : {c}")


def _emit(record: dict, expansion: SchurExpansion | None, as_json: bool) -> None:
    if as_json:
        if expansion is not None:
            record["terms"] = _terms_json(expansion)
        print(_dump(record))
        return
    meta = " ".join(
        f"{k}={_plain(v)}" for k, v in record.items() if k != "terms"
    )
    print(f"# {meta}")
    if expansion is not None:
        _print_terms(expansion)


def _plain(value) -> str:
    if isinstance(value, (list, tuple)):
        return format_partition(tuple(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _cmd_kron(args) -> int:
    lam = parse_partition(args.lam)
    n, p = args.n, args.p
    record: dict = {"command": "kron", "n": n, "p": p, "lambda": list(lam)}
    if args.nu is None:
        if args.method in ("auto", "theorem"):
            result = kron_expand_tworow(n, p, lam)
            if args.method == "theorem" and result.method not in (
                METHOD_ROWS,
                METHOD_CONJUGATE,
            ):
                raise DomainError(
                    f"tableau rule needs lam_1 >= {2 * p - 1} or l(lam) >= {2 * p - 1}"
                )
            expansion, method = result.expansion, result.method
        elif args.method == "oracle-signed":
            expansion, method = oracle_tworow_signed_sum(n, p, lam), "oracle_signed_sum"
        else:
            if sum(lam) != n or 2 * p > n:
                raise DomainError("need lam |- n and 2p <= n")
            expansion, method = oracle_character_kron(two_row(n, p), lam), "oracle_character"
        record["method"] = method
        _emit(record, expansion, args.json)
        return EXIT_OK
    nu = parse_partition(args.nu)
    record["nu"] = list(nu)
    if args.method in ("auto", "theorem"):
        result = kron_coeff(n, p, lam, nu)
        if args.method == "theorem" and result.method not in (
            METHOD_ROWS,
            METHOD_CONJUGATE,
        ):
            raise DomainError(
                f"tableau rule needs lam_1 >= {2 * p - 1} or l(lam) >= {2 * p - 1}"
            )
        value, method, upper = result.value, result.method, result.upper_bound
    elif args.method == "oracle-signed":
        value, method = oracle_tworow_signed_coeff(n, p, lam, nu), "oracle_signed_sum"
        upper = kron_upper_bound(p, lam, nu)
    else:
        if sum(lam) != n or sum(nu) != n or 2 * p > n:
            raise DomainError("need lam, nu |- n and 2p <= n")
        value, method = oracle_character_coeff(two_row(n, p), lam, nu), "oracle_character"
        upper = kron_upper_bound(p, lam, nu)
    record.update({"method": method, "value": str(value), "upper_bound": str(upper)})
    if args.json:
        print(_dump(record))
    else:
        meta = " ".join(f"{k}={_plain(v)}" for k, v in record.items())
        print(f"# {meta}")
        print(f"{format_partition(nu)} : {value}")
    return EXIT_OK


def _cmd_skew(args) -> int:
    lam, mu = parse_partition(args.lam), parse_partition(args.mu)
    expansion = skew_expand(lam, mu)
    _emit(
        {"command": "skew", "lambda": list(lam), "mu": list(mu)},
        expansion,
        args.json,
    )
    return EXIT_OK


def _cmd_lr(args) -> int:
    lam, mu, nu = (parse_partition(x) for x in (args.lam, args.mu, args.nu))
    value = lr_coefficient(lam, mu, nu)
    record = {
        "command": "lr",
        "lambda": list(lam),
        "mu": list(mu),
        "nu": list(nu),
        "value": str(value),
    }
    if args.json:
        print(_dump(record))
    else:
        print(f"# {' '.join(f'{k}={_plain(v)}' for k, v in record.items())}")
        print(value)
    return EXIT_OK


def _cmd_positivity(args) -> int:
    lam, alpha = parse_partition(args.lam), parse_partition(args.alpha)
    result = positivity_diff(lam, alpha)
    record = {
        "command": "positivity",
        "lambda": list(lam),
        "alpha": list(alpha),
        "schur_positive": result.schur_positive,
    }
    _emit(record, result.expansion, args.json)
    return EXIT_OK


def _cmd_mfree(args) -> int:
    from .partitions import enumerate_partitions

    if args.sweep:
        n, p = args.n, args.p
        results = []
        for lam in enumerate_partitions(n):
            verdict = is_multiplicity_free(n, p, lam)
            results.append((lam, verdict))
        if args.json:
            record = {
                "command": "mfree-sweep",
                "n": n,
                "p": p,
                "results": [
                    {
                        "lambda": list(lam),
                        "multiplicity_free": v.multiplicity_free,
                        "source": v.source,
                    }
                    for lam, v in results
                ],
            }
            print(_dump(record))
        else:
            print(f"# mfree-sweep n={n} p={p}")
            for lam, v in results:
                print(
                    f"{format_partition(lam)} : "
                    f"{'true' if v.multiplicity_free else 'false'} ({v.source})"
                )
        return EXIT_OK
    if args.lam is None:
        raise PartitionParseError("mfree needs a partition unless --sweep is given")
    lam = parse_partition(args.lam)
    verdict = is_multiplicity_free(args.n, args.p, lam)
    record: dict = {
        "command": "mfree",
        "n": args.n,
        "p": args.p,
        "lambda": list(lam),
        "multiplicity_free": verdict.multiplicity_free,
        "source": verdict.source,
    }
    if verdict.witness is not None:
        nu, coeff = verdict.witness
        record["witness"] = {"nu": list(nu), "coeff": str(coeff)}
    if args.json:
        print(_dump(record))
    else:
        line = (
            f"multiplicity_free: {'true' if verdict.multiplicity_free else 'false'}"
            f" (source: {verdict.source})"
        )
        if verdict.witness is not None:
            nu, coeff = verdict.witness
            line += f" witness {format_partition(nu)} : {coeff}"
        print(f"# mfree n={args.n} p={args.p} lambda={format_partition(lam)}")
        print(line)
    return EXIT_OK


def _cmd_formula(args) -> int:
    kind = args.formula_cmd
    if kind == "hook":
        nu = parse_partition(args.nu)
        value = hook_coeff(args.n, args.p, args.s, nu)
        record = {
            "command": "formula",
            "formula": "hook",
            "n": args.n,
            "p": args.p,
            "s": args.s,
            "nu": list(nu),
            "value": str(value),
        }
    elif kind == "tworow":
        lam = parse_partition(args.lam)
        value = tworow_target_coeff(args.n, args.p, lam, args.t)
        record = {
            "command": "formula",
            "formula": "tworow",
            "n": args.n,
            "p": args.p,
            "lambda": list(lam),
            "t": args.t,
            "value": str(value),
        }
    elif kind == "seq":
        seq = tworow_tworow_sequence(args.n, args.p, args.s)
        record = {
            "command": "formula",
            "formula": "seq",
            "n": args.n,
            "p": args.p,
            "s": args.s,
            "entries": [
                {"t": e.t, "value": str(e.value), "source": e.source}
                for e in seq.entries
            ],
            "unimodal": seq.unimodal,
        }
        if args.json:
            print(_dump(record))
        else:
            print(f"# formula seq n={args.n} p={args.p} s={args.s} unimodal={_plain(seq.unimodal)}")
            for e in seq.entries:
                print(f"t={e.t} : {e.value} ({e.source})")
        return EXIT_OK
    elif kind == "nu334":
        nu = parse_partition(args.nu)
        value = nu_double_pair_coeff(args.n, args.p, args.s, nu)
        record = {
            "command": "formula",
            "formula": "nu334",
            "n": args.n,
            "p": args.p,
            "s": args.s,
            "nu": list(nu),
            "value": str(value),
        }
    elif kind == "rect-p2":
        expansion = rect_p2_expand(args.m, args.k)
        _emit(
            {"command": "formula", "formula": "rect-p2", "m": args.m, "k": args.k},
            expansion,
            args.json,
        )
        return EXIT_OK
    else:  # p1
        lam = parse_partition(args.lam)
        expansion = p1_expand(lam)
        _emit(
            {"command": "formula", "formula": "p1", "lambda": list(lam)},
            expansion,
            args.json,
        )
        return EXIT_OK
    if args.json:
        print(_dump(record))
    else:
        print(f"# {' '.join(f'{k}={_plain(v)}' for k, v in record.items() if k != 'value')}")
        print(record["value"])
    return EXIT_OK


def _cmd_verify(args) -> int:
    nmax, pmax = args.grid
    suite = SUITES[args.suite]
    checked, mismatches = suite(nmax, pmax)
    record: dict = {
        "command": "verify",
        "suite": args.suite,
        "nmax": nmax,
        "pmax": pmax,
        "checked": checked,
        "ok": not mismatches,
    }
    if mismatches:
        record["mismatches"] = mismatches[:20]
    print(f"# workers {worker_count()}", file=sys.stderr)
    if args.json:
        print(_dump(record))
    else:
        print(f"# verify suite={args.suite} nmax={nmax} pmax={pmax}")
        if mismatches:
            for m in mismatches[:20]:
                print(f"MISMATCH {m}")
            print(f"{len(mismatches)} mismatches in {checked} cases")
        else:
            print(f"checked {checked} cases: all equal")
    return EXIT_OK if not mismatches else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurkron",
        description="Kronecker products of Schur functions with a two-row factor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit one JSON object")

    p_kron = sub.add_parser("kron", help="expand s_(n-p,p) * s_lam or one coefficient")
    p_kron.add_argument("n", type=int)
    p_kron.add_argument("p", type=int)
    p_kron.add_argument("lam", metavar="lambda")
    p_kron.add_argument("--nu", default=None)
    p_kron.add_argument(
        "--method",
        choices=["auto", "theorem", "oracle-signed", "oracle-char"],
        default="auto",
    )
    add_json(p_kron)
    p_kron.set_defaults(func=_cmd_kron)

    p_skew = sub.add_parser("skew", help="expand the skew Schur function s_lam/mu")
    p_skew.add_argument("lam", metavar="lambda")
    p_skew.add_argument("mu")
    add_json(p_skew)
    p_skew.set_defaults(func=_cmd_skew)

    p_lr = sub.add_parser("lr", help="Littlewood-Richardson coefficient c^lam_mu,nu")
    p_lr.add_argument("lam", metavar="lambda")
    p_lr.add_argument("mu")
    p_lr.add_argument("nu")
    add_json(p_lr)
    p_lr.set_defaults(func=_cmd_lr)

    p_pos = sub.add_parser(
        "positivity",
        help="expand s_lam/alpha s_alpha - s_lam/alpha- s_alpha- and test positivity",
    )
    p_pos.add_argument("lam", metavar="lambda")
    p_pos.add_argument("alpha")
    add_json(p_pos)
    p_pos.set_defaults(func=_cmd_positivity)

    p_mf = sub.add_parser("mfree", help="multiplicity-freeness of s_(n-p,p) * s_lam")
    p_mf.add_argument("--sweep", action="store_true", help="all lam |- n")
    p_mf.add_argument("n", type=int)
    p_mf.add_argument("p", type=int)
    p_mf.add_argument("lam", metavar="lambda", nargs="?", default=None)
    add_json(p_mf)
    p_mf.set_defaults(func=_cmd_mfree)

    p_f = sub.add_parser("formula", help="closed-form coefficients")
    fsub = p_f.add_subparsers(dest="formula_cmd", required=True)

    f_hook = fsub.add_parser("hook", help="coefficient in s_(n-p,p) * s_(n-s,1^s)")
    for name in ("n", "p", "s"):
        f_hook.add_argument(name, type=int)
    f_hook.add_argument("nu")
    add_json(f_hook)

    f_tworow = fsub.add_parser("tworow", help="coefficient of s_(n-t,t)")
    f_tworow.add_argument("n", type=int)
    f_tworow.add_argument("p", type=int)
    f_tworow.add_argument("lam", metavar="lambda")
    f_tworow.add_argument("t", type=int)
    add_json(f_tworow)

    f_seq = fsub.add_parser("seq", help="two-row coefficient sequence t=s-p..s+p")
    for name in ("n", "p", "s"):
        f_seq.add_argument(name, type=int)
    add_json(f_seq)

    f_nu = fsub.add_parser("nu334", help="coefficient of s_(nu1,nu2,nu3,nu3)")
    for name in ("n", "p", "s"):
        f_nu.add_argument(name, type=int)
    f_nu.add_argument("nu")
    add_json(f_nu)

    f_rect = fsub.add_parser("rect-p2", help="expand s_(n-2,2) * s_(m^k)")
    f_rect.add_argument("m", type=int)
    f_rect.add_argument("k", type=int)
    add_json(f_rect)

    f_p1 = fsub.add_parser("p1", help="expand s_(n-1,1) * s_lam")
    f_p1.add_argument("lam", metavar="lambda")
    add_json(f_p1)

    p_f.set_defaults(func=_cmd_formula)

    p_v = sub.add_parser("verify", help="run a cross-check grid")
    p_v.add_argument("--grid", type=int, nargs=2, metavar=("NMAX", "PMAX"), default=[8, 2])
    p_v.add_argument("--suite", choices=sorted(SUITES), default="theorem")
    add_json(p_v)
    p_v.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    started = time.perf_counter()
    try:
        code = args.func(args)
    except (PartitionParseError, WorkerCountError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(f"# elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
