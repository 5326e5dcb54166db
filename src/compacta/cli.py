"""Command-line surface.

Exit codes: 0 success, 1 domain error (budget, bad input data, a failed
certificate), 2 usage error.  Output is deterministic for fixed flags; CSV
is the machine format, aligned columns the human one.  Only `asymptotics`,
`table1` and `selftest` import `asympt`, and with it mpmath, which would
otherwise be about half of every command's start-up.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal
from fractions import Fraction

from . import dfinite, exhaustive, recurrences
from .compaction import uid_compact
from .exhaustive import BudgetExceededError
from .operators import build_operator, format_operator
from .recurrences import check_upto
from .trees import dag_to_text

# `count --n` prints big-int counts past the default int->str guard
# (`sequence` prints Decimals, which the guard does not limit)
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(10_000_000)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compacta",
        description="Exact enumeration and asymptotics of compacted and "
        "relaxed binary trees (hash-consed DAGs) of bounded right height.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compact", help="hash-cons a tree file into a DAG")
    p.add_argument("file", help="s-expression tree file")

    p = sub.add_parser("enumerate", help="exhaustively generate DAGs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-right-height", type=int, default=None)
    p.add_argument("--kind", choices=("relaxed", "compacted"), default="relaxed")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--emit", metavar="FILE", default=None)
    p.add_argument("--budget", type=int, default=None,
                   help="object budget (default 10^8)")

    p = sub.add_parser("count", help="counts from the exact tables")
    p.add_argument("--kind", choices=("relaxed", "compacted"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--table", action="store_true", help="dump the full table as CSV")

    p = sub.add_parser("sequence", help="stream bounded-right-height counts")
    p.add_argument("--family", choices=("relaxed", "compacted"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("operator", help="print a family operator")
    p.add_argument("--family", choices=("L", "M", "relaxed", "compacted"),
                   required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--latex", action="store_true")

    p = sub.add_parser("asymptotics", help="singularity data and constant fits")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--family", choices=("relaxed", "compacted"), required=True)
    p.add_argument("--fit", action="store_true")
    p.add_argument("--upto", type=int, default=2000)
    p.add_argument("--emit-plot", metavar="FILE", default=None,
                   help="write (n, u_n) pairs as CSV")

    sub.add_parser("table1", help="growth/exponent table for k = 1..7")
    sub.add_parser("selftest", help="cross-oracle consistency suite")
    return parser


def _cmd_compact(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        dag_text, table = uid_compact(fh.read())
    rows = (f"{label if label is not None else ''},{ul},{ur},{uid}"
            for (label, ul, ur), uid in table.rows)
    print("\n".join(("label,uid_left,uid_right,uid", *rows, dag_text)))
    return 0


def _cmd_enumerate(args) -> int:
    if args.count_only and args.kind == "relaxed":
        # product shortcut; no object is materialized
        print(exhaustive.count_relaxed_spine_product(args.n, args.max_right_height,
                                                     args.budget))
        return 0
    if args.count_only:
        print(exhaustive.brute_count(args.n, args.kind, args.max_right_height, args.budget))
        return 0
    dags = exhaustive.generate(args.n, args.kind, args.max_right_height, args.budget)
    if args.emit:
        count = 0
        with open(args.emit, "w", encoding="utf-8") as fh:
            for dag in dags:
                fh.write(dag_to_text(dag) + "\n")
                count += 1
        print(count)
        return 0
    for dag in dags:
        print(dag_to_text(dag))
    return 0


def _cmd_count(args) -> int:
    if not args.table:
        print(recurrences.word_counts(args.kind, args.n)[args.n])
        return 0
    table = recurrences.build_table(args.kind, args.n)
    print("n,p,value")
    # one print per row, not per entry; one for the whole table would hold its text
    for n, row in enumerate(table.rows):
        print("\n".join(f"{n},{p},{v}" for p, v in enumerate(row)))
    return 0


def _cmd_sequence(args) -> int:
    """Print each count as the stream computes it, in exact Decimal.

    Only the recurrence window is held, not the whole sequence.  Every
    check runs when the stream is built, before the first line, so a
    command either prints every term or exits 1 with empty stdout.
    """
    values = dfinite.sequence_values(args.k, args.family, args.upto, num=Decimal)
    if args.csv:
        print("n,value")
        for n, v in enumerate(values):
            print(f"{n},{v}")
    else:
        width = len(str(args.upto))
        for n, v in enumerate(values):
            print(f"{n:>{width}} {v}")
    return 0


def _cmd_operator(args) -> int:
    op = build_operator(args.family, args.k)
    print(format_operator(op, latex=args.latex))
    return 0


def _cmd_asymptotics(args) -> int:
    from . import asympt

    # --upto is checked before any certificate runs; the fit and the plot
    # are made before printing, so that a bad --emit-plot path prints nothing
    if args.fit or args.emit_plot:
        check_upto(args.upto, 2 if args.fit else 1)
    data = asympt.singularity_data(args.k, args.family)
    fit = asympt.fit_constant(data, args.upto) if args.fit else None
    if args.emit_plot:
        rows = asympt.scaled_ratios(data, range(1, args.upto + 1))
        with open(args.emit_plot, "w", encoding="utf-8") as fh:
            fh.write("n,u\n" + "".join(f"{n},{float(u)!r}\n" for n, u in rows))
    print(f"k: {data.k}")
    print(f"family: {data.family}")
    print(f"rho: {float(data.rho):.12f}")
    print(f"growth: {float(data.growth):.12f}")
    for name, value in (("delta1", data.delta1), ("exponent", data.exponent)):
        if isinstance(value, Fraction):
            print(f"{name}: {value} ({float(value):.12f})")
        else:
            print(f"{name}: {float(value):.12f}")
    roots = ", ".join(
        str(r) if isinstance(r, (int, Fraction)) else f"{float(r):.9f}"
        for r in data.indicial_roots
    )
    print(f"indicial roots: [{roots}]")
    if fit is not None:
        print(f"constant estimate: {fit.estimate:.9f}")
        for n, u in fit.ladder:
            print(f"  u({n}) = {u:.9f}")
        if not fit.converged:
            prev, last = fit.extrapolants[-2:]
            print(f"warning: constant fit for k={data.k} {data.family} not converged: "
                  f"last extrapolants {prev:.6g}, {last:.6g}", file=sys.stderr)
    return 0


def _cmd_table1(args) -> int:
    from . import asympt

    rows = asympt.table1()
    print(f"{'k':>2} {'growth':>20} {'~':>7} {'alpha':>34} {'~':>7} "
          f"{'beta':>5} {'~':>7} {'check':>5}")
    ok = True
    for r in rows:
        status = "PASS" if r.matches_reference else "FAIL"
        ok = ok and r.matches_reference
        print(f"{r.k:>2} {r.growth_expr:>20} {r.growth:>7.3f} {r.alpha_expr:>34} "
              f"{r.alpha:>7.3f} {str(r.beta):>5} {r.beta_float:>7.1f} {status:>5}")
    return 0 if ok else 1


def _cmd_selftest(args) -> int:
    from . import asympt

    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    ct = recurrences.build_table("compacted", 9)
    rt = recurrences.build_table("relaxed", 9)
    check("compacted counts n<=9",
          ct.counts() == [1, 1, 3, 15, 111, 1119, 14487, 230943, 4395855, 97608831])
    check("relaxed counts n<=9",
          rt.counts() == [1, 1, 3, 16, 127, 1363, 18628, 311250, 6173791, 142190703])
    check("spine product = relaxed table",
          [exhaustive.count_relaxed_spine_product(n) for n in range(10)] == rt.counts())

    brute = [(exhaustive.brute_count(n, "relaxed"), exhaustive.brute_count(n, "compacted"))
             for n in range(6)]
    check("brute force n<=5", brute == [(rt.count(n), ct.count(n)) for n in range(6)])

    strm_ok = True
    for fam in ("relaxed", "compacted"):
        for k in range(0, 4):
            vals = list(dfinite.sequence_values(k, fam, 5))
            bf = [exhaustive.brute_count(n, fam, max_right_height=k) for n in range(6)]
            strm_ok = strm_ok and vals == bf
    check("streams = height-filtered brute force (k<=3, n<=5)", strm_ok)

    cf_ok = True
    for (k, fam) in ((0, "relaxed"), (1, "relaxed"), (2, "relaxed"), (1, "compacted")):
        vals = list(dfinite.sequence_values(k, fam, 20))
        cf_ok = cf_ok and all(
            dfinite.closed_form_oracle(k, fam, n) == vals[n] for n in range(21)
        )
    check("closed forms n<=20", cf_ok)

    from .operators import coeff_recurrences_check
    check("operator coefficient recurrences k<=12", coeff_recurrences_check(12) is None)

    check("growth/exponent table", all(r.matches_reference for r in asympt.table1()))
    print(f"{'-' * 40}\n{'OK' if failures == 0 else f'{failures} FAILURES'}")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "compact": _cmd_compact,
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "sequence": _cmd_sequence,
    "operator": _cmd_operator,
    "asymptotics": _cmd_asymptotics,
    "table1": _cmd_table1,
    "selftest": _cmd_selftest,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (BudgetExceededError, dfinite.IntegralityError, dfinite.CertificationError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
