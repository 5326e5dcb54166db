"""Command-line surface.

Exit codes: 0 success, 1 domain error (budget, bad input data, a failed
certificate), 2 usage error.  Output is deterministic for fixed flags; CSV
is the machine format, aligned columns the human one.  Only `asymptotics`,
`table1` and `selftest` import `asympt`, and with it mpmath, which would
otherwise be about half of every command's start-up.

One table, COMMANDS, lists each command with its handler, its help and its
arguments, and `parse` reads a command line against it as argparse would
(the same values, usage errors and messages; `tests/test_cli_parse.py`
holds the two to that), without building argparse's tree of parsers, and
its gettext lookups, on every command.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

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

    # --upto is checked before any certificate runs, even where nothing
    # reads it; the fit and the plot are made before printing, so that a
    # bad --emit-plot path prints nothing
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


DESCRIPTION = ("Exact enumeration and asymptotics of compacted and relaxed binary "
               "trees (hash-consed DAGs) of bounded right height.")
REQUIRED = object()  # the default of an argument that must be given
FAMILY = ("relaxed", "compacted")

# command: (handler, help, arguments).  An argument is (name, kind, default,
# help), kind one of int, str (a file), a tuple of choices and bool (a
# switch); a name without leading dashes is the command's one positional.
# `parse` reads this table, and the help and the usage lines are drawn from it.
COMMANDS = {
    "compact": (_cmd_compact, "hash-cons a tree file into a DAG", (
        ("file", str, REQUIRED, "s-expression tree file"),)),
    "enumerate": (_cmd_enumerate, "exhaustively generate DAGs", (
        ("--n", int, REQUIRED, ""),
        ("--max-right-height", int, None, ""),
        ("--kind", FAMILY, "relaxed", ""),
        ("--count-only", bool, False, ""),
        ("--emit", str, None, ""),
        ("--budget", int, None, "object budget (default 10^8)"))),
    "count": (_cmd_count, "counts from the exact tables", (
        ("--kind", FAMILY, REQUIRED, ""),
        ("--n", int, REQUIRED, ""),
        ("--table", bool, False, "dump the full table as CSV"))),
    "sequence": (_cmd_sequence, "stream bounded-right-height counts", (
        ("--family", FAMILY, REQUIRED, ""),
        ("--k", int, REQUIRED, ""),
        ("--upto", int, REQUIRED, ""),
        ("--csv", bool, False, ""))),
    "operator": (_cmd_operator, "print a family operator", (
        ("--family", ("L", "M", *FAMILY), REQUIRED, ""),
        ("--k", int, REQUIRED, ""),
        ("--latex", bool, False, ""))),
    "asymptotics": (_cmd_asymptotics, "singularity data and constant fits", (
        ("--k", int, REQUIRED, ""),
        ("--family", FAMILY, REQUIRED, ""),
        ("--fit", bool, False, ""),
        ("--upto", int, 2000, ""),
        ("--emit-plot", str, None, "write (n, u_n) pairs as CSV"))),
    "table1": (_cmd_table1, "growth/exponent table for k = 1..7", ()),
    "selftest": (_cmd_selftest, "cross-oracle consistency suite", ()),
}
HELP = ("-h", "--help")


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _invocation(arg) -> str:
    """`--n N`, `--kind {relaxed,compacted}`, `--table` or `file`."""
    name, kind = arg[:2]
    if kind is bool or not name.startswith("-"):
        return name
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return f"{name} {'FILE' if kind is str else _dest(name).upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"compacta [-h] {{{','.join(COMMANDS)}}} ..."
    args = COMMANDS[command][2]
    flags = [_invocation(a) if a[2] is REQUIRED else f"[{_invocation(a)}]"
             for a in args if a[0].startswith("-")]
    positionals = [a[0] for a in args if not a[0].startswith("-")]
    return " ".join(("compacta", command, "[-h]", *flags, *positionals))


def _fail(command: str | None, message: str):
    """A usage error, as argparse reports it: exit 2."""
    prog = "compacta" if command is None else f"compacta {command}"
    sys.stderr.write(f"usage: {_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _help(command: str | None, option: str, explicit: str | None):
    """Print the help and exit 0, unless the option came with a value:
    `-hh` is two helps; `-hx`, `-h=` and `--help=x` are usage errors."""
    if explicit is not None:
        rest = explicit.lstrip("h") if option == "-h" and explicit else explicit
        if rest or not explicit:
            _fail(command, f"argument -h/--help: ignored explicit argument {rest!r}")
    if command is None:
        head, rows = f"{DESCRIPTION}\n\ncommands:", [(c, v[1]) for c, v in COMMANDS.items()]
    else:
        head = f"{COMMANDS[command][1]}\n\narguments:"
        rows = [(_invocation(a), a[3]) for a in COMMANDS[command][2]]
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in rows)
    print(f"usage: {_usage(command)}\n\n{head}",
          *(f"  {left:<{width}}  {text}".rstrip() for left, text in rows), sep="\n")
    raise SystemExit(0)


def _read(arg: str, options, command: str | None):
    """How argparse reads one argument against its parser's options: None
    for a positional, else (option, the value given with it or None), with
    option None when unknown.  A long option may be shortened to any prefix
    that matches it alone."""
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in options:
        return arg, None
    head, eq, value = arg.partition("=")
    if eq and head in options:
        return head, value
    if arg[1] == "-":
        found = [(o, value if eq else None) for o in options if o.startswith(head)]
    else:  # -hVALUE
        found = [(o, arg[2:]) for o in options if o == arg[:2]]
    if len(found) > 1:
        _fail(command, f"ambiguous option: {arg} could match "
                       f"{', '.join(o for o, _ in found)}")
    if found:
        return found[0]
    # argparse reads a negative number, or anything with a blank, as a value
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None
    return None, None


def _parse_command(command: str, argv: list[str], values: dict) -> list[str]:
    """Read a command's arguments into values; returns the unrecognized ones.

    Every argument after the first `--` is a positional one.  That `--` is
    dropped next to the command's positional argument, and is unrecognized
    anywhere else.
    """
    args = COMMANDS[command][2]
    options = dict.fromkeys(HELP) | {a[0]: a[1] for a in args if a[0].startswith("-")}
    positional = next((a[0] for a in args if not a[0].startswith("-")), None)
    end = argv.index("--") if "--" in argv else len(argv)
    read = [_read(arg, options, command) for arg in argv[:end]] + [None] * (len(argv) - end)
    seen, extras = set(), []
    i = 0
    while i < len(argv):
        if read[i] is None:
            j = i + (i == end)  # the positional's value, past a leading `--`
            if positional is not None and positional not in seen and j < len(argv):
                values[positional] = argv[j]
                seen.add(positional)
                i = j + 1 + (j + 1 == end)  # and past a trailing one
            else:
                extras.append(argv[i])
                i += 1
            continue
        option, value = read[i]
        kind = options.get(option)
        if option is None:
            extras.append(argv[i])
        elif option in HELP:
            _help(command, option, value)
        elif kind is bool:
            if value is not None:
                _fail(command, f"argument {option}: ignored explicit argument {value!r}")
            values[_dest(option)] = True
        else:
            if value is None:
                if i + 1 in (len(argv), end) or read[i + 1] is not None:
                    _fail(command, f"argument {option}: expected one argument")
                i += 1
                value = argv[i]
            if isinstance(kind, tuple) and value not in kind:
                _fail(command, f"argument {option}: invalid choice: {value!r} "
                               f"(choose from {', '.join(map(repr, kind))})")
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _fail(command, f"argument {option}: invalid int value: {value!r}")
            values[_dest(option)] = value
        seen.add(option)
        i += 1
    missing = [a[0] for a in args if a[2] is REQUIRED and a[0] not in seen]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return extras


def parse(argv: list[str]) -> SimpleNamespace:
    """The arguments of a command line, read as argparse reads them with one
    subparser per command of COMMANDS: the same values, and the same usage
    errors, exit 2, with the same messages.  -h or --help prints the help
    and exits 0."""
    extras = []
    for i, arg in enumerate(argv):
        read = None if arg == "--" else _read(arg, HELP, None)
        if read is None:
            break
        if read[0] is None:
            extras.append(arg)
        else:
            _help(None, *read)
    else:
        i = len(argv)
    if argv[i:] in ([], ["--"]):  # a `--` needs a command after it
        _fail(None, "the following arguments are required: command")
    command = argv[i]
    if command not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, COMMANDS))})")
    values = {"command": command}
    values.update((_dest(name), None if default is REQUIRED else default)
                  for name, _, default, _ in COMMANDS[command][2])
    extras += _parse_command(command, argv[i + 1:], values)
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def run(argv: list[str] | None = None) -> int:
    args = parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return COMMANDS[args.command][0](args)
    except (BudgetExceededError, dfinite.IntegralityError, dfinite.CertificationError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
