"""`cli.parse` against the argparse tree it replaced (`references`).

The corpus is every argv the benchmark draws (first rounds of all four
workloads, seeds 1-3), the README examples, every argv display in
`test_cli.py` and a few with no command, plus seeded mutants of each: `--flag=value`, prefixes,
repeated flags, negative ints, missing, unknown and extra arguments, `--`,
bad ints and choices, and help.  On each argv both parsers give the same values,
or both exit with the same code; on a usage error (exit 2) stderr holds the
same usage, up to line wrapping, and the same `prog: error: ...` line.
"""

import ast
import contextlib
import importlib.util
import io
import random
import shlex
import sys
from itertools import islice
from pathlib import Path

import pytest

from compacta.cli import COMMANDS, parse, run
from references import build_argparse_parser

ROOT = Path(__file__).resolve().parents[1]
SEED = 43
ROUNDS = 2  # per workload and seed
MUTANTS = 16  # per base argv


def _workload_argvs() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [list(job.argv)
            for name in workloads.WORKLOADS for seed in (1, 2, 3)
            for jobs in islice(workloads.rounds(name, seed), ROUNDS) for job in jobs]


def _readme_argvs() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("compacta ")]


def _flag_kinds(command: str) -> dict:
    return {name: kind for name, kind, _, _ in COMMANDS.get(command, ("", "", ()))[2]}


def _test_cli_argvs() -> list[list[str]]:
    """Every list display in test_cli.py that starts with a command; an
    element that is not a constant takes a valid value for the flag before
    it, and a starred one is left out."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    argvs = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.List) and node.elts
                and isinstance(node.elts[0], ast.Constant) and node.elts[0].value in COMMANDS):
            continue
        kinds, argv = _flag_kinds(node.elts[0].value), []
        for elt in node.elts:
            if isinstance(elt, ast.Constant):
                argv.append(elt.value)
            elif not isinstance(elt, ast.Starred):
                kind = kinds.get(argv[-1], str)
                argv.append(kind[0] if isinstance(kind, tuple) else
                            "3" if kind is int else "FILE")
        argvs.append(argv)
    return argvs


def _mutant(argv: list[str], rng: random.Random) -> list[str]:
    """argv after one seeded edit, or two."""
    argv = _edit(argv, rng)
    return _edit(argv, rng) if rng.random() < 0.3 else argv


def _edit(argv: list[str], rng: random.Random) -> list[str]:
    kinds = _flag_kinds(argv[0]) if argv else {}
    argv = list(argv)
    flags = [i for i, a in enumerate(argv) if a in kinds]
    valued = [i for i in flags if kinds[argv[i]] is not bool and i + 1 < len(argv)]
    ints = [i + 1 for i in valued if kinds[argv[i]] is int]
    choices = [i + 1 for i in valued if isinstance(kinds[argv[i]], tuple)]
    at = rng.randrange(len(argv) + 1)
    edit = rng.choice(("eq", "prefix", "repeat", "negative", "drop", "drop value",
                       "unknown", "extra", "around", "double dash", "bad int", "bad choice",
                       "help", "command"))
    if edit == "eq" and valued:
        i = rng.choice(valued)
        argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif edit == "prefix" and flags:
        i = rng.choice(flags)
        argv[i] = argv[i][:rng.randrange(3, len(argv[i]) + 1)]
        if rng.random() < 0.3 and i + 1 < len(argv) and i in valued:
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif edit == "repeat" and flags:
        i = rng.choice(flags)
        argv += argv[i:i + 1 + (i in valued)]
    elif edit == "negative" and ints:
        i = rng.choice(ints)
        argv[i] = rng.choice((f"-{argv[i]}", "-1", "-0"))
    elif edit == "drop" and flags:
        i = rng.choice(flags)
        del argv[i:i + 1 + (i in valued)]
    elif edit == "drop value" and valued:
        del argv[rng.choice(valued) + 1]
    elif edit == "unknown":
        argv.insert(at, rng.choice(("--bogus", "--bogus=1", "-x", "-n", "--k-max")))
    elif edit == "extra":
        argv.insert(max(at, 1), rng.choice(("extra", "3", "-5", "-", "")))
    elif edit == "around":
        argv = [rng.choice(("--bogus", "-x")), *argv, "extra"]
    elif edit == "double dash":
        argv.insert(max(at, 1), "--")
    elif edit == "bad int" and ints:
        argv[rng.choice(ints)] = rng.choice(("x", "1.5", "", "0x10", "1e3", "-", "--"))
    elif edit == "bad choice" and choices:
        i = rng.choice(choices)
        argv[i] = rng.choice(("bogus", argv[i].upper(), argv[i][:3], ""))
    elif edit == "help":
        argv.insert(at, rng.choice(("-h", "--help", "--he", "-hh", "-hx", "-h=", "--help=1")))
    elif edit == "command" and argv:
        argv[0] = rng.choice(("bogus", argv[0][:3], argv[0].upper(), "-h", "--", ""))
        if rng.random() < 0.2:
            del argv[0]
    return argv


def corpus() -> list[list[str]]:
    bases = []
    bare = [[], ["--"], ["--bogus", "--"], ["-x", "count", "--"]]
    for argv in _workload_argvs() + _readme_argvs() + _test_cli_argvs() + bare:
        if argv not in bases:
            bases.append(argv)
    rng = random.Random(SEED)
    return bases + [_mutant(argv, rng) for argv in bases for _ in range(MUTANTS)]


def outcome(parse_args, argv):
    """("ok", values) or ("exit", code, usage, error line)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return "ok", vars(parse_args(list(argv)))
    except SystemExit as exc:
        *usage, error = err.getvalue().splitlines() or [""]
        return "exit", exc.code, " ".join(" ".join(usage).split()), error


CORPUS = corpus()


def test_the_corpus_reaches_every_outcome():
    reference = build_argparse_parser()
    outcomes = [outcome(reference.parse_args, argv) for argv in CORPUS]
    assert len(CORPUS) > 1500
    assert sum(o[0] == "ok" for o in outcomes) > 300
    assert sum(o[:2] == ("exit", 0) for o in outcomes) > 30
    messages = " ".join(o[3] for o in outcomes if o[0] == "exit")
    for wording in ("the following arguments are required: ", "invalid choice: ",
                    "invalid int value: ", "unrecognized arguments: ",
                    "expected one argument", "ambiguous option: ",
                    "ignored explicit argument "):
        assert wording in messages


def _double_dash_value(argv) -> bool:
    return any(arg.startswith("-") and arg.endswith("=--") for arg in argv)


def test_parse_agrees_with_argparse_on_the_corpus():
    reference = build_argparse_parser()
    differ = [(argv, ours, theirs) for argv in CORPUS if not _double_dash_value(argv)
              if (ours := outcome(parse, argv)) != (theirs := outcome(reference.parse_args, argv))]
    assert differ == []


# argparse drops a `--` given as `--flag=--` and stores [] for the flag, so
# that `sequence` crashed, `count` took [] for a kind and `enumerate` ignored
# --emit.  parse takes that `--` as the value: the one place the two part.
@pytest.mark.parametrize("argv, dest, error", [
    (["sequence", "--family", "relaxed", "--k=--", "--upto", "5"], "k",
     "compacta sequence: error: argument --k: invalid int value: '--'"),
    (["count", "--kind=--", "--n", "3"], "kind",
     "compacta count: error: argument --kind: invalid choice: '--' "
     "(choose from 'relaxed', 'compacted')"),
    (["enumerate", "--n", "2", "--emit=--"], "emit", None),
])
def test_a_double_dash_given_with_equals_is_the_value(argv, dest, error):
    assert _double_dash_value(argv)
    assert getattr(build_argparse_parser().parse_args(argv), dest) == []
    got = outcome(parse, argv)
    if error is None:
        assert got[0] == "ok" and got[1][dest] == "--"
    else:
        assert got[:2] == ("exit", 2) and got[3] == error


@pytest.mark.parametrize("argv", [["--help"], ["-h"]] + [[c, "--help"] for c in COMMANDS])
def test_help_names_every_command_flag_and_help_string(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: compacta {argv[0] if len(argv) == 2 else '[-h]'}")
    if len(argv) == 1:
        names = [text for command, (_, help_, _) in COMMANDS.items() for text in (command, help_)]
    else:
        _, help_, args = COMMANDS[argv[0]]
        names = [help_] + [text for name, _, _, text in args for text in (name, text) if text]
    assert [name for name in names if name not in out] == []


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--bogus"], ["--"]])
def test_no_command_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: compacta [-h] {compact,enumerate,")
    assert captured.err.splitlines()[-1].startswith("compacta: error: ")

