import decimal
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import pytest

from compacta import asympt, cli, dfinite, operators
from compacta.cli import run
from compacta.operators import DiffOperator
from compacta.poly import IntPoly
from compacta.recurrences import build_table
from compacta.trees import dag_from_text


def out_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_count_compacted_five(capsys):
    assert run(["count", "--kind", "compacted", "--n", "5"]) == 0
    assert out_lines(capsys) == ["1119"]


def test_count_table_dump(capsys):
    assert run(["count", "--kind", "relaxed", "--n", "2", "--table"]) == 0
    lines = out_lines(capsys)
    assert lines[0] == "n,p,value"
    assert "0,0,1" in lines and "1,1,4" in lines and "2,0,3" in lines


# `count --n 5 --table` as printed by the table engine before `count --n`
# moved to the word DP
TABLE_FIVE = {
    "compacted": "0,0,1 0,1,2 0,2,3 0,3,4 0,4,5 0,5,6 1,0,1 1,1,3 1,2,7 1,3,13 1,4,21 "
                 "2,0,3 2,1,15 2,2,49 2,3,117 3,0,15 3,1,111 3,2,483 4,0,111 4,1,1119 "
                 "5,0,1119",
    "relaxed": "0,0,1 0,1,2 0,2,3 0,3,4 0,4,5 0,5,6 1,0,1 1,1,4 1,2,9 1,3,16 1,4,25 "
               "2,0,3 2,1,20 2,2,63 2,3,144 3,0,16 3,1,156 3,2,648 4,0,127 4,1,1664 "
               "5,0,1363",
}


@pytest.mark.parametrize("kind", ["compacted", "relaxed"])
def test_count_contract(kind, capsys):
    assert run(["count", "--kind", kind, "--n", "0"]) == 0
    assert out_lines(capsys) == ["1"]
    assert run(["count", "--kind", kind, "--n", "60"]) == 0
    assert out_lines(capsys) == [str(build_table(kind, 60).count(60))]
    assert run(["count", "--kind", kind, "--n", "5", "--table"]) == 0
    assert out_lines(capsys) == ["n,p,value"] + TABLE_FIVE[kind].split()


@pytest.mark.parametrize("kind", ["compacted", "relaxed"])
@pytest.mark.parametrize("n", [0, 1, 40, 80])
def test_count_table_equals_the_per_line_form(kind, n, capsys):
    assert run(["count", "--kind", kind, "--n", str(n), "--table"]) == 0
    table = build_table(kind, n)
    want = "n,p,value\n" + "".join(
        f"{m},{p},{table.value(m, p)}\n" for m in range(n + 1) for p in range(n - m + 1))
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("table", [[], ["--table"]])
def test_count_rejects_negative_n(table, capsys):
    assert run(["count", "--kind", "compacted", "--n", "-1", *table]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: nmax must be >= 0\n"


def test_sequence_relaxed_one(capsys):
    assert run(["sequence", "--family", "relaxed", "--k", "1", "--upto", "4"]) == 0
    values = [line.split()[1] for line in out_lines(capsys)]
    assert values == ["1", "1", "3", "15", "105"]


def test_sequence_relaxed_zero_is_factorials(capsys):
    assert run(["sequence", "--family", "relaxed", "--k", "0", "--upto", "20"]) == 0
    values = [int(line.split()[1]) for line in out_lines(capsys)]
    assert values == [factorial(n) for n in range(21)]


def test_sequence_csv(capsys):
    assert run(["sequence", "--family", "compacted", "--k", "1", "--upto", "3",
                "--csv"]) == 0
    assert out_lines(capsys) == ["n,value", "0,1", "1,1", "2,3", "3,14"]


@pytest.mark.parametrize("family", ["relaxed", "compacted"])
@pytest.mark.parametrize("k", [0, 1, 2, 5, 12])
def test_sequence_prints_the_int_counts(k, family, capsys):
    values = list(dfinite.sequence_values(k, family, 400))
    argv = ["sequence", "--family", family, "--k", str(k), "--upto", "400"]
    assert run(argv) == 0
    assert capsys.readouterr().out == "".join(
        f"{n:>3} {v}\n" for n, v in enumerate(values))
    assert run([*argv, "--csv"]) == 0
    assert capsys.readouterr().out == "n,value\n" + "".join(
        f"{n},{v}\n" for n, v in enumerate(values))


def test_sequence_leaves_the_decimal_context_alone(capsys):
    ctx = decimal.getcontext()
    before = repr(ctx)
    assert run(["sequence", "--family", "compacted", "--k", "3", "--upto", "50"]) == 0
    assert decimal.getcontext() is ctx and repr(ctx) == before


def _doubled_leading(real):
    # p_d doubled: p_d(0) = 2, so the count form would need a division
    def corrupted(family, k):
        op = real(family, k)
        return DiffOperator(*op.coeffs[:-1], 2 * op.coeffs[-1])
    return corrupted


def _half_seed(real):
    # the last seed count off by one half
    def corrupted(kind, nmax):
        counts = real(kind, nmax).counts()
        counts[-1] += Fraction(1, 2)
        return SimpleNamespace(counts=lambda: counts)
    return corrupted


@pytest.mark.parametrize("name, corrupt, err", [
    ("build_operator", _doubled_leading, "error: p_3(0) = 2 is not +-1\n"),
    ("build_table", _half_seed, "error: seed c_2 = 7/2 is not an integer\n"),
], ids=["doubled_q0", "half_seed"])
def test_sequence_with_a_corrupt_recurrence_prints_nothing(name, corrupt, err,
                                                           monkeypatch, capsys):
    # every check runs when the stream is built, before the first line
    monkeypatch.setattr(dfinite, name, corrupt(getattr(dfinite, name)))
    assert run(["sequence", "--family", "relaxed", "--k", "3", "--upto", "10"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


def test_sequence_rejects_an_operator_step_corrupted_past_selftest(monkeypatch, capsys):
    # index 20 lies past selftest's k <= 12, and the corrupted recurrence
    # streams integers: only the check against the word counts catches it
    real = operators._compacted_coefficients_step

    def corrupted(prev, prev2, k):
        out = real(prev, prev2, k)
        return out[:1] + (out[1] + IntPoly(1),) + out[2:] if k == 20 else out

    monkeypatch.setattr(operators, "_compacted_coefficients_step", corrupted)
    assert run(["selftest"]) == 0
    capsys.readouterr()
    assert run(["sequence", "--family", "compacted", "--k", "25", "--upto", "40"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: stream disagrees with the word counts at n = 26\n")


def test_sequence_rejects_a_seed_off_by_one(monkeypatch, capsys):
    def off_by_one(kind, nmax):
        counts = build_table(kind, nmax).counts()
        counts[-1] += 1
        return SimpleNamespace(counts=lambda: counts)

    monkeypatch.setattr(dfinite, "build_table", off_by_one)
    assert run(["sequence", "--family", "relaxed", "--k", "3", "--upto", "10"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: stream disagrees with the word counts at n = 2\n")


def test_operator_plain(capsys):
    assert run(["operator", "--family", "L", "--k", "1"]) == 0
    assert out_lines(capsys) == ["(-1)*D^0 + (1 - 2z)*D^1"]


def test_operator_latex(capsys):
    assert run(["operator", "--family", "M", "--k", "1", "--latex"]) == 0
    assert "D^{2}" in out_lines(capsys)[0]


def test_table1_all_pass(capsys):
    assert run(["table1"]) == 0
    lines = out_lines(capsys)
    assert len(lines) == 8  # header + 7 rows
    assert all(line.endswith("PASS") for line in lines[1:])


def test_enumerate_count_only(capsys):
    assert run(["enumerate", "--n", "4", "--count-only"]) == 0
    assert out_lines(capsys) == ["127"]
    assert run(["enumerate", "--n", "4", "--kind", "compacted", "--count-only"]) == 0
    assert out_lines(capsys) == ["111"]


def test_enumerate_lines_parse_back(capsys):
    assert run(["enumerate", "--n", "3"]) == 0
    lines = out_lines(capsys)
    assert len(lines) == 16
    for line in lines:
        assert dag_from_text(line).n == 3
    assert len(set(lines)) == 16


def test_enumerate_emit(tmp_path, capsys):
    target = tmp_path / "dags.txt"
    assert run(["enumerate", "--n", "3", "--kind", "compacted",
                "--emit", str(target)]) == 0
    assert out_lines(capsys) == ["15"]
    assert len(target.read_text().splitlines()) == 15


def test_enumerate_budget_domain_error(capsys):
    assert run(["enumerate", "--n", "9", "--budget", "1000"]) == 1
    assert "budget" in capsys.readouterr().err


def test_enumerate_far_over_the_budget_fails_at_once(capsys):
    # the spine product would walk Catalan(40) spines before it could fail
    assert run(["enumerate", "--n", "40", "--budget", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: enumeration would produce ")
    assert captured.err.endswith(" objects, budget is 1000\n")


@pytest.mark.parametrize("kind", ["relaxed", "compacted"])
def test_enumerate_over_the_budget_leaves_the_emit_file_alone(kind, tmp_path, capsys):
    # the budget is checked before the file is opened for writing
    target = tmp_path / "dags.txt"
    target.write_text("old contents\n")
    assert run(["enumerate", "--n", "40", "--kind", kind, "--budget", "1000",
                "--emit", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(" objects, budget is 1000\n")
    assert target.read_text() == "old contents\n"


@pytest.mark.parametrize("bound", [[], ["--max-right-height", "3"]])
def test_relaxed_count_only_over_the_budget_fails_at_once(bound, capsys):
    # the spine product walks every spine: Catalan(20) = 6564120420 of
    # them, 581130734 under right height 3, so they are counted first
    argv = ["enumerate", "--kind", "relaxed", "--n", "20", "--count-only", *bound]
    assert run([*argv, "--budget", "1000"]) == 1
    captured = capsys.readouterr()
    estimate = "581130734" if bound else "6564120420"
    assert (captured.out, captured.err) == (
        "", f"error: enumeration would produce {estimate} objects, budget is 1000\n")
    assert run(argv) == 1  # over the default budget of 10^8 too
    assert capsys.readouterr().out == ""


def test_compact_command(tmp_path, capsys):
    f = tmp_path / "t.sexp"
    f.write_text("(* (- (* x x) (* y y)) (+ (* x x) (* y y)))")
    assert run(["compact", str(f)]) == 0
    lines = out_lines(capsys)
    assert lines[0] == "label,uid_left,uid_right,uid"
    assert lines[1] == "x,0,0,1"
    assert lines[7] == "*,5,6,7"
    assert lines[8] == "((((@0 @0) @1) ((@0 @0) @3)) (@2 @4))"


def test_compact_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.sexp"
    f.write_text("((. .)")
    assert run(["compact", str(f)]) == 1
    assert "error" in capsys.readouterr().err


def test_compact_deep_comb(tmp_path, capsys):
    depth = 3000
    f = tmp_path / "comb.sexp"
    f.write_text("(" * depth + ". .)" + " .)" * (depth - 1))  # left comb
    assert run(["compact", str(f)]) == 0
    lines = out_lines(capsys)
    assert len(lines) == 1 + depth + 1  # header, one row per distinct subtree, dag
    assert lines[-1] == "(" * depth + "@0 @0)" + " @0)" * (depth - 1)


def test_asymptotics_output(capsys):
    assert run(["asymptotics", "--k", "3", "--family", "compacted"]) == 0
    text = capsys.readouterr().out
    assert "growth: 3.000000000000" in text
    assert "exponent: -1.777777777778" in text


def test_asymptotics_certifies_compacted_two_hundred(capsys):
    # the float delta1 cross-check lost its digits to cancellation here
    assert run(["asymptotics", "--family", "compacted", "--k", "200"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "k: 200" in captured.out


def test_asymptotics_fit_and_plot(tmp_path, capsys):
    plot = tmp_path / "u.csv"
    assert run(["asymptotics", "--k", "0", "--family", "relaxed", "--fit",
                "--upto", "64", "--emit-plot", str(plot)]) == 0
    assert "constant estimate: 1.000000000" in capsys.readouterr().out
    lines = plot.read_text().splitlines()
    assert lines[0] == "n,u" and len(lines) == 65


def test_bad_plot_path_prints_nothing(tmp_path, capsys):
    argv = ["asymptotics", "--k", "1", "--family", "relaxed", "--upto", "10",
            "--emit-plot", str(tmp_path / "missing" / "u.csv")]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line[:7] for line in captured.err.splitlines()] == ["error: "]


def test_unconverged_fit_prints_one_warning_line(capsys):
    argv = ["asymptotics", "--family", "compacted", "--k", "4", "--fit", "--upto", "48"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: constant fit for k=4 compacted not converged: "
                            "last extrapolants 0.842793, 0.860781\n")
    assert "constant estimate: 0.860780910" in captured.out


def test_converged_fit_prints_no_warning(capsys):
    argv = ["asymptotics", "--family", "compacted", "--k", "1", "--fit", "--upto", "2000"]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""


def test_asymptotics_certifies_and_builds_once_per_use(monkeypatch, capsys):
    calls = {"singularity_data": 0, "build_operator": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(asympt, "singularity_data",
                        counted("singularity_data", asympt.singularity_data))
    build = counted("build_operator", operators.build_operator)
    for module in (asympt, cli, dfinite):
        monkeypatch.setattr(module, "build_operator", build)
    argv = ["asymptotics", "--family", "compacted", "--k", "3", "--fit", "--upto", "100"]
    assert run(argv) == 0
    # one build certifies, the other is the stream's own
    assert calls == {"singularity_data": 1, "build_operator": 2}


@pytest.mark.parametrize("argv", [
    ["operator", "--family", "M", "--k"],
    ["operator", "--family", "relaxed", "--latex", "--k"],
    ["sequence", "--family", "compacted", "--upto", "5", "--csv", "--k"],
    ["asymptotics", "--family", "relaxed", "--fit", "--k"],
    ["asymptotics", "--family", "compacted", "--k"],
])
def test_k_past_the_limit_is_a_domain_error(argv, capsys):
    too_big = operators.MAX_K + 1
    assert run(argv + [str(too_big)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: k must be <= {operators.MAX_K}, got {too_big}\n"


@pytest.mark.parametrize("upto", ["-3", "0"])
def test_plot_needs_a_positive_upto(upto, tmp_path, capsys):
    plot = tmp_path / "u.csv"
    argv = ["asymptotics", "--k", "1", "--family", "relaxed", "--upto", upto,
            "--emit-plot", str(plot)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: upto must be >= 1, got {upto}\n")
    assert not plot.exists()


def test_fit_needs_a_positive_upto(capsys):
    argv = ["asymptotics", "--family", "relaxed", "--k", "1", "--fit", "--upto", "0"]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("k", [0, 1])
def test_sequence_rejects_negative_upto(k, capsys):
    argv = ["sequence", "--family", "relaxed", "--k", str(k), "--upto", "-2"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("flags", [["--k", "1", "--upto", "-2", "--csv"],
                                   ["--k", "-1", "--upto", "5"]])
def test_sequence_errors_print_nothing(flags, capsys):
    assert run(["sequence", "--family", "compacted", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["sequence", "--family", "compacted", "--k", "-1", "--upto", "5"],
    ["sequence", "--family", "relaxed", "--k", "-3", "--upto", "5", "--csv"],
    ["asymptotics", "--family", "compacted", "--k", "-1"],
    ["asymptotics", "--family", "relaxed", "--k", "-2", "--fit", "--upto", "50"],
])
def test_negative_k_never_reaches_the_word_counts(argv, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(dfinite, "word_counts", lambda *a: calls.append(a))
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k must be >= 0\n"
    assert calls == []


@pytest.mark.parametrize("upto", ["0", "-3"])
def test_fit_with_a_bad_upto_prints_nothing(upto, capsys):
    argv = ["asymptotics", "--family", "relaxed", "--k", "1", "--fit", "--upto", upto]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n_max must be >= 1, got {upto}\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["sequence", "--family", "relaxed"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["sequence", "--family", "relaxed", "--k", "1", "--upto", "3",
             "--bogus"])
    assert exc.value.code == 2


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    lines = out_lines(capsys)
    assert lines[-1] == "OK"
    assert all(line.startswith("PASS") for line in lines[:-2])


def test_output_stable_across_runs(capsys):
    runs = []
    for _ in range(2):
        assert run(["enumerate", "--n", "4", "--kind", "compacted"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
