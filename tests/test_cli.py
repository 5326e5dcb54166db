import decimal
import hashlib
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
    assert captured.err == "error: n must be >= 0\n"


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


def test_a_reference_off_by_a_thousandth_fails_table1_and_selftest(monkeypatch, capsys):
    # the 3-decimal tolerance must not absorb a wrong third decimal
    growth, alpha, beta = asympt.TABLE1_REFERENCE[3]
    monkeypatch.setitem(asympt.TABLE1_REFERENCE, 3, (growth + 1e-3, alpha, beta))
    assert run(["table1"]) == 1
    rows = out_lines(capsys)[1:]
    assert [row.split()[-1] for row in rows] == ["PASS"] * 2 + ["FAIL"] + ["PASS"] * 4
    assert run(["selftest"]) == 1
    lines = out_lines(capsys)
    assert "FAIL  growth/exponent table" in lines
    assert lines[-1] == "1 FAILURES"


def test_enumerate_count_only(capsys):
    assert run(["enumerate", "--n", "4", "--count-only"]) == 0
    assert out_lines(capsys) == ["127"]
    assert run(["enumerate", "--n", "4", "--kind", "compacted", "--count-only"]) == 0
    assert out_lines(capsys) == ["111"]


# sha256 of `enumerate` stdout for n <= 5 at every bound (none and 0..n)
# and for n = 6 unbounded: any change to the DAG form or to generation
# order must keep every listing byte for byte
ENUMERATE_SHA256 = {
    ("relaxed", 0, None): "08baed89da07fa1f89e81cfccf319e958accb4885a82285ad9f8fd681474e34b",
    ("relaxed", 0, 0): "08baed89da07fa1f89e81cfccf319e958accb4885a82285ad9f8fd681474e34b",
    ("relaxed", 1, None): "db8da6ec6665c17abcaafb26d28d47c9bef206e518717db57d6ccf174c9e2276",
    ("relaxed", 1, 0): "db8da6ec6665c17abcaafb26d28d47c9bef206e518717db57d6ccf174c9e2276",
    ("relaxed", 1, 1): "db8da6ec6665c17abcaafb26d28d47c9bef206e518717db57d6ccf174c9e2276",
    ("relaxed", 2, None): "fbd6ef8eba9353087f89324423bb8d9d0b1643453875105b51cee4f5e79c8399",
    ("relaxed", 2, 0): "f781f56228dce78a0706bbf99e31fc31bafda57dfe0bee54ff36e9cc633545e4",
    ("relaxed", 2, 1): "fbd6ef8eba9353087f89324423bb8d9d0b1643453875105b51cee4f5e79c8399",
    ("relaxed", 2, 2): "fbd6ef8eba9353087f89324423bb8d9d0b1643453875105b51cee4f5e79c8399",
    ("relaxed", 3, None): "fab52dc126aec3fe000e99e016ecd9d69c8d575a9cf38d03c4a1799dc1a9401b",
    ("relaxed", 3, 0): "7c0ef03368bb2611de680a1e588f599e78b47537f5952fa1617282b4e5936af3",
    ("relaxed", 3, 1): "b7ab9b6f78427058c6fa7d72a77beb75945c60619910d96716092fcb7413ba42",
    ("relaxed", 3, 2): "fab52dc126aec3fe000e99e016ecd9d69c8d575a9cf38d03c4a1799dc1a9401b",
    ("relaxed", 3, 3): "fab52dc126aec3fe000e99e016ecd9d69c8d575a9cf38d03c4a1799dc1a9401b",
    ("relaxed", 4, None): "a28c39dc94512881b7f16daec5c4da40ab57a273fcf4ac7071a3a3a3fd04876e",
    ("relaxed", 4, 0): "af1cd2c0c314f51211f285534f6356789a9391fc1e5bb6e2fa422353de884bf4",
    ("relaxed", 4, 1): "336dbd54a0843e22e08e176ae18e91e1da40bed7d9b69a901f6826cd92903dff",
    ("relaxed", 4, 2): "fc49e34e96205699bec035c327b9c83ea169737adf24a810a001cc4c34c9c138",
    ("relaxed", 4, 3): "a28c39dc94512881b7f16daec5c4da40ab57a273fcf4ac7071a3a3a3fd04876e",
    ("relaxed", 4, 4): "a28c39dc94512881b7f16daec5c4da40ab57a273fcf4ac7071a3a3a3fd04876e",
    ("relaxed", 5, None): "63fbc904163d0c297810bc432ea0d646ca3e0c1e54c82234e13507d4639f6889",
    ("relaxed", 5, 0): "507e0affb7455786329a011e46e0521eedc340db74a51e4ff3caa5e7bf1b08ea",
    ("relaxed", 5, 1): "746e1a8f5cb1e1ebf205e76e353b8115f41e863e0bd3292098058b552223d296",
    ("relaxed", 5, 2): "5d43dd1592f8f8a348ec86fa8aeab49be184786d9da622580b7c5020ad829703",
    ("relaxed", 5, 3): "ac8653205d0d8650dd1d5921215eb5c823d4c1ce65400777181993019729b300",
    ("relaxed", 5, 4): "63fbc904163d0c297810bc432ea0d646ca3e0c1e54c82234e13507d4639f6889",
    ("relaxed", 5, 5): "63fbc904163d0c297810bc432ea0d646ca3e0c1e54c82234e13507d4639f6889",
    ("relaxed", 6, None): "3fc407a881cb0deaa5edd3c783be9139623beb30738289eb3fe4afa1c8413417",
    ("compacted", 0, None): "08baed89da07fa1f89e81cfccf319e958accb4885a82285ad9f8fd681474e34b",
    ("compacted", 0, 0): "08baed89da07fa1f89e81cfccf319e958accb4885a82285ad9f8fd681474e34b",
    ("compacted", 1, None): "db8da6ec6665c17abcaafb26d28d47c9bef206e518717db57d6ccf174c9e2276",
    ("compacted", 1, 0): "db8da6ec6665c17abcaafb26d28d47c9bef206e518717db57d6ccf174c9e2276",
    ("compacted", 1, 1): "db8da6ec6665c17abcaafb26d28d47c9bef206e518717db57d6ccf174c9e2276",
    ("compacted", 2, None): "fbd6ef8eba9353087f89324423bb8d9d0b1643453875105b51cee4f5e79c8399",
    ("compacted", 2, 0): "f781f56228dce78a0706bbf99e31fc31bafda57dfe0bee54ff36e9cc633545e4",
    ("compacted", 2, 1): "fbd6ef8eba9353087f89324423bb8d9d0b1643453875105b51cee4f5e79c8399",
    ("compacted", 2, 2): "fbd6ef8eba9353087f89324423bb8d9d0b1643453875105b51cee4f5e79c8399",
    ("compacted", 3, None): "2653bbd838dc99910ec3a74c2c94e0729735b259743238984350c180473099b4",
    ("compacted", 3, 0): "7c0ef03368bb2611de680a1e588f599e78b47537f5952fa1617282b4e5936af3",
    ("compacted", 3, 1): "f78043e876024c810714c7e14378e6f576a7630954505665bfeeb5c431d670fc",
    ("compacted", 3, 2): "2653bbd838dc99910ec3a74c2c94e0729735b259743238984350c180473099b4",
    ("compacted", 3, 3): "2653bbd838dc99910ec3a74c2c94e0729735b259743238984350c180473099b4",
    ("compacted", 4, None): "cfce39fadfbd2957d7b666eb6a58fc56643fd22c71d8ec9bd6bf977e0108e3a3",
    ("compacted", 4, 0): "af1cd2c0c314f51211f285534f6356789a9391fc1e5bb6e2fa422353de884bf4",
    ("compacted", 4, 1): "19d3e0908188f13f5fc3d8bfa6a36ff3fa2a7b57fa748d9fe2f3a27c6ca2fb19",
    ("compacted", 4, 2): "8c669f66282096419258126a44e564d7740fdc632f2cdd3c52eab23c8c5b4252",
    ("compacted", 4, 3): "cfce39fadfbd2957d7b666eb6a58fc56643fd22c71d8ec9bd6bf977e0108e3a3",
    ("compacted", 4, 4): "cfce39fadfbd2957d7b666eb6a58fc56643fd22c71d8ec9bd6bf977e0108e3a3",
    ("compacted", 5, None): "f053f8e3c5169ae8095a38ac404d6e5fbb1db144d47749af702d52a0313324cc",
    ("compacted", 5, 0): "507e0affb7455786329a011e46e0521eedc340db74a51e4ff3caa5e7bf1b08ea",
    ("compacted", 5, 1): "db834e552fc407a4c6fe7ec9c301d06cf5e0643ae73293fba663ad84d296ec7c",
    ("compacted", 5, 2): "d1ad085aa03c794757f3bd4a2cede099962c9a992f6e77aa23b75b1fa120f21f",
    ("compacted", 5, 3): "593ecc3dc83e8afdf59c21ca165bb31cbe2db0a2119a447e437634c1bc6e2596",
    ("compacted", 5, 4): "f053f8e3c5169ae8095a38ac404d6e5fbb1db144d47749af702d52a0313324cc",
    ("compacted", 5, 5): "f053f8e3c5169ae8095a38ac404d6e5fbb1db144d47749af702d52a0313324cc",
    ("compacted", 6, None): "684d1fd33cf0c2dda22b99f6836e591b7c2e839cb7bb83211f45725701594ac1",
}


@pytest.mark.parametrize("kind", ["relaxed", "compacted"])
def test_enumerate_listings_are_pinned(kind, capsys):
    changed = []
    for (k, n, bound), digest in ENUMERATE_SHA256.items():
        if k != kind:
            continue
        argv = ["enumerate", "--kind", kind, "--n", str(n)]
        if bound is not None:
            argv += ["--max-right-height", str(bound)]
        assert run(argv) == 0
        if hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() != digest:
            changed.append((n, bound))
    assert changed == []


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


@pytest.mark.parametrize("kind", ["relaxed", "compacted"])
@pytest.mark.parametrize("mode", [[], ["--count-only"]], ids=["listing", "count-only"])
@pytest.mark.parametrize("flags, message", [
    (["--n", "-1"], "n must be >= 0"),
    (["--n", "3", "--max-right-height", "-2"], "right-height bound must be >= 0"),
    (["--n", "-1", "--max-right-height", "-2"], "n must be >= 0"),
])
def test_enumerate_rejects_a_negative_size_or_bound(kind, mode, flags, message, capsys):
    assert run(["enumerate", "--kind", kind, *flags, *mode]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


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


@pytest.mark.parametrize("upto", ["1", "0", "-3"])
def test_fit_with_a_bad_upto_prints_nothing(upto, capsys):
    # a one-point ladder has nothing to extrapolate or to compare
    argv = ["asymptotics", "--family", "relaxed", "--k", "1", "--fit", "--upto", upto]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: upto must be >= 2, got {upto}\n"


@pytest.mark.parametrize("argv, message", [
    (["asymptotics", "--family", "compacted", "--k", "3", "--fit", "--upto", "1"],
     "upto must be >= 2, got 1"),
    (["asymptotics", "--family", "compacted", "--k", "3", "--upto", "0",
      "--emit-plot", "PLOT"], "upto must be >= 1, got 0"),
    (["asymptotics", "--family", "relaxed", "--k", "3", "--fit", "--upto", "1",
      "--emit-plot", "PLOT"], "upto must be >= 2, got 1"),
    (["sequence", "--family", "relaxed", "--k", "2", "--upto", "-2"],
     "upto must be >= 0, got -2"),
    (["asymptotics", "--family", "relaxed", "--k", "1", "--upto", "-5"],
     "upto must be >= 1, got -5"),
])
def test_upto_has_one_check_before_any_certificate(argv, message, monkeypatch,
                                                   tmp_path, capsys):
    calls = []
    monkeypatch.setattr(asympt, "singularity_data", lambda *a: calls.append(a))
    plot = tmp_path / "u.csv"
    assert run([str(plot) if a == "PLOT" else a for a in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert calls == []
    assert not plot.exists()


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
