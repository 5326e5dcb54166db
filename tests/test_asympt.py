import math
from dataclasses import replace
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from compacta import asympt
from compacta.asympt import (
    CertificationError,
    FitResult,
    TABLE1_REFERENCE,
    _count_mpf,
    _richardson,
    dominant_root,
    fit_constant,
    scaled_ratios,
    singularity_data,
    table1,
)
from compacta.cli import run
from compacta.operators import DiffOperator
from compacta.poly import IntPoly
from references import exponent_regression, proportion_exponent


def test_data_relaxed_two():
    d = singularity_data(2, "relaxed")
    assert abs(float(d.growth) - 2.618034) < 1e-6
    assert abs(float(d.rho) - 1 / 2.618034) < 1e-6
    assert d.delta1 == Fraction(1)
    assert d.exponent == Fraction(-1)


def test_data_compacted_one():
    d = singularity_data(1, "compacted")
    assert abs(float(d.delta1) - 1.25) < 1e-12
    assert abs(float(d.exponent) + 0.75) < 1e-12
    assert d.indicial_roots[0] == 0
    assert abs(float(d.indicial_roots[-1]) + 0.25) < 1e-12


def test_data_compacted_three():
    d = singularity_data(3, "compacted")
    assert abs(float(d.growth) - 3.0) < 1e-12
    assert abs(float(d.exponent) + 16 / 9) < 1e-12


def test_relaxed_delta1_exact_to_forty():
    for k in range(1, 41):
        d = singularity_data(k, "relaxed")  # raises if the identity fails
        assert d.delta1 == Fraction(k, 2)
        assert d.exponent == Fraction(-k, 2)


def test_compacted_delta1_cross_check_to_twenty():
    # the constructor enforces |closed form - coefficient ratio| <= 1e-9
    for k in range(0, 21):
        singularity_data(k, "compacted")


def test_compacted_delta1_cross_check_survives_big_coefficients():
    # at 120 bits the coefficient ratio lost its digits to cancellation here
    data = singularity_data(80, "compacted")
    assert float(data.exponent) == pytest.approx(-40 + proportion_exponent(80))


def _corrupt_coefficient(monkeypatch, index):
    """Make singularity_data see its operator with 1 added to the constant
    term of the coefficient at ``index(k)``."""
    build = asympt.build_operator

    def corrupted(family, k):
        coeffs = list(build(family, k).coeffs)
        coeffs[index(k)] += IntPoly(1)
        return DiffOperator(*coeffs)

    monkeypatch.setattr(asympt, "build_operator", corrupted)


@pytest.mark.parametrize("k", [0, 1, 2, 7, 40])
def test_corrupted_subleading_coefficient_fails_compacted_certification(monkeypatch, k):
    _corrupt_coefficient(monkeypatch, lambda k: k)
    with pytest.raises(CertificationError):
        singularity_data(k, "compacted")


@pytest.mark.parametrize("family, top", [("relaxed", lambda k: k),
                                         ("compacted", lambda k: k + 1)])
@pytest.mark.parametrize("k", [1, 2, 7, 40])
def test_corrupted_top_coefficient_fails_certification(monkeypatch, family, top, k):
    _corrupt_coefficient(monkeypatch, top)
    with pytest.raises(CertificationError):
        singularity_data(k, family)


@pytest.mark.parametrize("family, index, message", [
    ("compacted", lambda k: k + 1, "top coefficient is not the Chebyshev fold at k=3"),
    ("compacted", lambda k: k, "exact delta1 identity fails at k=3"),
    ("relaxed", lambda k: k - 1, "exact delta1 identity fails at k=3"),
])
def test_a_failed_certificate_is_a_cli_error(monkeypatch, capsys, family, index, message):
    _corrupt_coefficient(monkeypatch, index)
    assert run(["asymptotics", "--family", family, "--k", "3", "--fit"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_indicial_roots_relaxed():
    assert singularity_data(1, "relaxed").indicial_roots == (Fraction(-1, 2),)
    assert singularity_data(2, "relaxed").indicial_roots == (-1,)
    assert singularity_data(3, "relaxed").indicial_roots == (0, Fraction(-1, 2))
    assert singularity_data(4, "relaxed").indicial_roots == (0, -1)


def test_rho_decreases_to_quarter():
    prev = None
    for k in range(0, 200):
        rho = float(dominant_root(k))
        assert rho > 0.25
        if prev is not None:
            assert rho < prev
        prev = rho
    assert prev < 0.2501


def test_growth_special_values():
    assert abs(float(singularity_data(1, "relaxed").growth) - 2) < 1e-15
    assert abs(float(singularity_data(3, "relaxed").growth) - 3) < 1e-15


def test_table1_rows():
    rows = table1()
    assert [r.k for r in rows] == list(range(1, 8))
    assert all(r.matches_reference for r in rows)
    by_k = {r.k: r for r in rows}
    assert abs(by_k[4].growth - 3.247) < 5e-4
    assert abs(by_k[4].alpha + 2.275) < 5e-4
    assert by_k[4].beta == Fraction(-2)
    assert abs(by_k[7].alpha + 3.766) < 5e-4
    assert abs(by_k[1].growth - 2.0) < 1e-12


def test_proportion_exponent_values():
    assert abs(proportion_exponent(1) + 0.25) < 1e-12
    assert abs(proportion_exponent(2) + 0.276393) < 1e-6
    assert abs(proportion_exponent(5) + 0.271447) < 1e-6
    for k in range(1, 51):
        assert proportion_exponent(k) <= -0.25 + 0.01


def test_proportion_matches_table_difference():
    for k in range(1, 8):
        alpha = float(singularity_data(k, "compacted").exponent)
        beta = -k / 2
        assert abs(proportion_exponent(k) - (alpha - beta)) < 1e-12


def test_richardson_on_synthetic_sequence():
    with mp.workprec(80):
        pts = [(n, mpf(3) + mpf(5) / n + mpf(7) / n**2) for n in (40, 80, 160, 320, 640)]
        est, diag = _richardson(pts, 3)
        assert abs(est - 3) < mpf("1e-10")
        assert len(diag) == 4


def test_fit_constant_exact_family():
    fit = fit_constant(singularity_data(0, "relaxed"), 200)
    assert isinstance(fit, FitResult)
    assert all(u == 1.0 for _, u in fit.ladder)
    assert fit.estimate == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_known_compacted():
    fit = fit_constant(singularity_data(1, "compacted"), 3000)
    target = 2 * math.exp(0.25) / math.gamma(0.25)
    assert abs(fit.estimate - target) / target < 0.01


def test_fit_constant_relaxed_one_reciprocal_root_pi():
    # (2n-1)!! = 2^n Gamma(n + 1/2)/sqrt(pi), so the constant is 1/sqrt(pi)
    fit = fit_constant(singularity_data(1, "relaxed"), 2000)
    assert abs(fit.estimate - 1 / math.sqrt(math.pi)) < 0.01


@pytest.mark.parametrize("family", ["relaxed", "compacted"])
@pytest.mark.parametrize("k", range(5))
def test_exponent_regression_recovers_slope(k, family):
    expected = float(singularity_data(k, family).exponent)
    slope = exponent_regression(k, family, 500, 2000, 100)
    assert abs(slope - expected) < 0.05


def test_fit_reports_convergence():
    assert fit_constant(singularity_data(4, "compacted"), 48).converged is False
    assert fit_constant(singularity_data(1, "compacted"), 3000).converged is True


def test_fit_needs_two_ladder_points():
    # one point would be its own estimate, with nothing to compare it to
    data = singularity_data(3, "compacted")
    with pytest.raises(ValueError, match=r"^upto must be >= 2, got 1$"):
        fit_constant(data, 1)
    fit = fit_constant(data, 2)
    assert [n for n, _ in fit.ladder] == [1, 2]
    assert len(fit.extrapolants) == 2


@pytest.mark.parametrize("k, family", [(1, "compacted"), (2, "relaxed")])
def test_fit_uses_the_data_it_is_given(k, family):
    data = singularity_data(k, family)
    fit = fit_constant(data, 400)
    shifted = fit_constant(replace(data, exponent=data.exponent + 1), 400)
    assert [n for n, _ in shifted.ladder] == [n for n, _ in fit.ladder]
    for (n, u), (_, v) in zip(fit.ladder, shifted.ladder):
        assert v == pytest.approx(u / n, rel=1e-12)


def test_scaled_ratios_one_pass_in_stream_order():
    data = singularity_data(0, "relaxed")  # n! left combs: u_n = 1
    assert [n for n, _ in scaled_ratios(data, {9, 3, 5})] == [3, 5, 9]
    assert all(abs(u - 1) < mpf("1e-30") for _, u in scaled_ratios(data, range(1, 30)))


@pytest.mark.parametrize("ns, message", [
    ([], "ns must name at least one n"),
    (set(), "ns must name at least one n"),
    ([3, 0, 5], "n must be >= 1, got 0"),
    (range(-2, 4), "n must be >= 1, got -2"),
])
def test_scaled_ratios_refuses_an_empty_or_nonpositive_index_set(ns, message, monkeypatch):
    data = singularity_data(1, "relaxed")

    def no_stream(*args):
        raise AssertionError("seed ran before the index set was checked")

    monkeypatch.setattr(asympt, "seed", no_stream)
    with pytest.raises(ValueError) as raised:
        scaled_ratios(data, ns)
    assert str(raised.value) == message


def _count_mpf_cases():
    """n!-multiples with many trailing zero bits, round-half patterns at the
    working precision's cut, and counts shorter than that precision."""
    yield from (math.factorial(n) * m for n in (30, 200, 1000) for m in (1, 3, 7 ** 40))
    for top in ((1 << 119) | 0b1010, (1 << 119) | 0b1011):  # even and odd
        for shift in (1, 2, 3, 60):
            half = ((top << 1) | 1) << (shift - 1)  # top and exactly one half
            yield from (half, half + 1, half - 1, half << 40, (half << 40) | 1)
    yield from (1, 2, 3, 12345, (1 << 119) - 1, (1 << 120) + 1, (1 << 123) - 1)


def test_count_mpf_is_bit_identical_to_mpf():
    with mp.workprec(asympt.WORK_PREC):
        for count in _count_mpf_cases():
            assert _count_mpf(count) == mpf(count), count


def test_reference_table_is_three_decimal():
    for k, (g, a, b) in TABLE1_REFERENCE.items():
        assert round(g, 3) == g and round(a, 3) == a
