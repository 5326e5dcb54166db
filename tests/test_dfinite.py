import decimal
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from math import factorial
from types import SimpleNamespace

import pytest

from compacta import dfinite
from compacta.cli import run
from compacta.dfinite import (
    IntegralityError,
    SeededSequence,
    closed_form_oracle,
    iter_counts,
    ode_to_recurrence,
    seed,
    sequence_values,
)
from compacta.exhaustive import brute_count
from compacta.operators import DiffOperator, build_operator
from compacta.poly import IntPoly
from compacta.recurrences import build_table, word_counts
from references import (
    apply_operator,
    compacted_operator,
    division_counts,
    falling_factorial_poly,
    relaxed_operator,
    scaled_recurrence,
)
from references import residual as rec_residual  # `residual` is a local below


def double_factorial_odd(n):
    out = 1
    for t in range(1, 2 * n, 2):
        out *= t
    return out


# --- recurrence extraction ---------------------------------------------------


def test_order_one_recurrence_shape():
    # (1-2z)D - 1 annihilates sum (2n-1)!! z^n/n!; the induced relation on
    # the counts is n c_n = n(2n-1) c_{n-1}, whose count form is
    # c_n = (2n-1) c_{n-1}
    op = relaxed_operator(1)
    rec, ref = ode_to_recurrence(op), scaled_recurrence(op)
    assert (rec.order, rec.steps) == (1, (IntPoly(-1, 2),))
    assert (ref.valid_from, ref.coeffs) == (1, (IntPoly(0, 1), IntPoly(0, 1, -2)))
    c = [double_factorial_odd(n) for n in range(10)]
    for n in range(1, 10):
        assert rec_residual(ref, c, n) == 0


def test_recurrence_annihilates_truncated_series():
    # an annihilator composed with its solution's coefficients gives zero
    # and each step of the count form, on the word counts, gives the next
    for k in (1, 2, 3):
        op = relaxed_operator(k)
        counts = list(word_counts("relaxed", 55, k))
        series = [Fraction(c, factorial(n)) for n, c in enumerate(counts)]
        residual = apply_operator(op, series, 50)
        assert all(v == 0 for v in residual)
        rec = ode_to_recurrence(op)
        for n in range(rec.order, 50):
            window = counts[max(n - rec.span, 0):n]
            assert dfinite._step(rec.steps, window, n, 0) == counts[n]


@pytest.mark.parametrize("family", ["relaxed", "compacted"])
@pytest.mark.parametrize("k", range(41))
def test_count_recurrence_is_the_ordinary_one_times_n_factorial(k, family):
    # the n!-scaled ordinary recurrence has q_0 = +-n^falling(d), whose
    # integer roots are exactly 0..d-1, and q_0 times each step is its next
    # term: the steps read off the operator need no division.  Relaxed k = 0
    # is the base A_0 = 1 - z
    op = build_operator(family, k)
    rec, ref = ode_to_recurrence(op), scaled_recurrence(op)
    lead = op.coeff(op.order)(0)
    assert lead in (1, -1)
    q0 = lead * falling_factorial_poly(op.order)
    assert ref.coeffs == (q0, *(-r * q0 for r in rec.steps))
    assert rec.order == ref.valid_from == op.order


def test_seeded_sequence_rejects_short_seeds():
    rec = ode_to_recurrence(relaxed_operator(3))
    with pytest.raises(ValueError):
        SeededSequence(rec, (1,))


# --- seeding -----------------------------------------------------------------


def test_default_seeds_come_from_tables():
    rt = build_table("relaxed", 9)
    for k in range(1, 8):
        sq = seed(k, "relaxed")
        assert len(sq.seeds) <= k + 2
        for n, c in enumerate(sq.seeds):
            assert type(c) is int and c == rt.count(n)


def test_explicit_seed_count():
    # relaxed k = 2 has an operator of order 2, so two seeds
    sq = seed(2, "relaxed")
    assert sq.seeds == (1, 1)


def test_seed_beyond_tables_uses_word_counts():
    # n = 4 lies past the seeds: the stream gives the height-filtered count
    assert list(sequence_values(2, "relaxed", 4)) == [1, 1, 3, 16, 126]
    assert word_counts("relaxed", 4, 2)[4] == 126


@pytest.mark.parametrize("family", ["relaxed", "compacted"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_seeds_far_past_the_tables(k, family):
    # brute force at n = 13 would be far over the enumeration budget
    assert list(sequence_values(k, family, 40)) == list(word_counts(family, 40, k))


def test_compacted_seed_small():
    sq = seed(1, "compacted")
    assert sq.seeds == (1, 1)


@pytest.mark.parametrize("family", ["relaxed", "compacted"])
def test_one_seed_per_unit_of_operator_order(family):
    # the seeds cover exactly the roots 0..order-1 of q_0
    for k in range(13):
        order = build_operator("compacted" if k == 0 else family, k).order
        sq = seed(k, family)
        assert len(sq.seeds) == order, k
        assert sq.seeds == tuple(word_counts(family, order - 1, k)), k


def test_relaxed_zero_has_no_operator():
    sq = seed(0, "relaxed")
    assert sq.seeds == tuple(factorial(n) for n in range(len(sq.seeds)))
    assert list(sequence_values(0, "relaxed", 6)) == [factorial(n) for n in range(7)]


# --- streaming ----------------------------------------------------------------


def test_stream_double_factorials():
    assert list(sequence_values(1, "relaxed", 5)) == [1, 1, 3, 15, 105, 945]
    assert list(sequence_values(1, "relaxed", 30))[30] == double_factorial_odd(30)


def test_stream_relaxed_two_closed_form_value():
    # 4! * F_10 = 24 * 55
    assert list(sequence_values(2, "relaxed", 5))[5] == 1320


def test_stream_compacted_one_series():
    # series of the integrating factor form: 1, 1, 3, 14, 92, 786, ...
    values = list(sequence_values(1, "compacted", 6))
    assert values == [1, 1, 3, 14, 92, 786, 8278]
    assert values[2] == 3
    for n, v in enumerate(values):
        assert closed_form_oracle(1, "compacted", n) == v


def test_stream_compacted_two_initial_values():
    assert list(sequence_values(2, "compacted", 2)) == [1, 1, 3]


def test_streams_match_filtered_brute_force():
    for family in ("relaxed", "compacted"):
        for k in range(0, 4):
            got = list(sequence_values(k, family, 5))
            want = [brute_count(n, family, max_right_height=k) for n in range(6)]
            assert got == want, (family, k)


def test_streams_match_unrestricted_prefix():
    rt = build_table("relaxed", 8)
    ct = build_table("compacted", 8)
    for k in range(1, 7):
        assert list(sequence_values(k, "relaxed", k + 1)) == [
            rt.count(n) for n in range(k + 2)
        ]
        assert list(sequence_values(k, "compacted", k + 1)) == [
            ct.count(n) for n in range(k + 2)
        ]


def test_boundary_misses_exactly_the_right_chain():
    # the only size-(k+2) tree of right height k+1 is the all-right chain
    # (every slot pool is 0 there, so it exists once and is compacted)
    for family in ("relaxed", "compacted"):
        table = build_table(family, 7)
        for k in range(1, 6):
            bounded = list(sequence_values(k, family, k + 2))
            assert bounded[k + 2] == table.count(k + 2) - 1


def test_stream_monotone_in_k():
    prev = list(sequence_values(1, "relaxed", 40))
    for k in range(2, 6):
        now = list(sequence_values(k, "relaxed", 40))
        assert all(a <= b for a, b in zip(prev, now))
        prev = now


def test_non_integral_seed_raises():
    rec = ode_to_recurrence(compacted_operator(1))
    with pytest.raises(IntegralityError, match=r"^seed c_1 = 1/3 is not an integer$"):
        SeededSequence(rec, (1, Fraction(1, 3)))


def test_inexact_division_raises():
    # 2 + z: on the counts, 2 c_n + n c_{n-1} = 0 forces a half-integer at
    # the first step.  p_0(0) = 2, so the operator is refused before any
    # sequence is built
    op = DiffOperator(IntPoly(2, 1))
    assert scaled_recurrence(op).coeffs == (IntPoly(2), IntPoly(0, 1))
    with pytest.raises(ValueError, match=r"^p_0\(0\) = 2 is not \+-1$"):
        ode_to_recurrence(op)


def counts_upto(seq, upto, num=int):
    """c_0..c_upto of a seeded sequence, in the number type num."""
    return [c for _, c in islice(iter_counts(seq, num), upto + 1)]


def test_relaxed_zero_streams_factorials():
    # B_0 = (1-z)D - 1 annihilates the relaxed k = 0 series: n! left combs
    assert counts_upto(seed(0, "relaxed"), 60) == [factorial(n) for n in range(61)]


# --- exact decimal streams ---------------------------------------------------


def half_count_seed(k, family):
    # the last seed's count off by one half: no longer an integer count
    sq = seed(k, family)
    m = len(sq.seeds) - 1
    return SeededSequence(sq.rec, sq.seeds[:m] + (sq.seeds[m] + Fraction(1, 2),))


def doubled_leading(k, family):
    # 2 p_d: p_d(0) = 2, so the n!-scaled q_0 = 2 n^falling(d) divides no
    # count exactly
    op = build_operator(family, k)
    doubled = DiffOperator(*op.coeffs[:-1], 2 * op.coeffs[-1])
    return SeededSequence(ode_to_recurrence(doubled), seed(k, family).seeds)


def division_error(rec, seeds, num):
    # the per-step division reference, run to its first error
    got = []
    with pytest.raises(IntegralityError) as exc:
        for _, c in islice(division_counts(rec, seeds, num), 51):
            got.append(c)
    return str(exc.value), got


@pytest.mark.parametrize("family", ["relaxed", "compacted"])
@pytest.mark.parametrize("k", [0, 1, 2, 5, 12, 40])
def test_decimal_stream_is_exact_in_a_narrow_context(k, family):
    ctx = decimal.getcontext()
    saved = ctx.prec
    ctx.prec = 5
    try:
        dec = list(sequence_values(k, family, 300, num=Decimal))
    finally:
        ctx.prec = saved
    ints = list(sequence_values(k, family, 300))
    assert dec == ints
    assert [str(d) for d in dec] == [str(v) for v in ints]


def test_decimal_stream_leaves_the_context_alone():
    ctx = decimal.getcontext()
    before = repr(ctx)
    values = sequence_values(3, "compacted", 100, num=Decimal)
    for _ in range(20):  # past the seeds, then abandoned
        next(values)
        assert decimal.getcontext() is ctx and repr(ctx) == before
    del values
    assert decimal.getcontext() is ctx and repr(ctx) == before


@pytest.mark.parametrize("family", ["relaxed", "compacted"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("corrupt, error, message", [
    (half_count_seed, IntegralityError, r"^seed c_\d+ = \d+/2 is not an integer$"),
    (doubled_leading, ValueError, r"^p_\d+\(0\) = 2 is not \+-1$"),
], ids=["half_count_seed", "doubled_leading"])
def test_decimal_stream_raises_where_the_int_stream_does(corrupt, error, message, k, family):
    # the sequence is refused when built, so nothing can fail mid-stream,
    # in either number type
    for num in (int, Decimal):
        with pytest.raises(error, match=message):
            counts_upto(corrupt(k, family), 50, num)


def test_decimal_stream_rejects_an_inexact_division():
    # 2 + z, so 2 c_n + n c_{n-1} = 0: refused when built; only a per-step
    # division would have reached n = 1
    op = DiffOperator(IntPoly(2, 1))
    with pytest.raises(ValueError, match=r"^p_0\(0\) = 2 is not \+-1$"):
        counts_upto(SeededSequence(ode_to_recurrence(op), (1,)), 5, Decimal)
    assert division_error(scaled_recurrence(op), (1,), Decimal) == (
        "non-integral value at n = 1", [1])


def test_stream_takes_int_or_decimal():
    with pytest.raises(TypeError):
        counts_upto(seed(1, "relaxed"), 3, float)


# --- division-free streams and the word-count check --------------------------


@pytest.mark.parametrize("num", [int, Decimal])
@pytest.mark.parametrize("family", ["relaxed", "compacted"])
@pytest.mark.parametrize("k", [0, 1, 2, 5, 12, 40])
def test_stream_equals_the_division_reference(k, family, num):
    seq = seed(k, family)
    ref = scaled_recurrence(build_operator("compacted" if k == 0 else family, k))
    got = list(islice(iter_counts(seq, num), 301))
    want = list(islice(division_counts(ref, seq.seeds, num), 301))
    assert got == want
    assert [(type(c), str(c)) for _, c in got] == [(type(c), str(c)) for _, c in want]


@pytest.mark.parametrize("num", [int, Decimal])
def test_a_form_that_is_not_monic_divides_each_step(num):
    # 2 - z^2 D: on the counts, 2 c_n = n(n-1) c_{n-1}.  n(n-1) is not a
    # multiple of 2 in Z[n], even though n(n-1)/2 is an integer at every n.
    # Only a per-step division could run it, so the stream refuses it when
    # built
    op = DiffOperator(IntPoly(2), IntPoly(0, 0, -1))
    ref = scaled_recurrence(op)
    assert ref.coeffs == (IntPoly(2), IntPoly(0, 1, -1))
    with pytest.raises(ValueError, match=r"^p_1\(0\) = 0 is not \+-1$"):
        counts_upto(SeededSequence(ode_to_recurrence(op), (1, 1)), 8, num)
    got = [c for _, c in islice(division_counts(ref, (1, 1), num), 9)]
    assert got == [1, 1, 1, 3, 18, 180, 2700, 56700, 1587600]


@pytest.mark.parametrize("num", [int, Decimal])
@pytest.mark.parametrize("q1, monic", [
    (IntPoly(0, 30, -1), True),  # n-30 divides -(n-30) n: c_n = n c_{n-1}
    (IntPoly(0, 30, 29, -1), False),  # c_n = n(n+1)/2 c_{n-1}, divided
])
def test_stream_stops_where_the_leading_coefficient_vanishes(q1, monic, num):
    # the operator whose n!-scaled recurrence is q_0 c_n + q_1 c_{n-1} = 0
    # has p_d(0) = 0, and q_0 vanishes at n = 30, which no seed reaches.  It
    # is refused when the stream is built, where a per-step check would only
    # stop at n = 30
    q0 = IntPoly(-30, 1) * (1 if monic else 2)
    if monic:
        op = DiffOperator(IntPoly(-30, 29), IntPoly(0, 1, -1))
    else:
        op = DiffOperator(IntPoly(-60, 58), IntPoly(0, 2, 26), IntPoly(0, 0, 0, -1))
    ref = scaled_recurrence(op)
    assert ref.coeffs == (q0, q1)
    with pytest.raises(ValueError, match=rf"^p_{op.order}\(0\) = 0 is not \+-1$"):
        counts_upto(SeededSequence(ode_to_recurrence(op), (1,)), 50, num)
    msg, got = division_error(ref, (1,), num)
    assert msg == "leading coefficient vanishes at n = 30; seeds must extend past it"
    assert len(got) == 30


@pytest.mark.parametrize("family", ["relaxed", "compacted"])
@pytest.mark.parametrize("k", [1, 3, 12])
def test_seed_rejects_each_count_off_by_one(monkeypatch, k, family):
    # no integral check can see these: only the word counts do
    for i in range(len(seed(k, family).seeds)):
        def off_by_one(kind, nmax, i=i):
            counts = build_table(kind, nmax).counts()
            counts[i] += 1
            return SimpleNamespace(counts=lambda: counts)

        monkeypatch.setattr(dfinite, "build_table", off_by_one)
        with pytest.raises(IntegralityError,
                           match=f"word counts at n = {i}$"):
            seed(k, family)
        monkeypatch.undo()


def test_seed_rejects_a_wrong_step(monkeypatch):
    real = dfinite._step

    def corrupted(form, window, n, zero):
        return real(form, window, n, zero) + (n == 20)

    monkeypatch.setattr(dfinite, "_step", corrupted)
    with pytest.raises(IntegralityError, match="word counts at n = 20$"):
        seed(5, "compacted")


# --- closed forms ---------------------------------------------------------


def test_closed_form_oracle_values():
    assert closed_form_oracle(2, "relaxed", 4) == 126
    assert closed_form_oracle(1, "relaxed", 10) == 654729075  # 19!!
    assert closed_form_oracle(0, "relaxed", 6) == 720
    assert closed_form_oracle(0, "compacted", 6) == 720
    assert closed_form_oracle(2, "compacted", 10) is None
    assert closed_form_oracle(3, "relaxed", 10) is None


def test_a_non_integer_closed_form_raises(monkeypatch, capsys):
    monkeypatch.setattr(dfinite, "_rising", lambda x, m: Fraction(1, 3))
    with pytest.raises(IntegralityError, match=r"^closed form gives 1/3 at n = 1, "):
        closed_form_oracle(1, "compacted", 1)
    assert run(["selftest"]) == 1
    assert capsys.readouterr().err.startswith("error: closed form gives ")


def test_closed_forms_match_streams():
    r2 = list(sequence_values(2, "relaxed", 30))
    c1 = list(sequence_values(1, "compacted", 30))
    for n in range(31):
        assert closed_form_oracle(2, "relaxed", n) == r2[n]
        assert closed_form_oracle(1, "compacted", n) == c1[n]
