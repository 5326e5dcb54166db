import sys
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from compacta import operators
from compacta.operators import (
    D,
    MUL_Z,
    DiffOperator,
    build_operator,
    coeff_recurrences_check,
    format_operator,
    op_compose,
)
from compacta.poly import (
    IntPoly,
    binomial_alternating_poly as leading_coefficient_closed_form,
    format_poly,
    iter_family,
)
from references import (
    apply_operator,
    chebyshev_t,
    chebyshev_u,
    compacted_operator,
    compose_shift,
    equal_up_to_scalar,
    quarter_square_transform,
    reduce_order,
    relaxed_operator,
    subleading_compacted_transform_reference,
)

# operators as displayed by their defining differential equations
DISPLAYED_RELAXED = {
    1: DiffOperator(IntPoly(-1), IntPoly(1, -2)),
    2: DiffOperator(IntPoly(), IntPoly(-3, 2), IntPoly(1, -3, 1)),
    3: DiffOperator(IntPoly(), IntPoly(2), IntPoly(-6, 9), IntPoly(1, -4, 3)),
    4: DiffOperator(
        IntPoly(), IntPoly(), IntPoly(11, -6), IntPoly(-10, 24, -6),
        IntPoly(1, -5, 6, -1),
    ),
}
DISPLAYED_COMPACTED = {
    1: DiffOperator(IntPoly(), IntPoly(-3, 1), IntPoly(1, -2)),
    2: DiffOperator(
        IntPoly(), IntPoly(3, -2), IntPoly(-6, 6, -1), IntPoly(1, -3, 1)
    ),
    3: DiffOperator(
        IntPoly(), IntPoly(-3, 1), IntPoly(14, -12, 1), IntPoly(-10, 18, -4),
        IntPoly(1, -4, 3),
    ),
}


# --- polynomial layer -------------------------------------------------------


def test_poly_basic_arithmetic():
    p = IntPoly(1, -3, 1)
    q = IntPoly(0, 2)
    assert (p + q).coeffs == (1, -1, 1)
    assert (p * q).coeffs == (0, 2, -6, 2)
    assert p.derivative() == IntPoly(-3, 2)
    assert p(2) == 1 - 6 + 4
    assert IntPoly(0, 0, 0).is_zero()


def test_poly_compose_shift():
    p = IntPoly(0, 0, 1)  # n^2
    assert compose_shift(p, 3) == IntPoly(9, 6, 1)  # (n+3)^2


def test_poly_divexact():
    p = IntPoly(-1, 0, 1)  # z^2 - 1
    q = IntPoly(1, 1)
    assert p.divexact(q) == IntPoly(-1, 1)
    with pytest.raises(ValueError):
        IntPoly(1, 1, 1).divexact(q)


def test_chebyshev_values():
    assert chebyshev_u(2) == IntPoly(-1, 0, 4)
    assert chebyshev_u(3) == IntPoly(0, -4, 0, 8)
    assert chebyshev_t(2) == IntPoly(-1, 0, 2)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 25])
def test_chebyshev_u_roots(k):
    with mp.workprec(80):
        for j in range(1, k + 1):
            x = mp.cos(mp.pi * j / (k + 1))
            assert abs(chebyshev_u(k)(x)) < mp.mpf("1e-12")


def test_format_poly_ascending():
    assert format_poly(IntPoly(1, -3, 1)) == "1 - 3z + z^2"
    assert format_poly(IntPoly()) == "0"
    assert format_poly(IntPoly(0, -1)) == "-z"


# --- composition ------------------------------------------------------------


def test_compose_d_z():
    assert op_compose(D, MUL_Z) == DiffOperator(IntPoly(1), IntPoly(0, 1))


def test_compose_d_d():
    assert op_compose(D, D) == DiffOperator(IntPoly(), IntPoly(), IntPoly(1))


def test_compose_l1_d():
    got = op_compose(DISPLAYED_RELAXED[1], D)
    assert got == DiffOperator(IntPoly(), IntPoly(-1), IntPoly(1, -2))


small_polys = st.builds(lambda cs: IntPoly(*cs), st.lists(st.integers(-4, 4), max_size=3))
small_ops = st.builds(
    lambda cs: DiffOperator(*cs), st.lists(small_polys, min_size=1, max_size=3)
)


@given(small_ops, small_ops, small_ops)
def test_compose_associative(a, b, c):
    assert op_compose(op_compose(a, b), c) == op_compose(a, op_compose(b, c))


@given(small_ops, small_ops)
def test_compose_agrees_with_application(a, b):
    series = [Fraction(n * n - 3 * n + 1, 3) for n in range(12)]
    terms = 12 - a.order - b.order if not (a.is_zero() or b.is_zero()) else 5
    if terms <= 0:
        return
    via_compose = apply_operator(op_compose(a, b), series, terms)
    via_stages = apply_operator(a, apply_operator(b, series, 12 - b.order), terms)
    assert via_compose == via_stages


# --- the two families -------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_relaxed_operators_match_displayed(k):
    assert relaxed_operator(k) == DISPLAYED_RELAXED[k]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_compacted_operators_match_displayed(k):
    assert compacted_operator(k) == DISPLAYED_COMPACTED[k]


def test_orders():
    for k in range(1, 12):
        assert relaxed_operator(k).order == k
        assert compacted_operator(k).order == k + 1


@pytest.mark.parametrize("k", range(2, 21))
def test_coefficient_recurrences(k):
    assert coeff_recurrences_check(k) is None


def test_built_operators_equal_the_compositions():
    # one walk of both composed families, the one relaxed_operator and
    # compacted_operator take, instead of one walk per k
    composed = zip(iter_family(operators._RELAXED, operators._relaxed_operator_step),
                   iter_family(operators._COMPACTED, operators._compacted_operator_step))
    for k, (rel, comp) in enumerate(islice(composed, 41)):
        assert build_operator("relaxed", k) == rel, k
        assert build_operator("compacted", k) == comp, k


@pytest.mark.parametrize("family, step, message", [
    ("relaxed", "_relaxed_coefficients_step",
     "relaxed coefficient mismatch at (k=5, i=1)"),
    ("compacted", "_compacted_coefficients_step",
     "compacted coefficient mismatch at (k=5, i=0)"),
])
def test_recurrence_check_reports_a_bad_step_below_its_argument(
        monkeypatch, family, step, message):
    real = getattr(operators, step)

    def corrupted(prev, prev2, k):
        out = real(prev, prev2, k)
        return out[:1] + (out[1] + IntPoly(1),) + out[2:] if k == 5 else out

    monkeypatch.setattr(operators, step, corrupted)
    assert coeff_recurrences_check(12) == message


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_families_build_without_recursion():
    # every k-indexed family is extended in a loop, so building k = 60 from
    # its base cases needs no stack beyond a small fixed headroom
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        relaxed_operator(60)
        compacted_operator(60)
        chebyshev_t(60)
        chebyshev_u(60)
        assert coeff_recurrences_check(60) is None
    finally:
        sys.setrecursionlimit(limit)
    assert relaxed_operator(60).order == 60
    assert compacted_operator(60).order == 61
    assert chebyshev_u(60) == quarter_square_transform(
        leading_coefficient_closed_form(58), 60
    )


def test_coefficient_recurrence_check_needs_k_two():
    with pytest.raises(ValueError):
        coeff_recurrences_check(1)


def test_leading_closed_form_small():
    assert leading_coefficient_closed_form(1) == IntPoly(1, -2)
    assert leading_coefficient_closed_form(2) == IntPoly(1, -3, 1)
    assert leading_coefficient_closed_form(4) == IntPoly(1, -5, 6, -1)


@pytest.mark.parametrize("k", range(1, 41))
def test_leading_identities(k):
    op = relaxed_operator(k)
    top = op.coeff(k)
    assert top == leading_coefficient_closed_form(k)
    assert quarter_square_transform(top, k + 2) == chebyshev_u(k + 2)
    assert 2 * op.coeff(k - 1) == k * top.derivative()


@pytest.mark.parametrize("k", range(2, 21))
def test_low_coefficients_vanish(k):
    op = relaxed_operator(k)
    for i in range((k - 2) // 2 + 1):
        assert op.coeff(i).is_zero()


@pytest.mark.parametrize("k", range(1, 21))
def test_families_share_top_coefficient(k):
    assert compacted_operator(k).coeff(k + 1) == relaxed_operator(k).coeff(k)


@pytest.mark.parametrize("k", range(1, 21))
def test_subleading_compacted_transform(k):
    folded = quarter_square_transform(compacted_operator(k).coeff(k), k + 2)
    assert folded == subleading_compacted_transform_reference(k + 2)


@pytest.mark.parametrize("k", range(1, 16))
def test_top_coefficient_roots_real_positive_distinct(k):
    top = relaxed_operator(k).coeff(k)
    with mp.workprec(100):
        roots = mp.polyroots([mp.mpf(c) for c in reversed(top.coeffs)])
        assert len(roots) == top.degree
        for r in roots:
            assert abs(mp.im(r)) < mp.mpf("1e-12")
            assert mp.re(r) > 0
        reals = sorted(mp.re(r) for r in roots)
        for a, b in zip(reals, reals[1:]):
            assert b - a > mp.mpf("1e-9")


def test_reduce_order_relaxed_two():
    reduced, shift = reduce_order(relaxed_operator(2))
    assert shift == 1
    assert reduced == DiffOperator(IntPoly(-3, 2), IntPoly(1, -3, 1))


def test_reduce_order_relaxed_three():
    reduced, shift = reduce_order(relaxed_operator(3))
    assert shift == 1 and reduced.order == 2


@pytest.mark.parametrize("k", range(1, 13))
def test_reduce_order_shifts(k):
    _, shift = reduce_order(relaxed_operator(k))
    assert shift == k // 2
    reduced, mshift = reduce_order(compacted_operator(k))
    assert mshift == 1 and reduced.order == k


def test_equal_up_to_scalar():
    a = relaxed_operator(4)
    assert equal_up_to_scalar(a, DiffOperator(*(p * -7 for p in a.coeffs)))
    assert not equal_up_to_scalar(a, relaxed_operator(3))
    b = DiffOperator(IntPoly(1), IntPoly(2))
    c = DiffOperator(IntPoly(1), IntPoly(3))
    assert not equal_up_to_scalar(b, c)


def test_format_operator():
    assert format_operator(relaxed_operator(1)) == "(-1)*D^0 + (1 - 2z)*D^1"
