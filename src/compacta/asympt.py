"""Singularity data and asymptotic regimes of the bounded-height sequences.

Both counting sequences grow like n! * g^n * n^e with the same exponential
factor g = 4 cos(pi/(k+3))^2, the reciprocal of the smallest root of the
shared top operator coefficient.  The power e differs: -k/2 for relaxed
trees (a rational, certified by an exact polynomial identity) and an
irrational correction for compacted trees, read off the indicial data of
the differential equation at that root.

The dominant root and delta1 come from trigonometric closed forms, with no
root-finder and no floating-point check: exact integer-polynomial identities
show that the top coefficient is the quarter-square fold of U_{k+2}, whose
smallest root is rho, and tie the subleading coefficient to delta1.  The
constant in front has no closed form except in the smallest compacted case,
so it is estimated by Richardson extrapolation of u_n = count / (n! g^n n^e)
along a dyadic ladder, in high-precision log-domain arithmetic on the exact
integers (Flajolet and Sedgewick, *Analytic Combinatorics*, 2009, VI.2).
The fit and the CLI's plot read u_n from one certified ``SingularityData``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .dfinite import CertificationError, iter_counts, seed
from .operators import build_operator, check_k
from .poly import IntPoly, binomial_alternating_poly
from .recurrences import check_kind, check_upto

WORK_PREC = 120  # bits; plenty for the closed forms, the fits and 3-decimal tables
FIT_ORDER = 3  # Richardson order of the constant fit

TABLE1_REFERENCE = {
    # k: (growth, compacted exponent, relaxed exponent); the exact
    # expressions correctly rounded to 3 decimals
    1: (2.000, -0.750, -0.5),
    2: (2.618, -1.276, -1.0),
    3: (3.000, -1.778, -1.5),
    4: (3.247, -2.275, -2.0),
    5: (3.414, -2.771, -2.5),
    6: (3.532, -3.268, -3.0),
    7: (3.618, -3.766, -3.5),
}


@dataclass(frozen=True)
class SingularityData:
    """Dominant singularity and local exponent data for one (k, family).

    ``rho`` is the radius of convergence, ``growth`` its reciprocal.
    ``delta1`` is the subleading indicial coefficient; exact Fraction k/2
    for relaxed trees, high-precision float for compacted ones.
    ``exponent`` is the power of n in count ~ const * n! * growth^n * n^exponent.
    ``indicial_roots`` lists the local exponents: for the relaxed family
    those of the order-reduced equation, for the compacted family those of
    the full equation.
    """

    k: int
    family: str
    rho: mpf
    growth: mpf
    delta1: Fraction | mpf
    exponent: Fraction | mpf
    indicial_roots: tuple


def dominant_root(k: int) -> mpf:
    """1 / (4 cos(pi/(k+3))^2), the smallest root of the top coefficient."""
    with mp.workprec(WORK_PREC):
        c = mp.cos(mp.pi / (k + 3))
        return 1 / (4 * c * c)


def _check_top(k: int, top: IntPoly) -> None:
    """The top coefficient is the fold of U_{k+2}, so its smallest root is rho."""
    if top != binomial_alternating_poly(k):
        raise CertificationError(f"top coefficient is not the Chebyshev fold at k={k}")


def _check_compacted_delta1(k: int, top: IntPoly, sub: IntPoly) -> None:
    """T divides P = 2(k+3) S - ((k+1)(k+4) - 2(k-1) z) T', so at every root
    of T, S / T' = ((k+1)(k+4) - 2(k-1) z) / (2(k+3)): the closed form of
    delta1 at z = rho.  Tested by exact pseudo-division (P times a power of
    T's leading coefficient is an exact multiple of T)."""
    slope = top.derivative()
    p = 2 * (k + 3) * sub - IntPoly((k + 1) * (k + 4), -2 * (k - 1)) * slope
    lead = top.coeffs[-1] ** max(p.degree - top.degree + 1, 0)
    try:
        (p * lead).divexact(top)
    except ValueError:
        raise CertificationError(f"exact delta1 identity fails at k={k}") from None


def singularity_data(k: int, family: str) -> SingularityData:
    check_kind(family)
    check_k(k)
    with mp.workprec(WORK_PREC):
        rho = dominant_root(k)
        growth = 1 / rho
        cos2 = mp.cos(mp.pi / (k + 3)) ** 2

        if family == "relaxed":
            if k >= 1:
                op = build_operator("relaxed", k)
                top = op.coeff(k)
                _check_top(k, top)
                # delta1 = k/2 exactly <=> 2 l_{k,k-1} = k l'_{k,k}
                if 2 * op.coeff(k - 1) != k * top.derivative():
                    raise CertificationError(f"exact delta1 identity fails at k={k}")
            delta1 = Fraction(k, 2)
            exponent = Fraction(-k, 2)
            reduced_order = -(-k // 2)  # ceil(k/2)
            roots = list(range(max(reduced_order - 1, 0)))
            roots.append(-1 if k % 2 == 0 else Fraction(-1, 2))
            return SingularityData(k, family, rho, growth, delta1, exponent, tuple(roots))

        op = build_operator("compacted", k)
        top = op.coeff(k + 1)
        _check_top(k, top)
        _check_compacted_delta1(k, top, op.coeff(k))
        delta1 = (
            mpf(k) / 2 + 1 - mpf(1) / (k + 3)
            - (mpf(1) / 4 - mpf(1) / (k + 3)) / cos2
        )
        exponent = delta1 - k - 1
        roots = tuple(range(k)) + (k - delta1,)
        return SingularityData(k, family, rho, growth, delta1, exponent, roots)


# ---------------------------------------------------------------------------
# Table of growth factors and critical exponents for k = 1..7
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    k: int
    growth_expr: str
    growth: float
    alpha_expr: str
    alpha: float
    beta: Fraction
    beta_float: float
    matches_reference: bool


def _alpha_expr(k: int) -> str:
    rational = -Fraction(k * (k + 3) + 2, 2 * (k + 3))
    coeff = Fraction(k - 1, 4 * (k + 3))
    if k == 1:
        return str(rational)
    if k == 3:
        # cos(pi/6)^2 = 3/4 makes the whole expression rational
        return str(rational - coeff / Fraction(3, 4))
    return (
        f"{rational} - {coeff.numerator}/({coeff.denominator}cos(pi/{k + 3})^2)"
    )


def _growth_expr(k: int) -> str:
    if k == 1:
        return "2"
    if k == 3:
        return "3"
    return f"4cos(pi/{k + 3})^2"


def table1() -> list[TableRow]:
    """Growth and exponent table for k = 1..7, checked to 3 decimals."""
    rows = []
    for k in range(1, 8):
        comp = singularity_data(k, "compacted")
        beta = Fraction(-k, 2)
        growth = float(comp.growth)
        alpha = float(comp.exponent)
        ref_growth, ref_alpha, ref_beta = TABLE1_REFERENCE[k]
        ok = (
            abs(growth - ref_growth) < 5e-4
            and abs(alpha - ref_alpha) < 5e-4
            and abs(float(beta) - ref_beta) < 5e-4
        )
        rows.append(
            TableRow(k, _growth_expr(k), growth, _alpha_expr(k), alpha,
                     beta, float(beta), ok)
        )
    return rows


# ---------------------------------------------------------------------------
# Constant estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    estimate: float
    ladder: tuple[tuple[int, float], ...]
    extrapolants: tuple[float, ...]
    converged: bool  # the last two extrapolants agree to 1e-3 relatively


def _count_mpf(count: int) -> mpf:
    """mpf(count) for count > 0, rounded from its top prec + 3 bits and a
    sticky bit: mpf(count) first strips the int's trailing zero bits, 8 per
    full-width shift.  v2(c_2000) is 0-4 for most families but 501 for
    compacted k = 1 and 1990 for relaxed k = 2, where mpf took 80 and 300 us
    against 6 and 3 us (CPython 3.11, pure-Python mpmath)."""
    shift = count.bit_length() - mp.prec - 3
    if shift <= 0:
        return mpf(count)
    top = (count >> shift) | bool(count & ((1 << shift) - 1))
    return mp.ldexp(mpf(top), shift)


def scaled_ratio_log(count: int, n: int, log_growth: mpf, exponent) -> mpf:
    """log of count / (n! growth^n n^exponent), exactly on the integer;
    log_growth = log(growth) is the caller's, computed once per pass."""
    value = mp.log(_count_mpf(count)) - mp.loggamma(n + 1) - n * log_growth
    if exponent:
        value -= mp.mpmathify(exponent) * mp.log(n)
    return value


def scaled_ratios(data: SingularityData, ns) -> list[tuple[int, mpf]]:
    """(n, u_n) for each n in ns, ascending, from one pass over the stream;
    a list, so that no precision context is held across a yield."""
    wanted = set(ns)
    if not wanted:
        raise ValueError("ns must name at least one n")
    if min(wanted) < 1:
        raise ValueError(f"n must be >= 1, got {min(wanted)}")
    last = max(wanted)
    points = []
    with mp.workprec(WORK_PREC):
        log_growth = mp.log(data.growth)
        for n, count in iter_counts(seed(data.k, data.family)):
            if n in wanted:
                u = mp.exp(scaled_ratio_log(count, n, log_growth, data.exponent))
                points.append((n, u))
            if n >= last:
                break
    return points


def _richardson(points: list[tuple[int, mpf]], order: int) -> tuple[mpf, list[mpf]]:
    """Neville extrapolation to 1/n -> 0; returns (estimate, diagonal)."""
    xs = [mpf(1) / n for n, _ in points]
    tableau = [u for _, u in points]
    diag = [tableau[0]]
    for m in range(1, len(points)):
        new = list(tableau)
        for i in range(len(points) - 1, m - 1, -1):
            new[i] = (tableau[i] * xs[i - m] - tableau[i - 1] * xs[i]) / (
                xs[i - m] - xs[i]
            )
        tableau = new
        diag.append(tableau[m])
    order = min(order, len(points) - 1)
    return diag[order], diag[: order + 1]


def fit_constant(data: SingularityData, upto: int) -> FitResult:
    """Estimate the constant in count ~ const * n! * growth^n * n^exponent,
    with growth and exponent taken from ``data`` as given.

    Evaluates u_n on the dyadic ladder upto, upto/2, ..., upto/16 and
    Richardson-extrapolates in 1/n to order FIT_ORDER.  upto >= 2, so the
    ladder has at least two points and convergence has something to compare.
    """
    check_upto(upto, 2)
    points = scaled_ratios(data, {max(upto >> j, 1) for j in range(5)})
    with mp.workprec(WORK_PREC):
        estimate, diag = _richardson(points, FIT_ORDER)
        converged = abs(diag[-1] - diag[-2]) <= mpf("1e-3") * abs(diag[-1])
        return FitResult(
            float(estimate),
            tuple((n, float(u)) for n, u in points),
            tuple(float(d) for d in diag),
            converged,
        )
