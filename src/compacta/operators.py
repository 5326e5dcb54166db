"""Linear differential operators with integer-polynomial coefficients.

An operator is kept in right-canonical form sum_i p_i(z) * D^i (all
derivatives to the right of the polynomials).  Composition normalizes with
the commutation rule D * p(z) = p(z) * D + p'(z).

Two operator families are indexed by the right-height bound k: one
annihilating the exponential generating function of relaxed binary trees,
one annihilating that of compacted binary trees.  ``build_operator`` builds
them from closed per-coefficient recurrences, two members at a time.  Their
defining compositions are kept as the independent engine that
``coeff_recurrences_check`` compares against; neither engine keeps members
between calls.
"""

from __future__ import annotations

from itertools import islice
from math import comb

from .poly import (
    IntPoly,
    ONE,
    Z,
    ZERO,
    extend_family,
    format_poly,
    iter_family,
)
from .recurrences import check_kind


class DiffOperator:
    """sum coeffs[i] * D^i with IntPoly coefficients, highest zero stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, *coeffs: IntPoly):
        end = len(coeffs)
        while end > 0 and coeffs[end - 1].is_zero():
            end -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:end]))

    @property
    def order(self) -> int:
        """Highest derivative order; -1 for the zero operator."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> IntPoly:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffOperator) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOperator(*(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __neg__(self) -> "DiffOperator":
        return DiffOperator(*(-p for p in self.coeffs))

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + (-other)

    def __mul__(self, other: "DiffOperator") -> "DiffOperator":
        return op_compose(self, other)

    def __repr__(self) -> str:
        return f"DiffOperator({', '.join(map(repr, self.coeffs))})"

    def __str__(self) -> str:
        return format_operator(self)


D = DiffOperator(ZERO, ONE)
MUL_Z = DiffOperator(Z)


def op_compose(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """Canonical form of a*b, so that (a*b)(f) = a(b(f)).

    Uses D^i q(z) = sum_t C(i,t) q^(t)(z) D^(i-t) termwise.
    """
    if a.is_zero() or b.is_zero():
        return DiffOperator()
    out = [ZERO] * (a.order + b.order + 1)
    for j, q in enumerate(b.coeffs):
        if q.is_zero():
            continue
        for i, p in enumerate(a.coeffs):
            if p.is_zero():
                continue
            deriv = q
            for t in range(i + 1):
                if not deriv.is_zero():
                    out[i - t + j] = out[i - t + j] + comb(i, t) * (p * deriv)
                deriv = deriv.derivative()
    return DiffOperator(*out)


def format_operator(op: DiffOperator, latex: bool = False) -> str:
    """Plain form: ``(poly)*D^i`` terms joined by `` + ``, ascending i."""
    if op.is_zero():
        return "0"
    parts = []
    for i, p in enumerate(op.coeffs):
        if p.is_zero():
            continue
        if latex:
            parts.append(f"\\left({format_poly(p)}\\right) D^{{{i}}}")
        else:
            parts.append(f"({format_poly(p)})*D^{i}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Operator families indexed by the right-height bound k, by composition:
#   relaxed    A_0 = 1-z, A_1 = (1-2z)D - 1, A_k = A_{k-1} D - A_{k-2} D^2 z;
#   compacted  B_0 = (1-z)D - 1, B_1 = (1-2z)D^2 - (3-z)D,
#              B_k = B_{k-1} D - B_{k-2} (D^2 z - z D).
# A_0 is the base of the relaxed recursion only: the relaxed k = 0 series
# (n! left combs) is annihilated by B_0.
# ---------------------------------------------------------------------------

D2Z = op_compose(op_compose(D, D), MUL_Z)  # z D^2 + 2 D
ZD = op_compose(MUL_Z, D)


def _relaxed_operator_step(a1, a2, _k):
    return op_compose(a1, D) - op_compose(a2, D2Z)


def _compacted_operator_step(b1, b2, _k):
    return op_compose(b1, D) - op_compose(b2, D2Z - ZD)


_RELAXED = (DiffOperator(IntPoly(1, -1)), DiffOperator(IntPoly(-1), IntPoly(1, -2)))
_COMPACTED = (
    DiffOperator(IntPoly(-1), IntPoly(1, -1)),
    DiffOperator(ZERO, IntPoly(-3, 1), IntPoly(1, -2)),
)


# Largest k built.  Build time and `operator` text grow about as k^3:
# compacted k = 100 / 200 / 300 build in 0.2 / 1.7 / 6.0 s (2-CPU x86-64).
MAX_K = 200


def check_k(k: int) -> None:
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > MAX_K:
        raise ValueError(f"k must be <= {MAX_K}, got {k}")


def build_operator(family: str, k: int) -> DiffOperator:
    """family in {"relaxed", "compacted"} (CLI aliases "L" / "M" accepted),
    from the per-coefficient recurrences below rather than by composition."""
    family = {"L": "relaxed", "M": "compacted"}.get(family, family)
    check_kind(family)
    check_k(k)
    if family == "relaxed":
        return DiffOperator(*extend_family(_RELAXED_COEFFS, k, _relaxed_coefficients_step))
    return DiffOperator(*extend_family(_COMPACTED_COEFFS, k, _compacted_coefficients_step))


# ---------------------------------------------------------------------------
# Independent per-coefficient recurrences for the canonical coefficients.
#
# Relaxed family, writing the order-k operator as sum_i a_{k,i}(z) D^i:
#   a_{k,0} = 0,  a_{k,1} = a_{k-1,0} - 2 a_{k-2,0},
#   a_{k,i} = a_{k-1,i-1} - (i+1) a_{k-2,i-1} - z a_{k-2,i-2}   (2 <= i <= k-1),
#   a_{k,k} = a_{k-1,k-1} - z a_{k-2,k-2}.
#
# Compacted family, order k+1, writing it as sum_i b_{k,i}(z) D^(i+1) with a
# trailing b_{k,-1}(z) D^0 term:
#   b_{k,-1} = 0,  b_{k,0} = 3-2z (k even) / z-3 (k odd),
#   b_{k,i} = b_{k-1,i-1} + (i+1) b_{k-2,i} + (z-i-2) b_{k-2,i-1} - z b_{k-2,i-2},
#   b_{k,k} = b_{k-1,k-1} - z b_{k-2,k-2}.
# ---------------------------------------------------------------------------


def _at(coeffs: tuple[IntPoly, ...], i: int) -> IntPoly:
    return coeffs[i] if 0 <= i < len(coeffs) else ZERO


def _relaxed_coefficients_step(prev, prev2, k):
    out = [ZERO] * (k + 1)
    out[1] = _at(prev, 0) - 2 * _at(prev2, 0)
    for i in range(2, k):
        out[i] = _at(prev, i - 1) - (i + 1) * _at(prev2, i - 1) - Z * _at(prev2, i - 2)
    out[k] = _at(prev, k - 1) - Z * _at(prev2, k - 2)
    return tuple(out)


def _compacted_coefficients_step(prev, prev2, k):
    # position i+1 of a tuple holds b_{.,i}
    def b(coeffs, i):
        return _at(coeffs, i + 1)

    out = [ZERO] * (k + 2)
    out[1] = IntPoly(3, -2) if k % 2 == 0 else IntPoly(-3, 1)
    for i in range(1, k):
        out[i + 1] = (
            b(prev, i - 1)
            + (i + 1) * b(prev2, i)
            + (IntPoly(-i - 2, 1)) * b(prev2, i - 1)
            - Z * b(prev2, i - 2)
        )
    out[k + 1] = b(prev, k - 1) - Z * b(prev2, k - 2)
    return tuple(out)


_RELAXED_COEFFS = tuple(op.coeffs for op in _RELAXED)
_COMPACTED_COEFFS = tuple(op.coeffs for op in _COMPACTED)


def coeff_recurrences_check(k: int) -> str | None:
    """Cross-check composed operators against the coefficient recurrences.

    For every index 2..k, in one bottom-up pass, compares every coefficient
    of the composed relaxed/compacted operators with the independently
    recurred polynomials, and checks the two families share the same top
    coefficient.  Returns None when everything matches, else a message
    naming the first mismatching (k, i).
    """
    if k < 2:
        raise ValueError("check needs k >= 2")
    families = zip(
        iter_family(_RELAXED, _relaxed_operator_step),
        iter_family(_RELAXED_COEFFS, _relaxed_coefficients_step),
        iter_family(_COMPACTED, _compacted_operator_step),
        iter_family(_COMPACTED_COEFFS, _compacted_coefficients_step),
    )
    for j, (rel, rel_rec, comp, comp_rec) in enumerate(islice(families, 2, k + 1), 2):
        for i in range(j + 1):
            if rel.coeff(i) != rel_rec[i]:
                return f"relaxed coefficient mismatch at (k={j}, i={i})"
        for i in range(j + 2):
            if comp.coeff(i) != comp_rec[i]:
                return f"compacted coefficient mismatch at (k={j}, i={i - 1})"
        if comp.coeff(j + 1) != rel.coeff(j):
            return f"top coefficients differ between families at k={j}"
    return None
