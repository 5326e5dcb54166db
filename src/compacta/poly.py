"""Dense univariate polynomials over the integers, and families built bottom-up.

A polynomial is a tuple of big-int coefficients in ascending degree with no
trailing zeros; the zero polynomial is the empty tuple.  This is all exact
arithmetic: the coefficient recurrences downstream are only meaningful if no
rounding ever happens here.
"""

from __future__ import annotations

from itertools import count, islice
from math import comb


class IntPoly:
    """Immutable dense polynomial with integer coefficients.

    ``IntPoly(1, -2)`` is ``1 - 2z``.  Coefficients are stored ascending;
    trailing zeros are stripped so equality is structural.
    """

    __slots__ = ("coeffs",)

    def __init__(self, *coeffs: int):
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:end]))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(*out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(*(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(*(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(*out)

    __rmul__ = __mul__

    def derivative(self) -> "IntPoly":
        return IntPoly(*(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __call__(self, x):
        """Evaluate by Horner; works for int, Fraction, mpmath floats."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divexact(self, other: "IntPoly") -> "IntPoly":
        """Exact polynomial division; raises ValueError on nonzero remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        out = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        d, lead = other.degree, other.coeffs[-1]
        while len(rem) >= len(other.coeffs) and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(other.coeffs):
                break
            q, r = divmod(rem[-1], lead)
            if r:
                raise ValueError("inexact polynomial division (leading term)")
            pos = len(rem) - 1 - d
            out[pos] = q
            for j, c in enumerate(other.coeffs):
                rem[pos + j] -= q * c
            rem.pop()
        if any(rem):
            raise ValueError("inexact polynomial division (nonzero remainder)")
        return IntPoly(*out)

    def __repr__(self) -> str:
        return f"IntPoly{self.coeffs!r}"

    def __str__(self) -> str:
        return format_poly(self)


ZERO = IntPoly()
ONE = IntPoly(1)
Z = IntPoly(0, 1)


def format_poly(p: IntPoly) -> str:
    """Human form in ascending degree, e.g. ``1 - 3z + z^2``."""
    if p.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = str(mag)
        elif i == 1:
            term = f"{mag}z" if mag != 1 else "z"
        else:
            term = f"{mag}z^{i}" if mag != 1 else f"z^{i}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def iter_family(base: tuple, step):
    """Members 0, 1, 2, ... of a family indexed by k >= 0: the two members
    of ``base``, then step(member k-1, member k-2, k) for k >= 2.

    Only the last two members are held, so memory does not grow with k.
    """
    prev2, prev = base
    yield prev2
    for k in count(2):
        yield prev
        prev2, prev = prev, step(prev, prev2, k)


def extend_family(base: tuple, k: int, step):
    """Member k of the family ``iter_family(base, step)``, built bottom-up in
    a loop, so any k >= 0 is reached without recursion."""
    return next(islice(iter_family(base, step), k, None))


def binomial_alternating_poly(k: int) -> IntPoly:
    """sum_{j=0}^{floor((k+2)/2)} (-1)^j C(k+2-j, j) z^j.

    Closed form for the top operator coefficient shared by both tree
    families; equals the quarter-square fold of U_{k+2}.
    """
    return IntPoly(*((-1) ** j * comb(k + 2 - j, j) for j in range((k + 2) // 2 + 1)))
