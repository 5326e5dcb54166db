"""From annihilating operators to recurrences on counts, and exact streams.

Everything here runs on the counts c_n = n! a_n, where sum a_n z^n is the
exponential generating function.  Let d be the order of an operator
sum_i p_i(z) D^i.  Its term p_{i,e} z^e D^i sends a_m z^m to
m^falling(i) a_m z^(m-i+e), so with j = e - i + d its coefficient of
z^(n-d), times n!, is p_{i,e} n^falling(e+d) c_{n-j}.  Summed over the
terms this vanishes for every n >= d, with c_m = 0 for m < 0: the D-finite
to P-recursive correspondence (Stanley, "Differentiably finite power
series", Eur. J. Combin. 1, 1980) written on counts.  Every term carries
n^falling(e+d) = n^falling(d) (n-d)^falling(e) (Graham, Knuth and
Patashnik, Concrete Mathematics, section 2.6), and only p_d(0) D^d lands
on c_n.  In both operator families p_d(0) = 1; whenever p_d(0) = +-1, the
relation divided by p_d(0) n^falling(d) is the count form

    c_n = sum_{j>=1} r_j(n) c_{n-j},  r_j = -p_d(0) sum_{e-i+d=j} p_{i,e} (n-d)^falling(e),

whose coefficients in the falling basis of n - d are the operator's own
integers: building it takes no product of big polynomials and no
division.  `ode_to_recurrence` refuses any other operator (so far only a
hand-built or corrupted one).  Each step is then a few multiplies by small
integers, and `SeededSequence` is the one place a stream can fail: once
its int seeds reach past the roots 0..d-1 of n^falling(d), every count it
streams is an integer.  That cannot tell a wrong integer seed from a right
one, so `seed` compares the seeds and the first 2*span + 10 steps with the
bounded word counts, an independent model of the same trees.

One loop (iter_counts) serves two number types: Python `int` (seeds, fits,
tests) and `decimal.Decimal` (`compacta sequence`).  libmpdec keeps a
Decimal in base 10^19, so the step and the printing of a term are both
linear in its digits, where printing a big `int` is quadratic.  Each
Decimal step runs in EXACT, a context wide enough never to round that traps
any rounding, so the result is exact whatever the caller's context; the
context is entered around one step at a time and never held across a
`yield`.  `sequence_values` checks its arguments and builds the seeds
when called, then returns a lazy iterator, so a caller can print each
count as it comes and still see a bad argument before anything is
printed.

The seeds are the counts n < d from the exact count table.  The order d
is at most k+1, and a tree of size at most k+1 cannot exceed right height
k, so there the bounded and unbounded counts coincide.  Right height 0
allows only left combs, n! of them in both families, so B_0 = (1-z)D - 1
annihilates the relaxed k = 0 series too; A_0 = 1-z is only the base of
the relaxed recursion.
"""

from __future__ import annotations

import decimal
from collections import deque
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import count, islice
from math import factorial
from operator import itemgetter

from .operators import DiffOperator, build_operator, check_k
from .poly import IntPoly
from .recurrences import build_table, check_kind, check_n, check_upto, word_counts


class IntegralityError(ArithmeticError):
    """A seed or a closed-form count is not an integer, or a count in the
    prefix `seed` checks disagrees with the word counts.  Past that prefix
    a wrong recurrence can stream integers."""


class CertificationError(ArithmeticError):
    """An exact identity that certifies the singularity data fails.  It
    lives here, beside IntegralityError, so that the CLI can catch it
    without importing `asympt` (and mpmath)."""


# Decimal arithmetic that never rounds: any result that would need rounding
# raises instead of losing a digit.
EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
           decimal.Overflow],
)


@dataclass(frozen=True)
class CountRecurrence:
    """c_n = sum_{j=1}^{span} steps[j-1](n) * c_{n-j} on the counts c_n = n! a_n,
    for every n >= order (with c_m = 0 for m < 0)."""

    order: int
    steps: tuple[IntPoly, ...]

    @property
    def span(self) -> int:
        return len(self.steps)


def ode_to_recurrence(op: DiffOperator) -> CountRecurrence:
    """The count form of op (module docstring): with d = op.order, the term
    p_{i,e} z^e D^i adds -p_d(0) p_{i,e} (n-d)^falling(e) to step e - i + d.

    Raises ValueError unless p_d(0) = +-1.
    """
    d = op.order
    lead = op.coeff(d)(0)
    if lead not in (1, -1):
        raise ValueError(f"p_{d}(0) = {lead} is not +-1")
    terms = [(i, e, c) for i, p in enumerate(op.coeffs) for e, c in enumerate(p.coeffs) if c]
    falling = [IntPoly(1)]  # falling[e] = (n-d)^falling(e)
    for e in range(max(e for _, e, _ in terms)):
        falling.append(falling[e] * IntPoly(-d - e, 1))
    steps = [IntPoly()] * max(e - i + d for i, e, _ in terms)
    for i, e, c in terms:
        if e - i + d:  # step 0 is the term p_d(0) D^d itself
            steps[e - i + d - 1] += -lead * c * falling[e]
    return CountRecurrence(d, tuple(steps))


@dataclass(frozen=True)
class SeededSequence:
    """A count recurrence plus enough exact leading counts to run it.

    seeds[n] is the count c_n for n < len(seeds).  Construction is the one
    check of a stream: the seeds are ints and cover n < order, the roots
    0..order-1 of the n!-scaled leading coefficient.  A stream that was
    built yields an integer at every n and cannot fail partway.
    """

    rec: CountRecurrence
    seeds: tuple[int, ...]

    def __post_init__(self):
        for n, c in enumerate(self.seeds):
            if not isinstance(c, int):
                raise IntegralityError(f"seed c_{n} = {c} is not an integer")
        need = max(self.rec.order, 1)
        if len(self.seeds) < need:
            raise ValueError(f"need at least {need} seeds, got {len(self.seeds)}")


def _step(steps, window, n: int, zero):
    # count n from the last counts in window (newest last), in zero's type
    acc = zero
    for p, c in zip(steps, reversed(window)):
        acc += p(n) * c
    return acc


def iter_counts(seq: SeededSequence, num: type = int):
    """Yield (n, c_n) forever, exactly, in the number type num.

    num is `int` or `decimal.Decimal`.  A Decimal step runs in EXACT, so it
    never rounds; the caller's decimal context is left alone between and
    after the steps.
    """
    if num is not int and num is not Decimal:
        raise TypeError(f"num must be int or Decimal, got {num!r}")
    window = deque(maxlen=seq.rec.span)  # the last counts, newest last
    zero = num(0)
    steps = seq.rec.steps
    for n in count():
        if n < len(seq.seeds):
            c = num(seq.seeds[n])
        elif num is Decimal:
            with localcontext(EXACT):
                c = _step(steps, window, n, zero)
        else:
            c = _step(steps, window, n, zero)
        yield n, c
        window.append(c)


def seed(k: int, family: str) -> SeededSequence:
    """Seeded sequence for the counts of trees of right height <= k.

    The seeds are the integer counts n < d, d the operator order (at most
    k+1, where bounded and unbounded counts coincide), from the count
    table.  The seeds and the first 2*span + 10 steps must equal the
    bounded word counts, or IntegralityError names the first n that
    differs.  At k = 0 both families count the n! left combs, so both run
    on B_0.
    """
    check_kind(family)
    check_k(k)
    rec = ode_to_recurrence(build_operator("compacted" if k == 0 else family, k))
    n0 = max(rec.order, rec.span, 1)
    words = word_counts(family, n0 + 2 * rec.span + 10, k)
    seq = SeededSequence(rec, tuple(build_table(family, n0 - 1).counts()))
    # each step runs on the word counts before it, so the first n that
    # differs is the first streamed count that differs
    for n, want in enumerate(words):
        window = words[max(n - rec.span, 0):n]
        got = seq.seeds[n] if n < n0 else _step(rec.steps, window, n, 0)
        if got != want:
            raise IntegralityError(f"stream disagrees with the word counts at n = {n}")
    return seq


def sequence_values(k: int, family: str, upto: int, num: type = int):
    """Counts of {family} trees of right height <= k for n = 0..upto.

    The arguments are checked and the seeds built when called, so a bad
    argument raises before any count is produced; the result is a lazy
    iterator that computes each count, of type num, as it is pulled.
    """
    check_upto(upto, 0)
    return map(itemgetter(1), islice(iter_counts(seed(k, family), num), upto + 1))


# ---------------------------------------------------------------------------
# Closed forms, for cross-checking the streams
# ---------------------------------------------------------------------------


def _double_factorial_odd(n: int) -> int:
    """(2n-1)!! with the empty product at n = 0."""
    out = 1
    for t in range(1, 2 * n, 2):
        out *= t
    return out


def _relaxed_two_closed_form(n: int) -> int:
    # Binet turns (n-1)!/sqrt5 * (phi^(2n) - psi^(2n)) into (n-1)! F_{2n}
    if n == 0:
        return 1
    fib, nxt = 0, 1
    for _ in range(2 * n):
        fib, nxt = nxt, fib + nxt
    return factorial(n - 1) * fib


def _rising(x: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for t in range(m):
        out *= x + t
    return out


def _compacted_one_closed_form(n: int) -> int:
    # coefficient extraction from exp(z/2) * (1-2z)^(-5/4)
    if n == 0:
        return 1
    total = Fraction(0)
    for j in range(n):
        m = n - 1 - j
        total += (
            Fraction(1, 2**j)
            / factorial(j)
            * (2**m)
            * _rising(Fraction(5, 4), m)
            / factorial(m)
        )
    value = factorial(n - 1) * total
    if value.denominator != 1:
        raise IntegralityError(f"closed form gives {value} at n = {n}, not an integer")
    return int(value)


def closed_form_oracle(k: int, family: str, n: int) -> int | None:
    """Exact count by a closed form, or None when no closed form exists."""
    check_n(n)
    check_kind(family)
    check_k(k)
    form = {(0, "relaxed"): factorial, (1, "relaxed"): _double_factorial_odd,
            (2, "relaxed"): _relaxed_two_closed_form, (0, "compacted"): factorial,
            (1, "compacted"): _compacted_one_closed_form}.get((k, family))
    return None if form is None else form(n)
