"""Reference oracles used only by the tests.

Each one is an independent way to compute or compare what the package
computes; none has a caller in the package itself.
"""

import argparse
from dataclasses import dataclass
from decimal import localcontext

from mpmath import mp, mpf

from compacta import operators
from compacta.asympt import WORK_PREC, scaled_ratio_log, singularity_data
from compacta.compaction import UidTable
from compacta.dfinite import EXACT, IntegralityError, iter_counts, seed
from compacta.operators import DiffOperator
from compacta.poly import ONE, Z, IntPoly, extend_family
from compacta.trees import RelaxedDag, SpineTree, _read, dag_to_text


def postorder_nodes(spine: SpineTree | None) -> list[SpineTree]:
    """Spine nodes in completion order; node at list position i has index i+1.

    The reverse of a root, right, left pre-order, independent of the
    package's own post-order walk.
    """
    out, stack = [], [spine] if spine is not None else []
    while stack:
        node = stack.pop()
        out.append(node)
        if node.left is not None:
            stack.append(node.left)
        if node.right is not None:
            stack.append(node.right)
    return out[::-1]


def right_height(spine: SpineTree | None) -> int:
    """Maximum number of right spine edges on any root-to-node path."""
    if spine is None:
        return 0
    best = 0
    stack = [(spine, 0)]
    while stack:
        node, level = stack.pop()
        if level > best:
            best = level
        if node.left is not None:
            stack.append((node.left, level))
        if node.right is not None:
            stack.append((node.right, level + 1))
    return best


def _chebyshev_step(p1: IntPoly, p2: IntPoly, _n: int) -> IntPoly:
    return 2 * Z * p1 - p2


def chebyshev_t(n: int) -> IntPoly:
    """Chebyshev polynomial of the first kind, T_n."""
    return extend_family((ONE, Z), n, _chebyshev_step)


def chebyshev_u(n: int) -> IntPoly:
    """Chebyshev polynomial of the second kind, U_n."""
    return extend_family((ONE, 2 * Z), n, _chebyshev_step)


def quarter_square_transform(p: IntPoly, m: int) -> IntPoly:
    """Return (2x)**m * p(1 / (4x**2)) as a polynomial in x.

    Requires m >= 2*deg(p); each coefficient c_j of p contributes
    c_j * 2**(m-2j) * x**(m-2j).
    """
    if m < 2 * p.degree:
        raise ValueError(f"need m >= 2*deg(p), got m={m}, deg={p.degree}")
    out = [0] * (m + 1)
    for j, c in enumerate(p.coeffs):
        out[m - 2 * j] = c * (1 << (m - 2 * j))
    return IntPoly(*out)


def relaxed_operator(k: int) -> DiffOperator:
    """The relaxed operator of right height <= k by its defining composition
    (operators' family comment), not by the coefficient recurrences."""
    return extend_family(operators._RELAXED, k, operators._relaxed_operator_step)


def compacted_operator(k: int) -> DiffOperator:
    """The compacted operator of right height <= k by its defining composition."""
    return extend_family(operators._COMPACTED, k, operators._compacted_operator_step)


def apply_operator(op: DiffOperator, series, terms: int):
    """Apply the operator to an ordinary power series (list of Fractions).

    Returns the first ``terms`` coefficients of op(f); requires the input to
    carry at least terms + op.order coefficients.
    """
    if op.is_zero():
        return [0] * terms
    need = terms + op.order
    if len(series) < need:
        raise ValueError(f"need {need} input coefficients, got {len(series)}")
    out = [0] * terms
    for i, p in enumerate(op.coeffs):
        if p.is_zero():
            continue
        # i-th derivative of the series
        deriv = []
        for n in range(need - i):
            c = series[n + i]
            for t in range(n + 1, n + i + 1):
                c *= t
            deriv.append(c)
        for j, pc in enumerate(p.coeffs):
            if pc == 0:
                continue
            for n in range(terms - j):
                out[n + j] += pc * deriv[n]
    return out


def compose_shift(p: IntPoly, offset: int) -> IntPoly:
    """p(n + offset) as a polynomial in n."""
    # Horner in (n + offset): acc(n) <- acc(n) * (n + offset) + c
    acc = IntPoly()
    step = IntPoly(offset, 1)
    for c in reversed(p.coeffs):
        acc = acc * step + IntPoly(c)
    return acc


def falling_factorial_poly(j: int, offset: int = 0) -> IntPoly:
    """(n + offset)(n + offset - 1)...(n + offset - j + 1) as a polynomial in n."""
    acc = ONE
    for t in range(j):
        acc = acc * IntPoly(offset - t, 1)
    return acc


@dataclass(frozen=True)
class CoeffRecurrence:
    """sum_{j=0}^{span} coeffs[j](n) * x_{n-j} = 0 for n >= valid_from (with
    x_m = 0 for m < 0), x the ordinary coefficients a_n or the counts c_n;
    coeffs[0] is not identically zero."""

    coeffs: tuple[IntPoly, ...]
    valid_from: int

    @property
    def span(self) -> int:
        return len(self.coeffs) - 1


def ordinary_recurrence(op: DiffOperator) -> CoeffRecurrence:
    """The recurrence sum_j q_j(n) a_{n-j} = 0 on the ordinary coefficients
    a_n = c_n/n!, by coefficient extraction: p_{i,e} z^e D^i adds
    p_{i,e} (N - j)^falling(i) to the coefficient of a_{N-j}, j = e - i, and
    each group is shifted to n = N - j_min."""
    if op.is_zero():
        raise ValueError("zero operator has no recurrence")
    terms: dict[int, IntPoly] = {}
    for i, p in enumerate(op.coeffs):
        for zdeg, c in enumerate(p.coeffs):
            if c == 0:
                continue
            j = zdeg - i
            contrib = c * falling_factorial_poly(i, offset=-j)
            terms[j] = terms.get(j, IntPoly()) + contrib
    js = [j for j, q in terms.items() if not q.is_zero()]
    j_min, j_max = min(js), max(js)
    shifted = []
    for j in range(j_min, j_max + 1):
        q = terms.get(j, IntPoly())
        shifted.append(compose_shift(q, j_min))
    return CoeffRecurrence(tuple(shifted), valid_from=max(-j_min, 0))


def scaled_recurrence(op: DiffOperator) -> CoeffRecurrence:
    """The n!-scaled form of `ordinary_recurrence(op)`: the same relation on
    the counts c_n = n! a_n, with coeffs[j] = q_j * n^falling(j)."""
    ordinary = ordinary_recurrence(op)
    return CoeffRecurrence(
        tuple(q * falling_factorial_poly(j) for j, q in enumerate(ordinary.coeffs)),
        ordinary.valid_from)


def residual(rec: CoeffRecurrence, counts, n: int):
    """Value of the recurrence's relation at index n over the given counts,
    with c_m = 0 outside the list."""
    acc = 0
    for j, q in enumerate(rec.coeffs):
        if 0 <= n - j < len(counts):
            acc += q(n) * counts[n - j]
    return acc


def division_counts(rec: CoeffRecurrence, seeds, num: type = int):
    """Yield (n, c_n) forever from seeds[n] and then by one exact division
    per step: c_n = -sum_j q_j(n) c_{n-j} / q_0(n), with the remainder
    checked.  A step runs in EXACT, which only a Decimal step reads."""
    qpolys = rec.coeffs
    window: list = []  # last `span` counts, newest last
    n = 0
    while True:
        if n < len(seeds):
            c = seeds[n]
            if c.denominator != 1:
                raise IntegralityError(f"seed c_{n} = {c} is not an integer")
            c = num(int(c))
        else:
            with localcontext(EXACT):
                den = qpolys[0](n)
                if den == 0:
                    raise IntegralityError(
                        f"leading coefficient vanishes at n = {n}; seeds must extend past it")
                acc = num(0)
                for j in range(1, min(len(qpolys) - 1, len(window)) + 1):
                    acc += qpolys[j](n) * window[-j]
                c, rem = divmod(-acc, den)
                if rem:
                    raise IntegralityError(f"non-integral value at n = {n}")
        yield n, c
        window.append(c)
        if len(window) > rec.span:
            window.pop(0)
        n += 1


def equal_up_to_scalar(a: DiffOperator, b: DiffOperator) -> bool:
    """True if a = (p/q) b for some nonzero rational p/q."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    if a.order != b.order:
        return False
    pa = a.coeffs[-1]
    pb = b.coeffs[-1]
    # cross-multiply with the leading coefficients' top terms
    ca, cb = pa.coeffs[-1], pb.coeffs[-1]
    return all(a.coeff(i) * cb == b.coeff(i) * ca for i in range(a.order + 1))


def reduce_order(op: DiffOperator) -> tuple[DiffOperator, int]:
    """Strip identically-zero low-order coefficients.

    Returns (reduced, shift): the reduced operator annihilates the shift-th
    derivative of anything the original annihilates.
    """
    shift = 0
    coeffs = op.coeffs
    while shift < len(coeffs) and coeffs[shift].is_zero():
        shift += 1
    return DiffOperator(*coeffs[shift:]), shift


def subleading_compacted_transform_reference(m: int) -> IntPoly:
    """h_m(x) = [(m-3-2(m^2+m-2)x^2) T_m(x) + (1+2(m-1)x^2) U_m(x)] / (2(x^2-1)).

    Exact target for the quarter-square fold of the subleading compacted
    coefficient; the division is exact.
    """
    num = (IntPoly(m - 3, 0, -2 * (m * m + m - 2)) * chebyshev_t(m)) + (
        IntPoly(1, 0, 2 * (m - 1)) * chebyshev_u(m)
    )
    return num.divexact(IntPoly(-2, 0, 2))


def proportion_exponent(k: int) -> float:
    """Power of n in (compacted count) / (relaxed count) as n grows."""
    if k < 0:
        raise ValueError("k must be >= 0")
    with mp.workprec(WORK_PREC):
        cos2 = mp.cos(mp.pi / (k + 3)) ** 2
        value = -mpf(1) / (k + 3) - (mpf(1) / 4 - mpf(1) / (k + 3)) / cos2
        return float(value)


def exponent_regression(k: int, family: str, n_lo: int = 500, n_hi: int = 2000,
                        step: int = 25) -> float:
    """Least-squares slope of log(count/(n! growth^n)) against log n.

    Recovers the critical exponent empirically from the exact stream.
    """
    data = singularity_data(k, family)
    xs, ys = [], []
    with mp.workprec(WORK_PREC):
        log_growth = mp.log(data.growth)
        for n, count in iter_counts(seed(k, family)):
            if n >= n_lo and (n - n_lo) % step == 0:
                xs.append(float(mp.log(n)))
                ys.append(float(scaled_ratio_log(count, n, log_growth, 0)))
            if n >= n_hi:
                break
    m = len(xs)
    mean_x = sum(xs) / m
    mean_y = sum(ys) / m
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def letter_word_counts(kind: str, nmax: int, max_right_height: int | None = None) -> list[int]:
    """`word_counts` as it was before the level recurrence: one pass over
    post-order words, letter by letter (S a pointer slot, N a node).

    The state per letter is (m, number of trailing slots not yet weighted,
    at most 2); the stack height #S - #N before an N is that node's right
    depth + 2, and follows from m and the word length.
    """
    discount = kind == "compacted"
    top = nmax + 1 if max_right_height is None else max_right_height + 2
    counts = [0] * (nmax + 1)
    # j completed nodes -> weights by number of trailing unweighted slots
    layer = {0: [1, 0, 0]}
    for length in range(2 * nmax + 1):
        nxt: dict[int, list[int]] = {}
        for j, (w0, w1, w2) in layer.items():
            h = length - 2 * j
            t = j + 1  # slot targets: a leaf or one of the j completed nodes
            if h < min(top, nmax - j + 1):  # read S, still able to close by nmax
                state = nxt.setdefault(j, [0, 0, 0])
                state[1] = w0
                state[2] = w1 + w2 * t  # past two pending, the oldest is no cherry slot
            if 2 <= h <= top:  # read N, a node of right depth h - 2
                nxt.setdefault(j + 1, [0, 0, 0])[0] = w0 + w1 * t + w2 * (t * t - j * discount)
        layer = nxt
        n = length // 2
        if length % 2 == 0 and n in layer:  # height 1: a whole tree of n nodes
            counts[n] = layer[n][0] + layer[n][1] * (n + 1)
    return counts


def level_weight(kind: str, j: int, d: int) -> int:
    """w(d) of the level recurrence, from its definition: w(0) = 1, w(1) = t,
    w(2) = t^2 - j (compacted) or t^2 (relaxed), w(d) = t w(d-1), t = j+1."""
    t = j + 1
    if d < 2:
        return t ** d
    w = t * t - j if kind == "compacted" else t * t
    for _ in range(d - 2):
        w *= t
    return w


def level_matrix(kind: str, j: int, size: int) -> list[list[int]]:
    """Dense lower-Hessenberg T(j) on heights 1..size:
    T[a][b] = w(a-b+1) for b <= a+1, and 0 above."""
    return [[level_weight(kind, j, a - b + 1) if b <= a + 1 else 0 for b in range(size)]
            for a in range(size)]


def dense_level_counts(kind: str, nmax: int, size: int) -> list[int]:
    """Counts c_0..c_nmax of trees of right height <= size - 1 by dense
    products X(j+1) = T(j) X(j) from X(1) = (1, ..., 1), c_{j+1} = X(j+1)[1];
    no height is pruned."""
    counts = [1, 1][:nmax + 1]
    x = [1] * size
    for j in range(1, nmax):
        matrix = level_matrix(kind, j, size)
        x = [sum(row[b] * x[b] for b in range(size)) for row in matrix]
        counts.append(x[0])
    return counts


def object_compact(text: str) -> tuple[str, UidTable]:
    """``compaction.uid_compact`` as it was before it wrote the DAG text
    itself: a ``SpineTree`` node per first occurrence and an (owner, side)
    pointer dict, a ``RelaxedDag`` printed by ``dag_to_text``.  Same value
    numbering, keyed by (label, left value number, right value number)."""
    vn: dict = {}
    heights = [-1]  # by value number; the empty tree has value number 0
    pointers: dict[tuple[int, str], int] = {}
    # a subtree reads as (value number, spine node); the spine node is None
    # unless this occurrence is the first, and False for the leaf slot,
    # which is empty but takes no pointer
    empty = (0, None)
    leaf_slot = [(0, False)]  # taken by the first atom read

    def node(left, right, label):
        left_number, left_spine = left
        right_number, right_spine = right
        key = (label, left_number, right_number)
        number = vn.get(key)
        if number is not None:
            return number, None
        number = vn[key] = len(vn) + 1
        heights.append(max(heights[left_number], heights[right_number]) + 1)
        if left_spine is None:
            pointers[(number, "left")] = left_number
        if right_spine is None:
            pointers[(number, "right")] = right_number
        return number, SpineTree(left_spine or None, right_spine)

    def atom(tok: str):
        if tok == ")":
            raise ValueError("unexpected ')'")
        left = leaf_slot.pop() if leaf_slot else empty
        return left if tok == "." else node(left, empty, tok)

    _, root = _read(text, atom, node, labeled=True)
    triples = list(vn)
    order = sorted(range(1, len(triples) + 1), key=heights.__getitem__)
    uid = [0] * (len(triples) + 1)
    for rank, number in enumerate(order, start=1):
        uid[number] = rank
    rows = tuple(((label, uid[left], uid[right]), uid[number])
                 for number in order for label, left, right in [triples[number - 1]])
    return dag_to_text(RelaxedDag(root or None, pointers)), UidTable(rows)


def build_argparse_parser() -> argparse.ArgumentParser:
    """The argparse tree `compacta.cli` was built on, kept as the oracle of
    its table-driven parser: the same values, usage errors and messages."""
    parser = argparse.ArgumentParser(
        prog="compacta",
        description="Exact enumeration and asymptotics of compacted and "
        "relaxed binary trees (hash-consed DAGs) of bounded right height.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compact", help="hash-cons a tree file into a DAG")
    p.add_argument("file", help="s-expression tree file")

    p = sub.add_parser("enumerate", help="exhaustively generate DAGs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-right-height", type=int, default=None)
    p.add_argument("--kind", choices=("relaxed", "compacted"), default="relaxed")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--emit", metavar="FILE", default=None)
    p.add_argument("--budget", type=int, default=None,
                   help="object budget (default 10^8)")

    p = sub.add_parser("count", help="counts from the exact tables")
    p.add_argument("--kind", choices=("relaxed", "compacted"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--table", action="store_true", help="dump the full table as CSV")

    p = sub.add_parser("sequence", help="stream bounded-right-height counts")
    p.add_argument("--family", choices=("relaxed", "compacted"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("operator", help="print a family operator")
    p.add_argument("--family", choices=("L", "M", "relaxed", "compacted"),
                   required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--latex", action="store_true")

    p = sub.add_parser("asymptotics", help="singularity data and constant fits")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--family", choices=("relaxed", "compacted"), required=True)
    p.add_argument("--fit", action="store_true")
    p.add_argument("--upto", type=int, default=2000)
    p.add_argument("--emit-plot", metavar="FILE", default=None,
                   help="write (n, u_n) pairs as CSV")

    sub.add_parser("table1", help="growth/exponent table for k = 1..7")
    sub.add_parser("selftest", help="cross-oracle consistency suite")
    return parser
