"""Checks of job outputs, written without any program code.

Where an independent expectation exists it is used:

* the paper's counts for n <= 9 (bounded and unbounded counts agree while
  n <= k + 1, because a spine of k + 1 nodes has right height at most k);
* closed forms recomputed here: (2n-1)!! for relaxed k = 1,
  (n-1)! F(2n) for relaxed k = 2, and for compacted k = 1 the coefficients
  of exp(z/2) (1-2z)^(-5/4), via the recurrence
  d(m+1) = (2m+3) d(m) - m d(m-1) that (1-2z) f' = (3-z) f gives;
* the spine product (relaxed counts, any right-height bound) by this
  module's own dynamic programme;
* for `compact`, this module's own iterative hash-conser: the number of
  distinct subtrees, the identifier table re-expanded to the input, and the
  DAG text re-expanded to the label-erased input.

Everything else is compared with sha256 digests of the exact output bytes,
pinned over the finite parameter grid the seeds draw from (pins.json).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from functools import lru_cache
from pathlib import Path

from workloads import Job, tree_text

PINS_PATH = Path(__file__).with_name("pins.json")

COMPACTED = (1, 1, 3, 15, 111, 1119, 14487, 230943, 4395855, 97608831)
RELAXED = (1, 1, 3, 16, 127, 1363, 18628, 311250, 6173791, 142190703)
PAPER = {"compacted": COMPACTED, "relaxed": RELAXED}

# streamed terms have tens of thousands of digits
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


class Wrong(Exception):
    """The output is not what the job should print."""


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def load_pins() -> dict[str, str]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def check(job: Job, out: bytes, pins: dict[str, str]) -> dict:
    """Check one output; returns counters the trace reports.

    Raises Wrong with the reason when the output is incorrect.
    """
    kind = job.key.split("/")[0]
    info = {"out_bytes": len(out)}
    if kind == "compact":
        info.update(_check_compact(tree_text(job.tree), out.decode("utf-8")))
        return info
    {"count": _check_count, "table": _check_table, "sequence": _check_sequence,
     "fit": _check_asymptotics, "asymptotics": _check_asymptotics,
     "operator": _check_operator, "enumerate": _check_enumerate,
     "selftest": _check_selftest}[kind](job.key, out.decode("utf-8"))
    expected = pins.get(job.key)
    if expected is None:
        raise Wrong(f"no pinned digest for {job.key}")
    if digest(out) != expected:
        raise Wrong(f"output digest differs from the pin for {job.key}")
    return info


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


# ---------------------------------------------------------------------------
# Counting oracles
# ---------------------------------------------------------------------------


def closed_form_terms(family: str, k: int, upto: int) -> list[int] | None:
    """Counts of right height <= k for n = 0..upto, when a closed form exists."""
    if family == "relaxed" and k == 1:
        out, c = [1], 1
        for n in range(1, upto + 1):
            c *= 2 * n - 1
            out.append(c)
        return out
    if family == "relaxed" and k == 2:
        out, fact, f_prev, f_cur = [1], 1, 0, 1  # F(2n-2), F(2n) at n = 1
        for n in range(1, upto + 1):
            out.append(fact * f_cur)
            fact *= n
            f_prev, f_cur = f_cur, 3 * f_cur - f_prev
        return out
    if family == "compacted" and k == 1:
        out, d_prev, d_cur = [1], 0, 1  # d(m-1), d(m) at m = 0
        for m in range(upto):
            out.append(d_cur)
            d_prev, d_cur = d_cur, (2 * m + 3) * d_cur - m * d_prev
        return out
    return None


def spine_product(n: int, h: int | None) -> int:
    """Relaxed DAGs of size n and right height <= h (None: unbounded).

    Sums over spines the product of (pool + 1) over the pointer slots: a
    subtree of size s whose traversal starts with o completed nodes splits
    into a left part (size i, start o) and a right part (size s-1-i, start
    o+i, bound h-1); an empty position is a slot with o + 1 targets.
    """
    @lru_cache(maxsize=None)
    def f(s: int, o: int, bound: int | None) -> int:
        if s == 0:
            return o + 1
        if bound is not None and bound < 0:
            return 0
        right = None if bound is None else bound - 1
        return sum(f(i, o, bound) * f(s - 1 - i, o + i, right) for i in range(s))

    return f(n, 0, h)


def _check_count(key: str, text: str) -> None:
    _, kind, n = key.split("/")
    n = int(n)
    _expect(text.endswith("\n") and text.count("\n") == 1, "count prints one line")
    if n < len(PAPER[kind]):
        _expect(int(text) == PAPER[kind][n], "count differs from the paper")


def _check_table(key: str, text: str) -> None:
    _, kind, n = key.split("/")
    n = int(n)
    lines = text.splitlines()
    _expect(lines[0] == "n,p,value", "table header")
    _expect(len(lines) == 1 + (n + 1) * (n + 2) // 2, "table size")
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    for i, p, v in rows:
        if i == 0:
            _expect(v == p + 1, f"row 0 at p={p}")
        elif i == 1:
            _expect(v == (p * p + p + 1 if kind == "compacted" else (p + 1) ** 2),
                    f"row 1 at p={p}")
        if p == 0 and i < len(PAPER[kind]):
            _expect(v == PAPER[kind][i], f"count n={i} differs from the paper")


def _check_sequence(key: str, text: str) -> None:
    _, family, k, upto = key.split("/")
    k, upto = int(k), int(upto)
    lines = text.splitlines()
    _expect(len(lines) == upto + 1, "one line per term")
    width = len(str(upto))
    values = {}
    closed = closed_form_terms(family, k, upto)
    sample = set(range(min(upto, 40) + 1)) | set(range(0, upto + 1, 97)) | {upto}
    for n in sample:
        head, value = lines[n][:width], lines[n][width + 1:]
        _expect(head.strip() == str(n), f"line {n} index")
        values[n] = int(value)
    for n in range(min(upto, k + 1, len(PAPER[family]) - 1) + 1):
        _expect(values[n] == PAPER[family][n], f"term {n} differs from the paper")
    if closed is not None:
        for n in sample:
            _expect(values[n] == closed[n], f"term {n} differs from the closed form")


def _check_asymptotics(key: str, text: str) -> None:
    parts = key.split("/")
    family, k = parts[1], int(parts[2])
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line
                  and not line.startswith("  "))
    _expect(fields.get("k") == str(k) and fields.get("family") == family, "header")
    rho = 1 / (4 * math.cos(math.pi / (k + 3)) ** 2)
    _expect(abs(float(fields["rho"]) - rho) < 1e-11, "rho")
    _expect(abs(float(fields["growth"]) - 1 / rho) < 1e-10, "growth")
    if family == "relaxed":
        _expect(_relaxed_exponent_ok(fields["exponent"], k), "exponent")
    if parts[0] == "fit":
        upto = int(parts[3])
        ladder = sorted({max(upto >> j, 1) for j in range(5)})
        got = [int(line.split("(")[1].split(")")[0])
               for line in text.splitlines() if line.startswith("  u(")]
        _expect(got == ladder, "fit ladder")
        _expect(math.isfinite(float(fields["constant estimate"])), "constant estimate")


def _relaxed_exponent_ok(field: str, k: int) -> bool:
    exact = field.split()[0]
    want = f"-{k // 2}" if k % 2 == 0 else f"-{k}/2"
    return exact == want if k else exact == "0"


def _check_operator(key: str, text: str) -> None:
    _, family, k = key.split("/")
    order = int(k) + (1 if family == "compacted" else 0)
    _expect(text.count("\n") == 1, "operator prints one line")
    _expect(f"*D^{order}" in text and f"*D^{order + 1}" not in text, "operator order")


def _check_enumerate(key: str, text: str) -> None:
    _, kind, n, h, mode = key.split("/")
    n, h = int(n), (None if h == "-" else int(h))
    if mode == "count":
        value = int(text)
        if kind == "relaxed":
            _expect(value == spine_product(n, h), "count differs from the spine product")
        elif h is None:
            _expect(value == PAPER[kind][n], "count differs from the paper")
        else:
            _expect(0 < value <= spine_product(n, h), "compacted count above the relaxed one")
        return
    lines = text.splitlines()
    _expect(len(lines) == spine_product(n, h), "listing size differs from the spine product")
    _expect(len(set(lines)) == len(lines), "listing repeats a DAG")
    _expect(all(line.count("(") == n for line in lines), "listed DAG of the wrong size")


def _check_selftest(key: str, text: str) -> None:
    lines = text.splitlines()
    _expect(lines[-1] == "OK", "selftest did not report OK")
    _expect(all(line.startswith("PASS") for line in lines[:-2]), "selftest check failed")


# ---------------------------------------------------------------------------
# Hash-consing oracle
# ---------------------------------------------------------------------------


def _tokens(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _canonical(tokens: list[str]) -> str:
    """The DAG text as the program prints it: "(l r)" with one space."""
    return "".join(t if t == ")" or i == 0 or tokens[i - 1] == "(" else " " + t
                   for i, t in enumerate(tokens))


class Interner:
    """Value numbers of (label, left, right) triples, 1, 2, ... in order of
    first completion; 0 is the empty tree.  Keeps each triple's height."""

    def __init__(self):
        self.ids: dict[tuple, int] = {}
        self.heights = [-1]

    def __call__(self, key: tuple) -> int:
        vid = self.ids.get(key)
        if vid is None:
            vid = self.ids[key] = len(self.ids) + 1
            self.heights.append(1 + max(self.heights[key[1]], self.heights[key[2]]))
        return vid


class Source:
    """A tree text hash-consed without recursion.

    ``labeled`` numbers subtrees with labels; ``erased`` numbers their
    shapes, where a labeled leaf is a node with two empty children.  For
    every node, ``spans`` maps its first token to (end token, labeled id).
    """

    def __init__(self, text: str):
        self.tokens = tokens = _tokens(text)
        self.labeled, self.erased = Interner(), Interner()
        self.spans: dict[int, tuple[int, int]] = {}
        self.nodes = 0
        stack: list[list] = []  # [first token, label, labeled ids, erased ids]
        i = 0
        while i < len(tokens):
            tok, at = tokens[i], i
            i += 1
            if tok == "(":
                label = None
                if tokens[i] not in ("(", ")", "."):
                    label = tokens[i]
                    i += 1
                stack.append([at, label, [], []])
                continue
            if tok == ")":
                at, label, lab, era = stack.pop()
                ids = (self.labeled((label, lab[0], lab[1])),
                       self.erased((None, era[0], era[1])))
            elif tok == ".":
                ids = (0, 0)
            else:
                ids = (self.labeled((tok, 0, 0)), self.erased((None, 0, 0)))
            if tok != ".":
                self.nodes += 1
                self.spans[at] = (i, ids[0])
            if stack:
                stack[-1][2].append(ids[0])
                stack[-1][3].append(ids[1])
            else:
                self.root = ids

    def dag_text(self) -> str:
        """The compacted DAG: the tree in pre-order, where a subtree seen
        before becomes a pointer to the post-order index of its first
        occurrence (its labeled id) and every empty slot reads @0."""
        out, rendered, tokens = [], set(), self.tokens
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok == ".":
                out.append("@0")
            elif tok == ")":
                out.append(")")
            else:
                end, vid = self.spans[i]
                if vid in rendered:
                    out.append(f"@{vid}")
                    i = end
                    continue
                rendered.add(vid)
                if tok != "(":
                    out += ["(", "@0", "@0", ")"]  # labeled leaf
                else:
                    out.append("(")
                    if tokens[i + 1] not in ("(", ")", "."):
                        i += 1  # skip the label
            i += 1
        return _canonical(out)


def _check_compact(source_text: str, text: str) -> dict:
    source = Source(source_text)
    labeled, erased = source.labeled, source.erased
    distinct = len(labeled.ids)
    lines = text.splitlines()
    _expect(lines[0] == "label,uid_left,uid_right,uid", "table header")
    rows = lines[1:-1]
    _expect(len(rows) == distinct, f"{len(rows)} table rows for {distinct} distinct subtrees")

    # the table re-expands to the input, in (height, first occurrence) order
    by_uid = {0: 0}
    previous = (-1, 0)
    for line in rows:
        label, ul, ur, uid = line.rsplit(",", 3)
        ul, ur, uid = int(ul), int(ur), int(uid)
        _expect(uid == len(by_uid) and ul < uid and ur < uid, f"row {uid} order")
        vid = by_uid[uid] = labeled((label or None, by_uid[ul], by_uid[ur]))
        _expect(len(labeled.ids) == distinct, f"row {uid} names a subtree the input lacks")
        _expect((labeled.heights[vid], vid) > previous, f"row {uid} out of height order")
        previous = (labeled.heights[vid], vid)
    _expect(by_uid[len(rows)] == source.root[0], "table root is not the input")

    # the DAG re-expands to the label-erased input ...
    tokens = _tokens(lines[-1])
    completed = 0
    node_ids = [0]  # erased value number of each post-order index
    stack: list[list[int]] = []
    for tok in tokens:
        if tok == "(":
            stack.append([])
            continue
        if tok == ")":
            left, right = stack.pop()
            completed += 1
            node_ids.append(erased((None, left, right)))
            vid = node_ids[-1]
        else:
            target = int(tok[1:])
            _expect(target <= completed, f"pointer @{target} to a later node")
            vid = node_ids[target]
        if stack:
            stack[-1].append(vid)
    _expect(completed == distinct, f"{completed} DAG nodes for {distinct} distinct subtrees")
    _expect(node_ids[-1] == source.root[1], "DAG does not expand to the input")
    # ... and is exactly the first-occurrence DAG, byte for byte
    _expect(lines[-1] == source.dag_text(), "DAG text differs from the compacted input")
    return {"rows": len(rows), "nodes": source.nodes}
