"""Job lists of the four workloads, drawn from a seed.

A job is one `compacta` command line.  A workload is an endless sequence of
rounds; a round is a fixed list of strata (job classes), and the seed draws
each job's parameters inside its stratum plus the order of the round.  A run
stops on a round boundary, so every run measures the same mix of job classes
whatever the seed and however fast the program is; the seed only moves jobs
inside their strata.  Successive rounds place a stratum's draw at
frac(u0 + r * golden ratio) of its range, with u0 from the seed, so the few
rounds of one run already cover each range evenly.  Both keep medians
comparable across seeds.

Every parameter is drawn from a finite grid (the constants below), so the
outputs that have no independent oracle can be checked against digests pinned
once over the whole grid (see pin.py).

Tree inputs for `compact` are written by this module's own iterative
generators, never by program helpers: the program's printer recurses and
cannot write the deep inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("counts", "streams", "hashcons", "oracles")
FAMILIES = ("relaxed", "compacted")
INPUT = "{input}"  # placeholder for the input file in a `compact` argv

# Strata are narrow ranges: the seed moves a job only a little, so that the
# medians of different seeds agree; the strata together span the ranges.

# counts: (lo, hi) of n for `count --n`, and for the `--table` dumps
COUNT_STRATA = ((101, 107), (123, 129), (145, 151), (167, 173), (189, 195),
                (211, 217), (234, 240))
TABLE_STRATA = ((40, 50), (70, 80))

# streams: (u_lo, u_hi, k_lo, k_hi) strata; u is drawn on a grid of step
# SEQ_STEP (sequence) or FIT_STEP (fits).  Large u pairs with small k so that
# no single stratum dominates a round.
SEQ_STEP = 25
SEQ_STRATA = ((550, 650, 10, 12), (1150, 1250, 7, 9), (1750, 1850, 4, 6),
              (2350, 2450, 1, 3), (2900, 3000, 5, 7))
FIT_STEP = 250
FIT_STRATA = ((1750, 2250, 10, 12), (3750, 4250, 7, 9), (5250, 5750, 4, 6),
              (7500, 8000, 1, 3))
LARGE_K = (20, 40)

# hashcons: random trees of about these many nodes (internal + leaves) in
# three label regimes, from most to least sharing; the mid and large sizes
# shrink as sharing drops so that each size class takes about the same time
# in every regime.  Combs and caterpillars of these depth strata; one input
# per round deeper than the interpreter's default recursion limit.
TREE_NODES = {"plain": (1_000, 20_000, 100_000), "ab": (1_000, 10_000, 50_000),
              "unique": (1_000, 6_000, 30_000)}
SIZE_JITTER = 0.03
DEPTH_STRATA = ((200, 230), (960, 990))
DEEP_DEPTH = (1001, 2000)

# oracles: relaxed listings draw n and the right-height bound from these
LISTINGS = 4
LISTING_N = (3, 4, 5)
LISTING_H = (None, 1, 2)


@dataclass(frozen=True)
class Tree:
    """A generated `compact` input: shape, size, label regime, own seed.

    ``size`` is the node count of a random tree (internal nodes plus leaves)
    and the depth of a comb or caterpillar.
    """

    shape: str  # "random", "comb", "caterpillar"
    size: int
    regime: str  # "plain", "ab", "unique"
    seed: int
    left: bool = True  # comb/caterpillar spine direction


@dataclass(frozen=True)
class Job:
    """One command line; ``key`` names the expected output (see oracles.py)."""

    argv: tuple[str, ...]
    key: str
    tree: Tree | None = None


def rounds(workload: str, seed: int):
    """Yield the rounds (lists of jobs) of a workload, forever."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    draw = Draw(rng)
    make = {"counts": _counts_round, "streams": _streams_round,
            "hashcons": _hashcons_round, "oracles": _oracles_round}[workload]
    while True:
        jobs = make(draw)
        rng.shuffle(jobs)
        yield jobs
        draw.round += 1


class Draw:
    """Seeded draws that spread evenly over successive rounds.

    Each named draw has its own seeded start u0; in round r it takes the
    point frac(u0 + r * golden ratio) of its range.
    """

    PHI = (math.sqrt(5) - 1) / 2

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.round = 0
        self.start: dict[str, float] = {}

    def unit(self, name: str) -> float:
        if name not in self.start:
            self.start[name] = self.rng.random()
        return (self.start[name] + self.round * self.PHI) % 1.0

    def grid(self, name: str, lo: int, hi: int, step: int = 1) -> int:
        count = (hi - lo) // step + 1
        return lo + step * min(int(self.unit(name) * count), count - 1)

    def cycle(self, name: str, options: tuple):
        """The options in turn, from a seeded starting point."""
        if name not in self.start:
            self.start[name] = self.rng.randrange(len(options))
        return options[(int(self.start[name]) + self.round) % len(options)]


def _counts_round(draw: Draw) -> list[Job]:
    jobs = []
    for kind in FAMILIES:
        for i, (lo, hi) in enumerate(COUNT_STRATA):
            n = draw.grid(f"{kind}{i}", lo, hi)
            jobs.append(Job(("count", "--kind", kind, "--n", str(n)), f"count/{kind}/{n}"))
        for i, (lo, hi) in enumerate(TABLE_STRATA):
            n = draw.grid(f"{kind}table{i}", lo, hi)
            jobs.append(Job(("count", "--kind", kind, "--n", str(n), "--table"),
                            f"table/{kind}/{n}"))
    return jobs


def _streams_round(draw: Draw) -> list[Job]:
    jobs = []
    for i, (u_lo, u_hi, k_lo, k_hi) in enumerate(SEQ_STRATA):
        fam = draw.cycle(f"seq{i}.family", FAMILIES)
        k, u = draw.grid(f"seq{i}.k", k_lo, k_hi), draw.grid(f"seq{i}.u", u_lo, u_hi, SEQ_STEP)
        jobs.append(Job(("sequence", "--family", fam, "--k", str(k), "--upto", str(u)),
                        f"sequence/{fam}/{k}/{u}"))
    for i, (u_lo, u_hi, k_lo, k_hi) in enumerate(FIT_STRATA):
        for fam in FAMILIES:
            k = draw.grid(f"fit{i}{fam}.k", k_lo, k_hi)
            u = draw.grid(f"fit{i}{fam}.u", u_lo, u_hi, FIT_STEP)
            jobs.append(Job(("asymptotics", "--family", fam, "--k", str(k), "--fit",
                             "--upto", str(u)), f"fit/{fam}/{k}/{u}"))
    fam, k = draw.cycle("operator.family", FAMILIES), draw.grid("operator.k", *LARGE_K)
    jobs.append(Job(("operator", "--family", fam, "--k", str(k)), f"operator/{fam}/{k}"))
    fam, k = draw.cycle("asymptotics.family", FAMILIES), draw.grid("asymptotics.k", *LARGE_K)
    jobs.append(Job(("asymptotics", "--family", fam, "--k", str(k)), f"asymptotics/{fam}/{k}"))
    return jobs


def _compact(draw: Draw, shape: str, size: int, name: str) -> Job:
    tree = Tree(shape, size, "plain", draw.rng.getrandbits(64),
                draw.cycle(f"{name}.left", (True, False)))
    return Job(("compact", INPUT), "compact", tree)


def _hashcons_round(draw: Draw) -> list[Job]:
    jobs = []
    for regime, sizes in TREE_NODES.items():
        for nodes in sizes:
            jitter = SIZE_JITTER * (2 * draw.unit(f"{regime}{nodes}") - 1)
            tree = Tree("random", round(nodes * math.exp(jitter)), regime,
                        draw.rng.getrandbits(64))
            jobs.append(Job(("compact", INPUT), "compact", tree))
    for shape in ("comb", "caterpillar"):
        for i, (lo, hi) in enumerate(DEPTH_STRATA):
            name = f"{shape}{i}"
            jobs.append(_compact(draw, shape, draw.grid(name, lo, hi), name))
    shape = draw.cycle("deep.shape", ("comb", "caterpillar"))
    jobs.append(_compact(draw, shape, draw.grid("deep", *DEEP_DEPTH), "deep"))
    return jobs


def enumerate_job(kind: str, n: int, h: int | None, count_only: bool) -> Job:
    argv = ["enumerate", "--kind", kind, "--n", str(n)]
    if h is not None:
        argv += ["--max-right-height", str(h)]
    if count_only:
        argv.append("--count-only")
    mode = "count" if count_only else "list"
    return Job(tuple(argv), f"enumerate/{kind}/{n}/{'-' if h is None else h}/{mode}")


def _oracles_round(draw: Draw) -> list[Job]:
    jobs = [
        enumerate_job("compacted", 5, None, True),
        enumerate_job("compacted", 6, None, True),
        enumerate_job("compacted", 7, 2, True),
        enumerate_job("compacted", 7, 3, True),
        enumerate_job("relaxed", 9, None, True),
        enumerate_job("relaxed", 10, None, True),
        Job(("selftest",), "selftest"),
    ]
    for i in range(LISTINGS):
        n, h = draw.cycle(f"list{i}.n", LISTING_N), draw.cycle(f"list{i}.h", LISTING_H)
        jobs.append(enumerate_job("relaxed", n, h, False))
    return jobs


# ---------------------------------------------------------------------------
# Tree inputs
# ---------------------------------------------------------------------------


def tree_text(tree: Tree) -> str:
    """The s-expression of a generated tree, built without recursion."""
    rng = random.Random(tree.seed)
    if tree.shape == "random":
        return _random_tree(tree.size // 2, tree.regime, rng)
    if tree.shape in ("comb", "caterpillar"):
        # depth d: d-1 spine nodes above a bottom node whose children are leaves
        leg = "." if tree.shape == "comb" else "( . . )"
        opens, closes = [], []
        for _ in range(tree.size - 1):
            opens.append("(" if tree.left else f"( {leg}")
            closes.append(f"{leg} )" if tree.left else ")")
        return " ".join(opens + ["( . . )"] + closes[::-1])
    raise ValueError(f"unknown tree shape {tree.shape!r}")


def _random_tree(internal: int, regime: str, rng: random.Random) -> str:
    """Random split tree (depth O(log n)) with ``internal`` internal nodes."""
    out: list[str] = []
    stack: list[int | str] = [internal]
    serial = 0
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        serial += 1
        if regime == "plain":
            label = ""
        elif regime == "ab":
            label = rng.choice("ab")
        else:
            label = f"v{serial}"
        if item == 0:
            out.append(label or ".")
            continue
        left = rng.randrange(item)
        out.append(f"( {label}" if label else "(")
        stack.append(")")
        stack.append(item - 1 - left)
        stack.append(left)
    return " ".join(out)
