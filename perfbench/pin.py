"""Write pins.json: digests of the program's output over every grid point
the workloads draw from, for the outputs no independent oracle covers.

    PYTHONPATH=src python3 perfbench/pin.py

The pins were taken once, at the commit that added the benchmark.  Do not
regenerate them to make a run pass: a changed digest means a changed output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import workloads as w  # noqa: E402

from compacta import dfinite, recurrences  # noqa: E402
from compacta.cli import run  # noqa: E402


def cli_output(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run(list(argv))
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return buf.getvalue().encode("utf-8")


def count_pins(pins: dict) -> None:
    for kind in w.FAMILIES:
        table = recurrences.build_table(kind, w.COUNT_STRATA[-1][1])  # column p = 0
        for lo, hi in w.COUNT_STRATA:
            for n in range(lo, hi + 1):
                pins[f"count/{kind}/{n}"] = oracles.digest(f"{table.count(n)}\n".encode())
        for n in sorted({n for lo, hi in w.TABLE_STRATA for n in range(lo, hi + 1)}):
            pins[f"table/{kind}/{n}"] = oracles.digest(
                cli_output(("count", "--kind", kind, "--n", str(n), "--table")))


def sequence_pins(pins: dict) -> None:
    """All prefixes of one stream per (family, k), hashed as the CLI prints them."""
    grid = sorted({u for lo, hi, _, _ in w.SEQ_STRATA for u in range(lo, hi + 1, w.SEQ_STEP)})
    ks = sorted({k for _, _, lo, hi in w.SEQ_STRATA for k in range(lo, hi + 1)})
    for fam in w.FAMILIES:
        for k in ks:
            values = dfinite.sequence_values(k, fam, grid[-1])
            hashes = {width: hashlib.sha256() for width in {len(str(u)) for u in grid}}
            wanted = set(grid)
            for n, v in enumerate(values):
                s = str(v)
                for width, h in hashes.items():
                    h.update(f"{n:>{width}} {s}\n".encode())
                if n in wanted:
                    pins[f"sequence/{fam}/{k}/{n}"] = hashes[len(str(n))].hexdigest()[:32]
            print(f"sequence {fam} k={k}", flush=True)


def cli_pins(pins: dict) -> None:
    for u_lo, u_hi, k_lo, k_hi in w.FIT_STRATA:
        for fam in w.FAMILIES:
            for k in range(k_lo, k_hi + 1):
                for u in range(u_lo, u_hi + 1, w.FIT_STEP):
                    pins[f"fit/{fam}/{k}/{u}"] = oracles.digest(cli_output(
                        ("asymptotics", "--family", fam, "--k", str(k), "--fit", "--upto", str(u))))
        print(f"fits {u_lo}..{u_hi}", flush=True)
    for fam in w.FAMILIES:
        for k in range(w.LARGE_K[0], w.LARGE_K[1] + 1):
            pins[f"operator/{fam}/{k}"] = oracles.digest(
                cli_output(("operator", "--family", fam, "--k", str(k))))
            pins[f"asymptotics/{fam}/{k}"] = oracles.digest(
                cli_output(("asymptotics", "--family", fam, "--k", str(k))))
    jobs = [w.enumerate_job("compacted", n, None, True) for n in (5, 6)]
    jobs += [w.enumerate_job("compacted", 7, h, True) for h in (2, 3)]
    jobs += [w.enumerate_job("relaxed", n, None, True) for n in (9, 10)]
    jobs += [w.enumerate_job("relaxed", n, h, False) for n in w.LISTING_N for h in w.LISTING_H]
    jobs.append(w.Job(("selftest",), "selftest"))
    for job in jobs:
        pins[job.key] = oracles.digest(cli_output(job.argv))


def main() -> None:
    pins: dict[str, str] = {}
    count_pins(pins)
    sequence_pins(pins)
    # the batch-computed pins must match what the CLI prints
    for key, argv in (("count/relaxed/104", ("count", "--kind", "relaxed", "--n", "104")),
                      ("sequence/compacted/3/600",
                       ("sequence", "--family", "compacted", "--k", "3", "--upto", "600")),
                      ("sequence/relaxed/12/1200",
                       ("sequence", "--family", "relaxed", "--k", "12", "--upto", "1200"))):
        if pins[key] != oracles.digest(cli_output(argv)):
            raise SystemExit(f"batch pin for {key} differs from the CLI output")
    cli_pins(pins)
    oracles.PINS_PATH.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n",
                                 encoding="utf-8")
    print(f"{len(pins)} pins written to {oracles.PINS_PATH}")


if __name__ == "__main__":
    main()
