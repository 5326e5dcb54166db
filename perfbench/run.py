"""The compacta benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload counts --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all      # the four in turn

Workloads (see workloads.py for the strata each draws from):

  counts    `count --n N` (O(n^3) count tables) plus a few `--table` dumps
  streams   `sequence` and `asymptotics --fit` over the D-finite streams, plus
            large-k `operator` and `asymptotics` jobs
  hashcons  `compact FILE` on generated trees, combs and caterpillars; one
            input per round is deeper than the default recursion limit
  oracles   brute-force `enumerate` jobs and `selftest`

Each job is one command line run through `compacta.cli.run(argv)` in a fresh
process forked from this already-imported process, with stdout and stderr
going to files: process-wide caches start cold, the import is paid once (and
measured as setup_s), and the recursion limit is the interpreter's default.
One client runs one job at a time (a closed loop with no think time), in
whole rounds, at least two, until --seconds have passed; input generation and
output checks run between jobs and are not timed.  Every output is checked
(oracles.py); a job that raises, exits non-zero or prints a wrong output
fails, and counts as a miss (+inf) in the latency percentiles.

--trace 0 prints the end-to-end metrics; --trace 1 runs every job both
untraced and traced, and prints the per-layer metrics of tracing.py plus the
tracing overhead (traced minus untraced job time).  The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; `correct` is
false when some job printed a wrong output, and `failed` counts every failed
job.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_IMPORTS = 9  # fresh interpreters per run; setup_s is their median
MIN_ROUNDS = 2  # every run measures at least two whole rounds
TAIL_BEYOND = 10
JOB_TIMEOUT_S = 60.0
STOP_AFTER_S = 100.0  # no job starts later than this into the run ...
RUN_LIMIT_S = 165.0  # ... and none runs past this
MISS = 1e9  # value reported for a percentile that falls on a failed job

END_TO_END_UNITS = {
    "job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s", "setup_s": "s",
    "peak_rss_mib": "MiB", "ok_frac": "ratio",
}
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import compacta.cli; "
               "print(time.perf_counter() - t)")


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout


def measure_setup() -> float:
    """Median wall time of `import compacta.cli` in fresh interpreters."""
    times = []
    for _ in range(SETUP_IMPORTS):
        done = subprocess.run([sys.executable, "-I", "-c", IMPORT_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def in_child(fn, *args):
    """fn(*args) in a forked process; its JSON result comes back by pipe.

    Keeps this process's heap, which every job inherits, the same size
    whatever the inputs and outputs.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            payload = json.dumps({"value": fn(*args)})
        except BaseException as exc:  # forked child: report, never return to the loop
            payload = json.dumps({"error": f"{type(exc).__name__}: {exc}"})
        with os.fdopen(w, "wb") as fh:
            fh.write(payload.encode("utf-8"))
        os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    result = json.loads(data or b'{"error": "helper died"}')
    if "error" in result:
        raise RuntimeError(result["error"])
    return result["value"]


def write_input(tree: workloads.Tree, path: str) -> None:
    Path(path).write_text(workloads.tree_text(tree), encoding="utf-8")


def judge(job: workloads.Job, code: int, out_path: str, err_path: str,
          pins: dict) -> dict:
    """Verdict on one finished job: ok, wrong (bad output) and the reason."""
    if code != 0:
        lines = Path(err_path).read_text(encoding="utf-8", errors="replace").splitlines()
        last = lines[-1] if lines else ""
        return {"ok": False, "wrong": False, "reason": f"exit {code}: {last[:200]}"}
    out = Path(out_path).read_bytes()
    try:
        info = oracles.check(job, out, pins)
    except oracles.Wrong as exc:
        return {"ok": False, "wrong": True, "reason": str(exc), "out_bytes": len(out)}
    except Exception as exc:  # malformed output the checks cannot even parse
        return {"ok": False, "wrong": True, "reason": f"unreadable output: {exc!r}"[:300],
                "out_bytes": len(out)}
    return {"ok": True, "wrong": False, "reason": "", **info}


def time_estimate(n: int, h) -> float | None:
    """Wall time of the spine-product budget estimate for a brute-force job."""
    from compacta import exhaustive

    fn = getattr(exhaustive, "count_relaxed_spine_product", None)
    if fn is None:
        return None
    t0 = perf_counter()
    fn(n, h)
    return perf_counter() - t0


def launch(argv, out_path: str, err_path: str, tracer):
    """Fork a job.  The parent gets (pid, start time); the child gets pid 0
    with stdout and stderr on the job's files and, when traced, the layer
    wrappers installed and the root span open."""
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = perf_counter()
    pid = os.fork()
    if pid:
        return pid, t0
    for fd, path in ((1, out_path), (2, err_path)):
        target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(target, fd)
        os.close(target)
    sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
    sys.stderr = open(2, "w", encoding="utf-8", closefd=False)
    if tracer is not None:
        # a wrapper adds a frame to the deepest call chain; raising the limit
        # by as much keeps the input depth at which the program overflows
        tracing.install(tracer)
        sys.setrecursionlimit(sys.getrecursionlimit() + tracing.WRAPPER_FRAMES)
        tracer.start_root()
    return 0, t0


def exit_child(code, tracer, trace_path: str):
    if tracer is not None:
        spans = tracer.stop_root()
    sys.stdout.flush()
    sys.stderr.flush()
    if tracer is not None:
        Path(trace_path).write_text(json.dumps(spans), encoding="utf-8")
    os._exit(code if isinstance(code, int) and 0 <= code < 256 else 1)


def reap(pid: int, t0: float, limit: float) -> tuple[float, int, int]:
    """Wait for a job; returns (wall seconds, exit code, peak RSS in KiB)."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
    except JobTimeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall, code = math.inf, 124
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return wall, code, usage.ru_maxrss


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=6.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own; the last line
    sums them up, with the metrics named <workload>.<metric>."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=RUN_LIMIT_S + 30)
        print(done.stdout, end="", flush=True)
        if done.returncode != 0:
            print(done.stderr, end="", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "compacta" / "cli.py").is_file():
        print(f"error: no compacta sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import compacta.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: compacta imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    for stale in WORK.glob("job.*"):
        stale.unlink()
    pins = oracles.load_pins()
    missing = tracing.missing_functions()
    setup_s = measure_setup()
    signal.signal(signal.SIGALRM, _alarm)

    out_path, err_path = str(WORK / "job.out"), str(WORK / "job.err")
    input_path, trace_path = str(WORK / "input.sexp"), str(WORK / "job.trace")
    modes = (False, True) if args.trace else (False,)
    records: list[dict] = []  # one per job execution
    traced_jobs: list[dict] = []
    spans: list[dict] = []
    round_s: list[float] = []  # wall time of each round, checks included
    rounds = workloads.rounds(args.workload, args.seed)
    start = perf_counter()

    def elapsed() -> float:
        return perf_counter() - start

    while elapsed() < STOP_AFTER_S and (len(round_s) < MIN_ROUNDS or elapsed() < args.seconds):
        for job in next(rounds):
            if elapsed() > STOP_AFTER_S:
                break
            jargv = list(job.argv)
            if job.tree is not None:
                in_child(write_input, job.tree, input_path)
                jargv = [input_path if a == workloads.INPUT else a for a in jargv]
            walls = {}
            # alternate which of the pair runs first, so that neither is
            # systematically the one that finds the caches warm
            for traced in modes if len(records) % 4 == 0 else modes[::-1]:
                tracer = tracing.Tracer(len(traced_jobs)) if traced else None
                pid, t0 = launch(jargv, out_path, err_path, tracer)
                if pid == 0:
                    # The job runs here, two frames deep (this module and
                    # main), as under the `compacta` console script.
                    try:
                        code = cli.run(jargv)
                    except SystemExit as exc:
                        code = 0 if exc.code is None else exc.code
                    except BaseException:  # forked child: report like the interpreter
                        traceback.print_exc()
                        code = 1
                    exit_child(code, tracer, trace_path)
                limit = max(1.0, min(JOB_TIMEOUT_S, RUN_LIMIT_S - elapsed()))
                wall, code, rss_kib = reap(pid, t0, limit)
                verdict = in_child(judge, job, code, out_path, err_path, pins)
                records.append({"key": job.key, "traced": traced, "wall": wall,
                                "rss_kib": rss_kib, **verdict})
                walls[traced] = wall
                if traced:
                    traced_verdict = verdict
                    if Path(trace_path).exists():
                        spans.extend(json.loads(Path(trace_path).read_text(encoding="utf-8")))
                        Path(trace_path).unlink()
            if args.trace:
                traced_jobs.append(_trace_job(job, walls, traced_verdict))
        round_s.append(round(elapsed() - sum(round_s), 2))

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "round_s": round_s, "python": platform.python_version(),
            "src_lines": src_lines()}
    if args.trace:
        metrics = tracing.layer_metrics(spans, traced_jobs, missing)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with trace_file.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "missing": missing}) + "\n")
            for entry in traced_jobs:
                fh.write(json.dumps({"job": entry}) + "\n")
            for s in spans:
                fh.write(json.dumps(s) + "\n")
        meta["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = end_to_end(records, setup_s)
    report(meta, records, metrics, tail_line=not args.trace)
    result = {
        "correct": not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _trace_job(job: workloads.Job, walls: dict, verdict: dict) -> dict:
    entry = {"key": job.key, "untraced_s": walls[False], "traced_s": walls[True],
             "out_bytes": verdict.get("out_bytes", 0), "nodes": verdict.get("nodes", 0),
             "estimate_s": None}
    parts = job.key.split("/")
    if parts[0] == "enumerate" and not (parts[1] == "relaxed" and parts[4] == "count"):
        h = None if parts[3] == "-" else int(parts[3])
        entry["estimate_s"] = in_child(time_estimate, int(parts[2]), h)
    return entry


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; ``times`` sorted, failures as +inf."""
    i = max(len(times) - TAIL_BEYOND - 1, 0)
    return times[i], 100.0 * (i + 1) / len(times)


def end_to_end(records: list[dict], setup_s: float) -> dict:
    times = sorted(r["wall"] if r["ok"] else math.inf for r in records)
    ok = sum(r["ok"] for r in records)
    busy = sum(r["wall"] for r in records if math.isfinite(r["wall"]))
    tail_s, _ = tail(times)
    values = {
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "jobs_per_s": ok / busy if busy else 0.0,
        "setup_s": setup_s,
        "peak_rss_mib": max(r["rss_kib"] for r in records) / 1024,
        "ok_frac": ok / len(records),
    }
    return {name: {"value": v if math.isfinite(v) else MISS, "unit": END_TO_END_UNITS[name]}
            for name, v in values.items()}


def report(meta: dict, records: list[dict], metrics: dict, tail_line: bool) -> None:
    """Human-readable lines ahead of the JSON result."""
    print("  ".join(f"{k} {v}" for k, v in meta.items()))
    for name, m in metrics.items():
        value = m["value"]
        shown = "absent: " + m["absent"] if value is None else f"{value:.6g}"
        print(f"{name:<38} {shown} {m['unit'] if value is not None else ''}")
    if tail_line:
        times = sorted(r["wall"] if r["ok"] else math.inf for r in records)
        _, pct = tail(times)
        print(f"job_tail_s is p{pct:.1f} of {len(times)} jobs ({TAIL_BEYOND} beyond it)")
    failed = [r for r in records if not r["ok"]]
    print(f"fail_frac {len(failed) / len(records):.4f} ({len(failed)} of {len(records)} failed)")
    reasons: dict[str, int] = {}
    for r in failed:
        reason = f"{r['key'].split('/')[0]}: {r['reason']}"
        reasons[reason] = reasons.get(reason, 0) + 1
    for reason, count in sorted(reasons.items()):
        print(f"  {count} x {reason}")


if __name__ == "__main__":
    sys.exit(main())
