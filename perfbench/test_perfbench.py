"""Tests of the benchmark itself: deterministic job lists, pins that agree
with the independent oracles, and failed-job accounting.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def first_rounds(workload: str, seed: int, count: int = 3):
    return list(itertools.islice(workloads.rounds(workload, seed), count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_are_deterministic_per_seed(workload):
    assert first_rounds(workload, 7) == first_rounds(workload, 7)
    assert first_rounds(workload, 7) != first_rounds(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_their_strata(workload):
    # every round has the same job classes, whatever the seed
    def classes(seed):
        return [sorted(job.key.split("/")[0] + (job.tree.regime if job.tree else "")
                       for job in r)
                for r in first_rounds(workload, seed)]
    assert classes(1) == classes(2) == classes(3)


def test_every_drawn_job_has_an_expectation():
    pins = oracles.load_pins()
    for workload in workloads.WORKLOADS:
        for seed in range(5):
            for job in itertools.chain.from_iterable(first_rounds(workload, seed, 2)):
                assert job.key == "compact" or job.key in pins, job.key


def test_tree_inputs_are_deterministic_and_deep_ones_exceed_the_limit():
    jobs = [j for r in first_rounds("hashcons", 3, 4) for j in r]
    deep = [j for j in jobs if j.tree.shape != "random"
            and j.tree.size > workloads.DEPTH_STRATA[-1][1]]
    assert len(deep) == 4
    assert all(j.tree.size > sys.getrecursionlimit() for j in deep)
    tree = jobs[0].tree
    assert workloads.tree_text(tree) == workloads.tree_text(tree)
    comb = workloads.tree_text(workloads.Tree("comb", 3, "plain", 0))
    assert comb == "( ( ( . . ) . ) . )"


def pin_of(text: str) -> str:
    return oracles.digest(text.encode("utf-8"))


@pytest.mark.parametrize("family,k", [("relaxed", 1), ("relaxed", 2), ("compacted", 1)])
@pytest.mark.parametrize("upto", [600, 1200, 2400])
def test_sequence_pins_agree_with_closed_forms(family, k, upto):
    width = len(str(upto))
    terms = oracles.closed_form_terms(family, k, upto)
    text = "".join(f"{n:>{width}} {v}\n" for n, v in enumerate(terms))
    assert oracles.load_pins()[f"sequence/{family}/{k}/{upto}"] == pin_of(text)


def test_closed_forms_agree_with_the_paper():
    for family, k in (("relaxed", 1), ("relaxed", 2), ("compacted", 1)):
        terms = oracles.closed_form_terms(family, k, k + 1)
        assert terms == list(oracles.PAPER[family][:k + 2])
    assert oracles.closed_form_terms("relaxed", 1, 6)[-1] == 10395  # 11!!


def test_relaxed_pins_agree_with_the_spine_product():
    pins = oracles.load_pins()
    for n in (104, 148):
        assert pins[f"count/relaxed/{n}"] == pin_of(f"{oracles.spine_product(n, None)}\n")
    assert pins["enumerate/relaxed/10/-/count"] == pin_of(f"{oracles.spine_product(10, None)}\n")
    assert oracles.spine_product(9, None) == oracles.RELAXED[9]
    assert [oracles.spine_product(n, 0) for n in range(6)] == [1, 1, 2, 6, 24, 120]


def cli_output(argv) -> bytes:
    from compacta.cli import run

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(list(argv)) == 0
    return buf.getvalue().encode("utf-8")


def test_hash_conser_checks_compact_outputs(tmp_path):
    tree = workloads.Tree("random", 3000, "ab", 11)
    path = tmp_path / "t.sexp"
    path.write_text(workloads.tree_text(tree), encoding="utf-8")
    job = workloads.Job(("compact", str(path)), "compact", tree)
    out = cli_output(job.argv)
    info = oracles.check(job, out, {})
    assert info["nodes"] == 2 * (3000 // 2) + 1 and 0 < info["rows"] < info["nodes"]
    lines = out.decode().splitlines()
    swapped = "\n".join(lines[:1] + [lines[2], lines[1]] + lines[3:]) + "\n"
    dag_start = out.rindex(b"\n", 0, -1) + 1
    for bad in (out.replace(b"@1", b"@2", 1), out[:dag_start] + b" " + out[dag_start:],
                swapped.encode(), b"\n".join(out.split(b"\n")[:-3] + [b"", b""])):
        with pytest.raises(oracles.Wrong):
            oracles.check(job, bad, {})


def test_corrupted_output_counts_as_a_failed_job(tmp_path):
    job = workloads.Job(("count", "--kind", "compacted", "--n", "40", "--table"),
                        "table/compacted/40")
    pins = oracles.load_pins()
    out, err = tmp_path / "out", tmp_path / "err"
    good = cli_output(job.argv)
    err.write_text("")
    records = []
    for data in (good, good.replace(b"111", b"112")):
        out.write_bytes(data)
        verdict = bench.judge(job, 0, str(out), str(err), pins)
        records.append({"key": job.key, "wall": 0.5, "rss_kib": 1024, **verdict})
    err.write_text("Traceback ...\nRecursionError: maximum recursion depth exceeded\n")
    crash = bench.judge(job, 1, str(out), str(err), pins)
    assert crash["reason"].endswith("RecursionError: maximum recursion depth exceeded")
    records.append({"key": job.key, "wall": 0.1, "rss_kib": 1024, **crash})
    assert [r["ok"] for r in records] == [True, False, False]
    assert [r["wrong"] for r in records] == [False, True, False]
    metrics = bench.end_to_end(records * 10, setup_s=0.1)
    assert metrics["ok_frac"]["value"] == pytest.approx(1 / 3)
    assert metrics["job_p50_s"]["value"] == bench.MISS  # two thirds are misses
    assert metrics["jobs_per_s"]["value"] == pytest.approx(10 / 11)


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(30)]
    value, pct = bench.tail(times)
    assert value == 19.0 and sum(t > value for t in times) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert bench.tail(times[:5] + [math.inf] * 10)[0] == 4.0


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(bench.END_TO_END_UNITS)
    from tracing import PER_LAYER
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == PER_LAYER[m["name"]][:2]


def _traced_job(argv):
    import tracing
    from compacta import cli

    tracer = tracing.Tracer(0)
    tracing.install(tracer)
    tracer.start_root()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(list(argv))
    return tracer.stop_root()


def test_traced_job_attributes_time_to_layers():
    # in a forked child: wrapping patches the compacta modules in place
    spans = bench.in_child(_traced_job, ("sequence", "--family", "compacted", "--k", "2",
                                         "--upto", "300"))
    by_name = {s["name"]: s for s in spans}
    root = by_name["cli.run"]
    assert root["parent"] is None
    for name in ("dfinite.sequence_values", "dfinite.seed", "operators.build_operator",
                 "dfinite.iter_counts", "recurrences.build_table"):
        assert by_name[name]["busy"] <= root["busy"]
    assert by_name["dfinite.sequence_values"]["parent"] == root["id"]
    assert by_name["dfinite.iter_counts"]["items"] == 301
    assert by_name["dfinite.ode_to_recurrence"]["span"] >= 1
    assert 0 < root["self"] < root["busy"]


def test_repeated_leaf_calls_fold_into_one_span():
    spans = bench.in_child(_traced_job, ("enumerate", "--kind", "compacted", "--n", "4",
                                         "--count-only"))
    checks = [s for s in spans if s["name"] == "compaction.is_compacted"]
    assert len(checks) == 1 and checks[0]["calls"] == oracles.spine_product(4, None)
    assert checks[0]["accepted"] == oracles.COMPACTED[4]


def test_missing_layer_function_is_reported_absent():
    import tracing

    spans = [{"name": "cli.run", "busy": 1.0, "self": 1.0, "calls": 1, "items": 0}]
    jobs = [{"traced_s": 1.1, "untraced_s": 1.0, "out_bytes": 10}]
    gone = {"recurrences.build_table": "compacta.recurrences.build_table not found"}
    metrics = tracing.layer_metrics(spans, jobs, gone)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["recurrences.build_table_s"] == {
        "value": None, "unit": "s", "absent": gone["recurrences.build_table"]}
    assert metrics["cli.run_s"]["value"] == 1.0
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.1)
