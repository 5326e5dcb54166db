"""Spans around the calls into each layer of compacta, and the per-layer
metrics computed from them.

The benchmark wraps the public functions named in LAYERS from outside the
program: every module attribute that refers to one of them is replaced by a
wrapper, so calls between modules are seen too.  A wrapper records a span
(name, start, end, parent, job) around the call.  A function that returns a
generator gets one span that accumulates the time spent inside `next`; the
span is the parent of whatever the generator calls meanwhile.

Spans live in memory.  Repeated calls of a function that calls no other
traced function under the same parent are folded into one span with a call
count, so a job that makes 300k tiny calls keeps a handful of spans.

A function missing from the program is not wrapped; the metrics that need it
are reported as absent, with the reason.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from time import perf_counter

PACKAGE = "compacta"

# the layer functions the CLI reaches; poly is only reached through
# operators and dfinite, so its cost stays inside their spans
LAYERS = {
    "trees": ("parse_tree", "dag_to_text"),
    "compaction": ("uid_compact", "is_compacted"),
    "exhaustive": ("generate", "spine_assignments", "count_relaxed_spine_product",
                   "brute_count"),
    "recurrences": ("build_table",),
    "operators": ("build_operator", "coeff_recurrences_check"),
    "dfinite": ("sequence_values", "iter_sequence", "seed", "ode_to_recurrence",
                "stream", "iter_counts"),
    "asympt": ("singularity_data", "fit_constant", "table1"),
}
ROOT_SPAN = "cli.run"
WRAPPER_FRAMES = 1  # frames a wrapper puts between a caller and a layer function


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "busy", "child", "calls",
                 "items", "leaf", "extra")

    def __init__(self, sid: int, parent: int | None, name: str):
        self.id, self.parent, self.name = sid, parent, name
        self.start = self.end = None
        self.busy = self.child = 0.0
        self.calls, self.items, self.leaf = 1, 0, True
        self.extra: dict[str, float] = {}

    def as_dict(self, job: int) -> dict:
        return {"job": job, "id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "busy": self.busy,
                "self": self.busy - self.child, "calls": self.calls,
                "items": self.items, **self.extra}


# Counters read from return values.  Sums add up when spans fold; the
# others keep their maximum.
SUMMED = ("accepted", "rows")


def _note(span: Span, key: str, value: float) -> None:
    if key in SUMMED:
        span.extra[key] = span.extra.get(key, 0) + value
    else:
        span.extra[key] = max(span.extra.get(key, value), value)


def _on_result(name: str, span: Span, result) -> None:
    if name == "compaction.is_compacted":
        _note(span, "accepted", int(bool(result)))
    elif name == "compaction.uid_compact":
        _note(span, "rows", len(result[1].rows))
    elif name == "operators.build_operator":
        _note(span, "order", result.order)
        _note(span, "max_degree", max(c.degree for c in result.coeffs))
    elif name == "dfinite.ode_to_recurrence":
        _note(span, "span", result.span)
    elif name == "asympt.fit_constant":
        prev, last = result.extrapolants[-2:]
        _note(span, "spread", abs(last - prev) / abs(last))


def _on_item(name: str, span: Span, item) -> None:
    if name == "dfinite.iter_counts":
        _note(span, "max_bits", item[1].bit_length())


class Tracer:
    """Spans of one job, kept in memory until the job ends."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.active: set[str] = set()
        self.folded: dict[tuple[int, str], Span] = {}
        self.open_iters: list[Span] = []
        self.ids = 0
        self.root = self._new(ROOT_SPAN)

    def _new(self, name: str) -> Span:
        self.ids += 1
        return Span(self.ids, self.stack[-1].id if self.stack else None, name)

    def start_root(self) -> None:
        self.stack.append(self.root)
        self.root.start = perf_counter()

    def stop_root(self) -> list[dict]:
        root = self.root
        root.end = perf_counter()
        root.busy = root.end - root.start
        self.stack.clear()
        self.spans.append(root)
        for span in self.open_iters:  # generators left unfinished by their caller
            self._finish(span)
        self.open_iters.clear()
        return [s.as_dict(self.job) for s in self.spans]

    def _close(self, span: Span, t0: float, t1: float) -> None:
        parent = self.stack[-1]
        parent.child += t1 - t0
        parent.leaf = False
        if span.start is None:
            span.start = t0
        span.end = t1
        span.busy += t1 - t0

    def _finish(self, span: Span) -> None:
        if span.leaf and span.items == 0:
            key = (span.parent, span.name)
            into = self.folded.get(key)
            if into is not None:
                into.end = span.end
                into.busy += span.busy
                into.calls += 1
                for k, v in span.extra.items():
                    _note(into, k, v)
                return
            self.folded[key] = span
        self.spans.append(span)

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if name in tracer.active:  # a re-entrant call belongs to the outer span
                return fn(*args, **kwargs)
            span = tracer._new(name)
            tracer.stack.append(span)
            tracer.active.add(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.active.discard(name)
                tracer._close(span, t0, t1)
            if inspect.isgenerator(result):
                return TracedIter(tracer, name, result)
            try:
                _on_result(name, span, result)
            except (AttributeError, TypeError, IndexError, ValueError, ZeroDivisionError):
                pass  # a changed return type only loses the counter
            tracer._finish(span)
            return result

        traced.__wrapped__ = fn
        return traced


class TracedIter:
    """A generator whose `next` calls accumulate into one span."""

    def __init__(self, tracer: Tracer, name: str, it):
        self.tracer, self.name, self.it = tracer, name, it
        self.span = tracer._new(name)
        self.done = False

    def __iter__(self):
        return self

    def __next__(self):
        tracer, span = self.tracer, self.span
        tracer.stack.append(span)
        t0 = perf_counter()
        try:
            item = next(self.it)
        except BaseException:
            t1 = perf_counter()
            tracer.stack.pop()
            tracer._close(span, t0, t1)
            self._done()
            raise
        t1 = perf_counter()
        tracer.stack.pop()
        first = span.start is None
        tracer._close(span, t0, t1)
        if first:
            tracer.open_iters.append(span)
        span.items += 1
        try:
            _on_item(self.name, span, item)
        except (AttributeError, TypeError, IndexError):
            pass
        return item

    def _done(self) -> None:
        if self.done:
            return
        self.done = True
        if self.span in self.tracer.open_iters:
            self.tracer.open_iters.remove(self.span)
        self.tracer._finish(self.span)


def missing_functions() -> dict[str, str]:
    """Traced names the program no longer has, with the reason."""
    missing = {}
    for module, names in LAYERS.items():
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError as exc:
            for name in names:
                missing[f"{module}.{name}"] = f"module {PACKAGE}.{module}: {exc}"
            continue
        for name in names:
            if not callable(getattr(mod, name, None)):
                missing[f"{module}.{name}"] = f"{PACKAGE}.{module}.{name} not found"
    return missing


def install(tracer: Tracer) -> None:
    """Wrap every layer function the program has."""
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    for module, names in LAYERS.items():
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        for name in names:
            fn = getattr(mod, name, None)
            if not callable(fn):
                continue
            wrapper = tracer.wrap(f"{module}.{name}", fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, better, functions it needs)
PER_LAYER = {
    "cli.run_s": ("s", "lower", ()),
    "cli.self_s": ("s", "lower", ()),
    "cli.self_share": ("ratio", "lower", ()),
    "cli.out_bytes": ("bytes", "lower", ()),
    "trees.parse_tree_s": ("s", "lower", ("trees.parse_tree",)),
    "trees.dag_to_text_s": ("s", "lower", ("trees.dag_to_text",)),
    "trees.self_s": ("s", "lower", ()),
    "compaction.uid_compact_s": ("s", "lower", ("compaction.uid_compact",)),
    "compaction.rows_per_node": ("ratio", "lower", ("compaction.uid_compact",)),
    "compaction.is_compacted_s": ("s", "lower", ("compaction.is_compacted",)),
    "compaction.is_compacted_calls": ("count", "lower", ("compaction.is_compacted",)),
    "compaction.accept_frac": ("ratio", "higher", ("compaction.is_compacted",)),
    "compaction.self_s": ("s", "lower", ()),
    "exhaustive.self_s": ("s", "lower", ()),
    "exhaustive.objects": ("count", "lower", ("exhaustive.spine_assignments",)),
    "exhaustive.estimate_share": ("ratio", "lower", ("exhaustive.count_relaxed_spine_product",)),
    "recurrences.build_table_s": ("s", "lower", ("recurrences.build_table",)),
    "recurrences.self_s": ("s", "lower", ()),
    "operators.build_operator_s": ("s", "lower", ("operators.build_operator",)),
    "operators.order": ("count", "lower", ("operators.build_operator",)),
    "operators.max_degree": ("count", "lower", ("operators.build_operator",)),
    "operators.coeff_recurrences_check_s": ("s", "lower", ("operators.coeff_recurrences_check",)),
    "operators.self_s": ("s", "lower", ()),
    "dfinite.stream_s": ("s", "lower", ("dfinite.iter_counts",)),
    "dfinite.terms": ("count", "higher", ("dfinite.iter_counts",)),
    "dfinite.terms_per_s": ("1/s", "higher", ("dfinite.iter_counts",)),
    "dfinite.max_bits": ("bits", "lower", ("dfinite.iter_counts",)),
    "dfinite.span": ("count", "lower", ("dfinite.ode_to_recurrence",)),
    "dfinite.seed_s": ("s", "lower", ("dfinite.seed",)),
    "dfinite.ode_to_recurrence_s": ("s", "lower", ("dfinite.ode_to_recurrence",)),
    "dfinite.self_s": ("s", "lower", ()),
    "asympt.singularity_data_s": ("s", "lower", ("asympt.singularity_data",)),
    "asympt.fit_constant_s": ("s", "lower", ("asympt.fit_constant",)),
    "asympt.fit_self_s": ("s", "lower", ("asympt.fit_constant",)),
    "asympt.fit_spread": ("ratio", "lower", ("asympt.fit_constant",)),
    "asympt.self_s": ("s", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
    "trace.overhead_share": ("ratio", "lower", ()),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], jobs: list[dict], missing: dict[str, str]) -> dict:
    """Per-layer metrics of a workload from its spans and traced jobs.

    Times and counts are means per traced job; ratios are taken over the
    totals; order, degree, span and bit size are maxima.  ``jobs`` carries
    per job the traced and untraced wall time, the output size, the input
    size (hashcons) and the timed budget estimate (brute-force jobs).
    """
    n = max(len(jobs), 1)
    by_name: dict[str, list[dict]] = {}
    module_self: dict[str, float] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        module = s["name"].split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + s["self"]

    def total(name: str, field: str = "busy") -> float:
        return sum(s.get(field, 0) for s in by_name.get(name, ()))

    def peak(name: str, field: str) -> float:
        return max((s[field] for s in by_name.get(name, ()) if field in s), default=0)

    root_busy, root_self = total(ROOT_SPAN), total(ROOT_SPAN, "self")
    traced = sum(j["traced_s"] for j in jobs)
    untraced = sum(j["untraced_s"] for j in jobs)
    brute = [j for j in jobs if j.get("estimate_s") is not None]
    fits = by_name.get("asympt.fit_constant", [])
    values = {
        "cli.run_s": root_busy / n,
        "cli.self_s": root_self / n,
        "cli.self_share": _ratio(root_self, root_busy),
        "cli.out_bytes": sum(j["out_bytes"] for j in jobs) / n,
        "trees.parse_tree_s": total("trees.parse_tree") / n,
        "trees.dag_to_text_s": total("trees.dag_to_text") / n,
        "compaction.uid_compact_s": total("compaction.uid_compact") / n,
        "compaction.rows_per_node": _ratio(total("compaction.uid_compact", "rows"),
                                           sum(j.get("nodes", 0) for j in jobs)),
        "compaction.is_compacted_s": total("compaction.is_compacted") / n,
        "compaction.is_compacted_calls": total("compaction.is_compacted", "calls") / n,
        "compaction.accept_frac": _ratio(total("compaction.is_compacted", "accepted"),
                                         total("compaction.is_compacted", "calls")),
        "exhaustive.objects": total("exhaustive.spine_assignments", "items") / n,
        "exhaustive.estimate_share": _ratio(sum(j["estimate_s"] for j in brute),
                                            sum(j["untraced_s"] for j in brute)),
        "recurrences.build_table_s": total("recurrences.build_table") / n,
        "operators.build_operator_s": total("operators.build_operator") / n,
        "operators.order": peak("operators.build_operator", "order"),
        "operators.max_degree": peak("operators.build_operator", "max_degree"),
        "operators.coeff_recurrences_check_s": total("operators.coeff_recurrences_check") / n,
        "dfinite.stream_s": total("dfinite.iter_counts") / n,
        "dfinite.terms": total("dfinite.iter_counts", "items") / n,
        "dfinite.terms_per_s": _ratio(total("dfinite.iter_counts", "items"),
                                      total("dfinite.iter_counts")),
        "dfinite.max_bits": peak("dfinite.iter_counts", "max_bits"),
        "dfinite.span": peak("dfinite.ode_to_recurrence", "span"),
        "dfinite.seed_s": total("dfinite.seed") / n,
        "dfinite.ode_to_recurrence_s": total("dfinite.ode_to_recurrence") / n,
        "asympt.singularity_data_s": total("asympt.singularity_data") / n,
        "asympt.fit_constant_s": total("asympt.fit_constant") / n,
        "asympt.fit_self_s": total("asympt.fit_constant", "self") / n,
        "asympt.fit_spread": statistics.median(
            [s["spread"] for s in fits if "spread" in s] or [0.0]),
        "trace.overhead_s": (traced - untraced) / n,
        "trace.overhead_share": _ratio(traced - untraced, untraced),
    }
    for module in ("trees", "compaction", "exhaustive", "recurrences", "operators",
                   "dfinite", "asympt"):
        values[f"{module}.self_s"] = module_self.get(module, 0.0) / n
    out = {}
    for name, (unit, _better, needs) in PER_LAYER.items():
        gone = [missing[f] for f in needs if f in missing]
        if gone:
            out[name] = {"value": None, "unit": unit, "absent": "; ".join(gone)}
        else:
            out[name] = {"value": float(values[name]), "unit": unit}
    return out
