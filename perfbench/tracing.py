"""Span tracing around the program's layer boundaries, from outside the program.

``Tracer.install`` swaps named module attributes of ``mboxsim`` for timing
wrappers and ``uninstall`` puts the originals back; no file under ``src/``
changes.  Each wrapper records one span: name, start and end in ns, parent
span, thread, and the work it was handed (rounds, rows or bytes).  Spans
stay in memory until ``write`` saves them after the run.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the installing thread as parent, so the chunk spans
that ``run_experiment`` farms out to its pool still hang under it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
import types


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _rows(index: int, name: str):
    return lambda args, kwargs, result: {"rows": int(_arg(args, kwargs, index, name).shape[0])}


def _draw_work(args, kwargs, result):
    return {"rows": int(_arg(args, kwargs, 3, "count")), "bytes": int(result.nbytes)}


def _mc_work(args, kwargs, result):
    return {"rows": int(_arg(args, kwargs, 5, "rounds"))}


def _result_rows(args, kwargs, result):
    return {"rows": int(result.n)}


def _workers(args, kwargs, result):
    return {"workers": int(_arg(args, kwargs, 0, "config").workers)}


# (module, attribute, span name, work extractor).  One span name can cover
# several attributes that hold the same function under different modules.
PATCHES = (
    ("runtime", "round_uniform_block", "runtime.draw", _draw_work),
    ("runtime", "_stats_from_batch", "runtime.aggregate", _result_rows),
    ("runtime", "_target_joint", "quantum.target", None),
    ("runtime", "estimate_joint_from_counts", "verify.estimate", None),
    ("runtime", "compare", "verify.compare", None),
    ("runtime", "run_experiment", "runtime.run_experiment", _workers),
    ("runtime", "run_batch", "protocols.batch", _result_rows),
    ("verify", "run_batch", "protocols.batch", _result_rows),
    ("protocols", "alice_direction_rows", "protocols.directions", _rows(3, "mu_sign")),
    ("protocols", "bob_direction_rows", "protocols.directions", _rows(3, "mu_sign")),
    ("verify", "alice_direction_rows", "protocols.directions", _rows(3, "mu_sign")),
    ("verify", "bob_direction_rows", "protocols.directions", _rows(3, "mu_sign")),
    ("protocols", "complete_rows", "geometry.complete", _rows(0, "w")),
    ("cli", "run_experiment", "runtime.run_experiment", _workers),
    ("cli", "load_settings_csv", "runtime.load_settings", None),
    ("cli", "write_report", "runtime.write_report", None),
    ("verify", "exact_mu_average", "verify.oracle", None),
    ("verify", "mc_branch_correlations", "verify.mc", _mc_work),
    ("verify", "mc_round_moments", "verify.mc", _mc_work),
    ("verify", "quadrature_kernel", "verify.quadrature", None),
    ("verify", "outcome_from_uniform", "boxes.outcome", None),
    ("verify", "suite_mbox", "verify.suite.mbox", None),
    ("verify", "suite_kernel", "verify.suite.kernel", None),
    ("verify", "suite_flip", "verify.suite.flip", None),
    ("verify", "suite_epr2", "verify.suite.epr2", None),
    ("verify", "suite_oracle", "verify.suite.oracle", None),
    ("verify", "claim_residual_report", "verify.suite.residual", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "work")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.work = None


class Tracer:
    """Records spans while active; a paused tracer passes calls straight through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list, Span]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(name, time.perf_counter_ns(), parent, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        return stack, span

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack, span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        stack, span = self._open(name)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()

    def install(self, mboxsim) -> None:
        """Swap the attributes in PATCHES (and a few special cases) for wrappers."""
        self._main_stack = self._stack()
        wrapped: dict = {}
        for module_name, attr, name, work in PATCHES:
            module = getattr(mboxsim, module_name)
            original = getattr(module, attr)
            key = (id(original), name)
            if key not in wrapped:
                wrapped[key] = self.wrap(name, original, work)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped[key])

        # A classmethod is wrapped at its function and re-bound.
        rr = mboxsim.protocols.RoundRandomness
        original = rr.__dict__["from_uniform_block"]
        self._saved.append((rr, "from_uniform_block", original))
        rr.from_uniform_block = classmethod(
            self.wrap("protocols.expand", original.__func__, _result_rows)
        )

        # cli calls jsonschema.validate through its module reference; give cli
        # a proxy so that only cli's calls are timed.
        cli = mboxsim.cli
        real = cli.jsonschema
        proxy = types.SimpleNamespace(
            validate=self.wrap("cli.validate", real.validate),
            ValidationError=real.ValidationError,
        )
        self._saved.append((cli, "jsonschema", real))
        cli.jsonschema = proxy

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.active = False

    def write(self, path, meta: dict) -> None:
        """Save spans as JSON lines: a header, then one array per span.

        Span fields are [name, start_ns, end_ns, parent, thread, work], with
        the name an index into the header's name table and the parent the
        line number of the parent span among the span lines (-1 for none).
        """
        index = {id(s): i for i, s in enumerate(self.spans)}
        names = sorted({s.name for s in self.spans})
        name_id = {n: i for i, n in enumerate(names)}
        thread_id = {t: i for i, t in enumerate(sorted({s.thread for s in self.spans}))}
        base = min((s.start for s in self.spans), default=0)
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "names": names,
                                 "fields": ["name", "start_ns", "end_ns", "parent", "thread", "work"]}))
            fh.write("\n")
            for s in self.spans:
                parent = index[id(s.parent)] if s.parent is not None else -1
                fh.write(json.dumps([name_id[s.name], s.start - base, s.end - base, parent,
                                     thread_id[s.thread], s.work], separators=(",", ":")))
                fh.write("\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.
# ---------------------------------------------------------------------------


def _union_ns(intervals, lo: int, hi: int) -> int:
    total = 0
    cur_lo = cur_hi = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _Layer:
    __slots__ = ("calls", "total_ns", "self_ns", "rows", "bytes")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.rows = 0
        self.bytes = 0


def layer_totals(spans) -> dict:
    """Calls, total and self time, and work per span name."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    layers: dict = {}
    for s in spans:
        layer = layers.setdefault(s.name, _Layer())
        dur = s.end - s.start
        layer.calls += 1
        layer.total_ns += dur
        kids = children.get(id(s))
        layer.self_ns += dur - (_union_ns(kids, s.start, s.end) if kids else 0)
        if s.work:
            layer.rows += s.work.get("rows", 0)
            layer.bytes += s.work.get("bytes", 0)
    return layers


def _ancestor_named(span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


# (metric, unit) in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("runtime.draw_ns_per_round", "ns"),
    ("runtime.uniform_bytes_per_round", "B"),
    ("protocols.expand_ns_per_round", "ns"),
    ("protocols.directions_ns_per_round", "ns"),
    ("geometry.complete_ns_per_round", "ns"),
    ("protocols.batch_ns_per_round", "ns"),
    ("runtime.aggregate_ns_per_round", "ns"),
    ("runtime.worker_util", "ratio"),
    ("runtime.chunk_calls", "count"),
    ("quantum.target_us_per_setting", "us"),
    ("verify.compare_us_per_setting", "us"),
    ("runtime.load_settings_ms_per_op", "ms"),
    ("runtime.write_ms_per_op", "ms"),
    ("cli.validate_ms_per_op", "ms"),
    ("verify.oracle_us_per_call", "us"),
    ("verify.mc_ns_per_round", "ns"),
    ("verify.quadrature_ms_per_op", "ms"),
    ("verify.suite_ms.mbox", "ms"),
    ("verify.suite_ms.kernel", "ms"),
    ("verify.suite_ms.flip", "ms"),
    ("verify.suite_ms.epr2", "ms"),
    ("verify.suite_ms.oracle", "ms"),
    ("verify.suite_ms.residual", "ms"),
    ("boxes.outcome_ns_per_call", "ns"),
    ("boxes.outcome_calls", "count"),
    ("runtime.unexited_threads_per_op", "count"),
)


def layer_metrics(spans, n_ops: int, unexited_threads: float = 0.0) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0.

    ``unexited_threads`` is the mean number of OS threads an operation left
    still exiting when it returned, counted by the caller.
    """
    L = layer_totals(spans)
    empty = _Layer()

    def get(name):
        return L.get(name, empty)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    ops = max(n_ops, 1)
    draw = get("runtime.draw")
    est, cmp_ = get("verify.estimate"), get("verify.compare")

    # Worker utilisation: chunk work inside run_experiment over workers x wall.
    chunk_layers = {"runtime.draw", "protocols.expand", "protocols.batch", "runtime.aggregate"}
    busy = capacity = 0
    by_id = {}
    for s in spans:
        if s.name == "runtime.run_experiment":
            by_id[id(s)] = s
    for s in spans:
        if s.name in chunk_layers and s.parent is not None and id(s.parent) in by_id:
            busy += s.end - s.start
    for s in by_id.values():
        capacity += s.work["workers"] * (s.end - s.start) if s.work else 0

    # Monte Carlo rounds in verify: the two accumulators plus the kernel
    # suite's own batches (which run outside either accumulator).
    # Alice's and Bob's direction calls each see every round once.
    directions = get("protocols.directions")
    direction_rounds = directions.rows / 2

    mc = get("verify.mc")
    mc_ns, mc_rows = mc.total_ns, mc.rows
    for s in spans:
        if s.name == "protocols.batch" and _ancestor_named(s, "verify.suite.kernel"):
            mc_ns += s.end - s.start
            mc_rows += s.work["rows"]

    out = {
        "runtime.draw_ns_per_round": ratio(draw.total_ns, draw.rows),
        "runtime.uniform_bytes_per_round": ratio(draw.bytes, draw.rows),
        "protocols.expand_ns_per_round": ratio(get("protocols.expand").total_ns, get("protocols.expand").rows),
        "protocols.directions_ns_per_round": ratio(directions.self_ns, direction_rounds),
        "geometry.complete_ns_per_round": ratio(get("geometry.complete").total_ns, direction_rounds),
        "protocols.batch_ns_per_round": ratio(get("protocols.batch").self_ns, get("protocols.batch").rows),
        "runtime.aggregate_ns_per_round": ratio(get("runtime.aggregate").total_ns, get("runtime.aggregate").rows),
        "runtime.worker_util": ratio(busy, capacity),
        "runtime.chunk_calls": draw.calls / ops,
        "quantum.target_us_per_setting": ratio(get("quantum.target").total_ns, get("quantum.target").calls, 1e-3),
        "verify.compare_us_per_setting": ratio(est.total_ns + cmp_.total_ns, cmp_.calls, 1e-3),
        "runtime.load_settings_ms_per_op": get("runtime.load_settings").total_ns * 1e-6 / ops,
        "runtime.write_ms_per_op": get("runtime.write_report").total_ns * 1e-6 / ops,
        "cli.validate_ms_per_op": get("cli.validate").total_ns * 1e-6 / ops,
        "verify.oracle_us_per_call": ratio(get("verify.oracle").total_ns, get("verify.oracle").calls, 1e-3),
        "verify.mc_ns_per_round": ratio(mc_ns, mc_rows),
        "verify.quadrature_ms_per_op": get("verify.quadrature").total_ns * 1e-6 / ops,
        "boxes.outcome_ns_per_call": ratio(get("boxes.outcome").total_ns, get("boxes.outcome").calls),
        "boxes.outcome_calls": get("boxes.outcome").calls / ops,
        "runtime.unexited_threads_per_op": unexited_threads,
    }
    for suite in ("mbox", "kernel", "flip", "epr2", "oracle", "residual"):
        out[f"verify.suite_ms.{suite}"] = get(f"verify.suite.{suite}").total_ns * 1e-6 / ops
    return {name: {"value": out[name], "unit": unit} for name, unit in LAYER_METRICS}
