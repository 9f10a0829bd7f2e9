"""Benchmark-side span recorder and the per-layer report of a traced run.

The traced run (``--trace 1``) wraps public entry points of each
``repro`` layer at class or module level -- where callers look them up --
so that every call records a span: name, start, end, parent span, thread,
and the request or step id the benchmark set on that thread.  The program
itself is not changed: :func:`instrument` returns a function that puts
every original back.

Spans live in per-thread buffers of parallel arrays, so the hot path takes
no lock, and are written out as JSON lines when the run ends.  A parent
and its children always run on one thread, so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import resource
import threading
import time
from array import array

from .measure import median, total

#: Every per-layer metric a traced run prints, as (name, unit, better,
#: definition).  ``BENCHMARK.json`` registers exactly these as ``per_layer``.
LAYER_METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("tuning.tune_s", "s", "lower", "median wall per AutoTuner.tune call"),
    ("tuning.enumerate_s", "s", "lower", "median wall per pruned_space enumeration"),
    ("tuning.candidates", "count", "lower", "median candidates enumerated per tune"),
    ("tuning.evaluated_ratio", "ratio", "lower", "candidates evaluated / enumerated"),
    ("tuning.minflt", "count", "lower", "median minor page faults per engine.prepare"),
    ("formats.convert_s", "s", "lower", "total wall in outermost *.from_scipy calls"),
    ("formats.conversions", "count", "lower", "outermost *.from_scipy calls"),
    ("formats.with_values_ms", "ms", "lower", "median wall per format with_values"),
    ("backend.execute_us", "us", "lower", "median wall per FastBackend.execute"),
    ("backend.execute_calls", "count", "lower", "FastBackend.execute calls"),
    ("backend.execute_multi_us", "us", "lower", "median wall per FastBackend.execute_multi"),
    ("backend.execute_multi_calls", "count", "lower", "FastBackend.execute_multi calls"),
    ("backend.batch_width", "count", "higher", "mean columns per execute_multi"),
    ("backend.refresh_values_us", "us", "lower", "median wall per FastBackend.refresh_values"),
    ("backend.live_plans", "count", "lower", "fast-backend plans alive at the end"),
    ("gpu.estimate_us", "us", "lower", "median wall per TimingModel.estimate"),
    ("gpu.estimate_calls", "count", "lower", "TimingModel.estimate calls"),
    ("gpu.cache_model_s", "s", "lower", "total wall in vector_read_traffic"),
    ("gpu.sim_us", "us", "lower", "median simulated time per estimate"),
    ("gpu.dram_mb", "MB", "lower", "median DRAM traffic per estimate, computed by the model"),
    ("engine.multiply_us", "us", "lower", "median wall per SpMVEngine.multiply"),
    ("engine.self_us", "us", "lower", "median multiply self time (minus execute, estimate)"),
    ("engine.update_values_ms", "ms", "lower", "median wall per SpMVEngine.update_values"),
    ("serve.submit_us", "us", "lower", "median caller-side wall per SpMVServer.submit"),
    ("serve.key_us", "us", "lower", "median wall per serve_key"),
    ("serve.queue_wait_ms", "ms", "lower", "median ServeResponse.queue_wait_s (window included)"),
    ("serve.batch_size", "count", "higher", "mean requests per dispatch"),
    ("serve.cache_hit_ratio", "ratio", "higher", "responses answered from the prepared cache"),
    ("serve.shed", "count", "lower", "requests refused by admission control"),
    ("serve.gen_late_ms", "ms", "lower", "median lateness of the open-loop generator"),
    ("solver.iterations", "count", "lower", "median CG iterations per solve"),
    ("solver.self_ms", "ms", "lower", "median solve wall minus SolveResult.spmv_wall_s"),
    ("solver.spmv_share", "ratio", "higher", "SpMV wall / solve wall, over all solves"),
    ("trace.coverage", "ratio", "higher", "share of the run's wall covered by recorded spans"),
)


class _Buffer:
    """One thread's spans, as parallel arrays indexed by span number."""

    __slots__ = ("thread", "name", "start", "end", "parent", "op", "stack")

    def __init__(self, thread: str):
        self.thread = thread
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("q")
        self.stack: list[int] = []


class Recorder:
    """In-memory span recorder plus named observations.

    ``begin``/``end`` are called by the wrappers :meth:`wrap` builds.
    The benchmark tags the current thread's spans with a request or step
    id through :meth:`set_op`, and records values the spans cannot see
    (queue waits, iteration counts) through :meth:`observe`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.t0 = clock()
        self._names: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._observations: dict[str, array] = {}

    # -- recording ----------------------------------------------------- #

    def name_id(self, name: str) -> int:
        with self._lock:
            return self._names.setdefault(name, len(self._names))

    def set_op(self, op: int) -> None:
        """Tag later spans of this thread with request/step ``op``."""
        self._local.op = op

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread().name)
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def begin(self, name_id: int) -> int:
        buf = self._buffer()
        index = len(buf.start)
        buf.name.append(name_id)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.op.append(getattr(self._local, "op", -1))
        buf.end.append(0.0)
        buf.stack.append(index)
        buf.start.append(self.clock())
        return index

    def end(self, index: int) -> float:
        """Close span ``index`` of this thread; returns its duration."""
        now = self.clock()
        buf = self._local.buf
        buf.end[index] = now
        buf.stack.pop()
        return now - buf.start[index]

    def observe(self, name: str, value: float) -> None:
        self._observations.setdefault(name, array("d")).append(float(value))

    def observations(self, name: str) -> list[float]:
        return list(self._observations.get(name, ()))

    def wrap(self, fn, name: str, *, before=None, after=None):
        """``fn`` recording one span per call.

        ``before()`` runs just before the span opens and its result is
        handed to ``after(args, out, token, duration_s)``, which runs after
        the span closes and only when ``fn`` returned.
        """
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before() if before is not None else None
            index = self.begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = self.end(index)
            if after is not None:
                after(args, out, token, duration)
            return out

        return traced

    # -- reading -------------------------------------------------------- #

    def spans(self):
        """Yield ``(thread, index, name, start, end, parent, op)`` for all spans."""
        names = {v: k for k, v in self._names.items()}
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            for i in range(len(buf.start)):
                yield (
                    buf.thread, i, names[buf.name[i]], buf.start[i], buf.end[i],
                    buf.parent[i], buf.op[i],
                )

    def span_count(self) -> int:
        with self._lock:
            return sum(len(b.start) for b in self._buffers)

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON line; returns the line count.

        Times are seconds since the recorder was created; ``id`` and
        ``parent`` are ``"<thread>:<index>"``.
        """
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for thread, i, name, start, end, parent, op in self.spans():
                fh.write(json.dumps({
                    "id": f"{thread}:{i}",
                    "name": name,
                    "start": round(start - self.t0, 7),
                    "end": round(end - self.t0, 7),
                    "parent": None if parent < 0 else f"{thread}:{parent}",
                    "thread": thread,
                    "op": None if op < 0 else op,
                }) + "\n")
                n += 1
        return n


def span_table(rec: Recorder) -> dict[str, dict[str, list[float]]]:
    """Per span name: ``dur`` (all), ``self`` and ``outer`` durations.

    ``outer`` keeps only spans whose parent has a different name, so a
    conversion that calls another conversion is counted once.
    """
    rows = list(rec.spans())
    children: dict[tuple[str, int], float] = {}
    names: dict[tuple[str, int], str] = {}
    for thread, i, name, start, end, parent, _op in rows:
        names[(thread, i)] = name
        if parent >= 0:
            key = (thread, parent)
            children[key] = children.get(key, 0.0) + (end - start)
    table: dict[str, dict[str, list[float]]] = {}
    for thread, i, name, start, end, parent, _op in rows:
        entry = table.setdefault(name, {"dur": [], "self": [], "outer": []})
        dur = end - start
        entry["dur"].append(dur)
        entry["self"].append(dur - children.get((thread, i), 0.0))
        if parent < 0 or names[(thread, parent)] != name:
            entry["outer"].append(dur)
    return table


def coverage(rec: Recorder, t_end: float) -> float:
    """Share of ``[rec.t0, t_end]`` covered by at least one span."""
    intervals = sorted(
        (start, end) for _t, _i, _n, start, end, parent, _o in rec.spans() if parent < 0
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    wall = t_end - rec.t0
    return covered / wall if wall > 0 else 0.0


def layer_metrics(rec: Recorder, t_end: float) -> dict[str, tuple[float, int]]:
    """Every :data:`LAYER_METRICS` entry as ``name -> (value, samples)``.

    A layer the workload does not exercise reads 0 with 0 samples.
    """
    table = span_table(rec)

    def spans(name: str, kind: str = "dur") -> list[float]:
        return table.get(name, {}).get(kind, [])

    def med(xs: list[float], scale: float = 1.0) -> tuple[float, int]:
        return (median(xs) * scale if xs else 0.0, len(xs))

    def count(xs: list[float]) -> tuple[float, int]:
        return (float(len(xs)), len(xs))

    def obs(name: str) -> list[float]:
        return rec.observations(name)

    evaluated, enumerated = obs("tuning.evaluated"), obs("tuning.candidates")
    solve_wall, spmv_wall = spans("solver.solve"), obs("solver.spmv_wall_s")
    widths = obs("backend.batch_width")
    conversions = spans("formats.from_scipy", "outer")
    return {
        "tuning.tune_s": med(spans("tuning.tune")),
        "tuning.enumerate_s": med(spans("tuning.enumerate")),
        "tuning.candidates": med(enumerated),
        "tuning.evaluated_ratio": (
            total(evaluated) / total(enumerated) if total(enumerated) else 0.0,
            len(enumerated),
        ),
        "tuning.minflt": med(obs("tuning.minflt")),
        "formats.convert_s": (total(conversions), len(conversions)),
        "formats.conversions": count(conversions),
        "formats.with_values_ms": med(spans("formats.with_values", "outer"), 1e3),
        "backend.execute_us": med(spans("backend.execute"), 1e6),
        "backend.execute_calls": count(spans("backend.execute")),
        "backend.execute_multi_us": med(spans("backend.execute_multi"), 1e6),
        "backend.execute_multi_calls": count(spans("backend.execute_multi")),
        "backend.batch_width": (total(widths) / len(widths) if widths else 0.0, len(widths)),
        "backend.refresh_values_us": med(spans("backend.refresh_values"), 1e6),
        "backend.live_plans": med(obs("backend.live_plans")),
        "gpu.estimate_us": med(spans("gpu.estimate"), 1e6),
        "gpu.estimate_calls": count(spans("gpu.estimate")),
        "gpu.cache_model_s": (
            total(spans("gpu.cache_model", "outer")),
            len(spans("gpu.cache_model", "outer")),
        ),
        "gpu.sim_us": med(obs("gpu.sim_us")),
        "gpu.dram_mb": med(obs("gpu.dram_mb")),
        "engine.multiply_us": med(spans("engine.multiply"), 1e6),
        "engine.self_us": med(spans("engine.multiply", "self"), 1e6),
        "engine.update_values_ms": med(spans("engine.update_values"), 1e3),
        "serve.submit_us": med(spans("serve.submit"), 1e6),
        "serve.key_us": med(spans("serve.key"), 1e6),
        "serve.queue_wait_ms": med(obs("serve.queue_wait_ms")),
        "serve.batch_size": med(obs("serve.batch_size")),
        "serve.cache_hit_ratio": med(obs("serve.cache_hit_ratio")),
        "serve.shed": med(obs("serve.shed")),
        "serve.gen_late_ms": med(obs("serve.gen_late_ms")),
        "solver.iterations": med(obs("solver.iterations")),
        "solver.self_ms": med(obs("solver.self_ms")),
        "solver.spmv_share": (
            total(spmv_wall) / total(solve_wall) if solve_wall else 0.0,
            len(solve_wall),
        ),
        "trace.coverage": (coverage(rec, t_end), rec.span_count()),
    }


def span_cost_s(n: int = 20_000) -> float:
    """Wall cost of recording one empty span, from ``n`` of them."""
    rec = Recorder()
    fn = rec.wrap(lambda: None, "probe")
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - t0) / n


# ---------------------------------------------------------------------- #
# Instrumentation of the program's public entry points
# ---------------------------------------------------------------------- #


def instrument(rec: Recorder):
    """Wrap each layer's entry points; returns a function that unwraps.

    Functions imported by name into another module are wrapped in that
    module, since that is where its callers look them up.
    """
    from repro.backends import fast
    from repro.core import engine
    from repro.formats import (
        BCCOOMatrix, BCCOOPlusMatrix, CSRMatrix, MergeCSRMatrix, RGCSRMatrix,
    )
    from repro.gpu import timing
    from repro.kernels import baselines, merge_path, row_grouped, yaspmv
    from repro.serve import server
    from repro.solvers import session
    from repro.tuning import tuner

    originals: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, **hooks) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(rec.wrap(raw.__func__, name, **hooks))
        else:
            new = rec.wrap(raw, name, **hooks)
        originals.append((owner, attr, raw))
        setattr(owner, attr, new)

    def enumerate_all(*args, **kwargs):
        # pruned_space is a generator: consume it inside the span.
        return list(enumerate_space(*args, **kwargs))

    enumerate_space = vars(tuner)["pruned_space"]
    originals.append((tuner, "pruned_space", enumerate_space))
    tuner.pruned_space = rec.wrap(
        enumerate_all, "tuning.enumerate",
        after=lambda a, out, t, d: rec.observe("tuning.candidates", len(out)),
    )
    patch(
        tuner.AutoTuner, "tune", "tuning.tune",
        after=lambda a, out, t, d: rec.observe("tuning.evaluated", out.evaluated),
    )
    patch(
        engine.SpMVEngine, "prepare", "engine.prepare",
        before=lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt,
        after=lambda a, out, t, d: rec.observe(
            "tuning.minflt", resource.getrusage(resource.RUSAGE_SELF).ru_minflt - t
        ),
    )
    for cls in (BCCOOMatrix, BCCOOPlusMatrix, CSRMatrix, MergeCSRMatrix, RGCSRMatrix):
        if "from_scipy" in vars(cls):
            patch(cls, "from_scipy", "formats.from_scipy")
        if "with_values" in vars(cls):
            patch(cls, "with_values", "formats.with_values")
    patch(fast.FastBackend, "execute", "backend.execute")
    patch(
        fast.FastBackend, "execute_multi", "backend.execute_multi",
        after=lambda a, out, t, d: rec.observe("backend.batch_width", a[2].shape[1]),
    )
    patch(fast.FastBackend, "refresh_values", "backend.refresh_values")

    def after_estimate(args, out, token, duration):
        rec.observe("gpu.sim_us", out.t_total * 1e6)
        rec.observe("gpu.dram_mb", args[1].dram_bytes / 1e6)

    patch(timing.TimingModel, "estimate", "gpu.estimate", after=after_estimate)
    for module in (fast, yaspmv, merge_path, row_grouped, baselines):
        patch(module, "vector_read_traffic", "gpu.cache_model")
    patch(engine.SpMVEngine, "multiply", "engine.multiply")
    patch(engine.SpMVEngine, "multiply_many", "engine.multiply_many")
    patch(engine.SpMVEngine, "update_values", "engine.update_values")
    patch(server.SpMVServer, "submit", "serve.submit")
    patch(server, "serve_key", "serve.key")

    def after_solve(args, out, token, duration):
        rec.observe("solver.iterations", out.iterations)
        rec.observe("solver.spmv_wall_s", out.spmv_wall_s)
        rec.observe("solver.self_ms", (duration - out.spmv_wall_s) * 1e3)

    patch(session.SolverSession, "solve", "solver.solve", after=after_solve)

    def uninstall() -> None:
        while originals:
            owner, attr, raw = originals.pop()
            setattr(owner, attr, raw)

    return uninstall
