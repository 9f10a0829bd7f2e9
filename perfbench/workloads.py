"""The benchmark's workloads: ``tune``, ``serve`` and ``solve``.

Each workload makes its inputs from the seed, sets up untimed, then does a
fixed amount of work -- a count of rounds, requests or steps taken from
:class:`Sizes`, never a duration -- and checks every output.  It drives
only the public ``repro`` API and returns an :class:`Outcome` holding
every end-to-end metric of ``BENCHMARK.json``.

Only the caller's thread and, for ``serve``, the server's dispatcher
thread run; nothing forks.
"""

from __future__ import annotations

import gc
import hashlib
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

import repro
from repro.matrices.suite import get_spec

from .measure import Digest, Reference, hmean, median, peak_rss_mb, percentile

clock = time.perf_counter

DEVICE = "gtx680"
#: Table-2 stand-ins from four structural classes; the tuner picks bccoo,
#: merge_csr, bccoo and bccoo for them.
MATRICES = ("FEM/Harbor", "QCD", "Circuit", "Economics")
#: Generator seed of the four stand-ins: fixed instances, like the paper's
#: fixed suite, so every run tunes the same structures.  The run's seed
#: draws the vectors, the request stream and the solver's values.
MATRIX_SEED = 1234
#: CG tolerance of every ``solve`` step (absolute residual norm).
TOL = 1e-10
#: Range of the seeded diagonal shift added to the Laplacian each step.
SHIFT = (0.06, 0.09)


@dataclass(frozen=True)
class Sizes:
    """How much work one run does, as counts."""

    #: nnz cap of the four suite stand-ins (``tune`` and ``serve``).
    cap_nnz: int = 20_000
    #: ``tune``: rounds of four cold prepares.  Each round leaves about
    #: 1.4 GB of fast-backend plans alive, so this stays small.
    rounds: int = 2
    #: ``tune``, ``solve``: set-up repetitions behind the ``setup_s`` median.
    setup_repeats: int = 3
    #: ``serve``: distinct vectors per matrix.
    vectors: int = 16
    #: ``serve``: open-loop arrival rate (req/s) and request count.
    rate: float = 100.0
    open_requests: int = 1000
    #: ``serve``: closed-loop window and request count.
    outstanding: int = 32
    closed_requests: int = 1500
    #: ``serve``: the two loops alternate in this many blocks, so both
    #: sample the whole run rather than one end of it.
    blocks: int = 5
    #: ``solve``: Laplacian grid side and timed step count.
    grid: int = 64
    steps: int = 900
    #: Untimed warm-up: requests per matrix (``serve``), steps (``solve``).
    warmup: int = 3


def sizes_for(seconds: int) -> Sizes:
    """Counts that keep each timed phase near ``seconds`` on a 2-core host.

    ``serve`` spends 70% of it in the open loop at 100 req/s and the rest
    in the closed loop at 1000-1500 req/s; ``solve`` runs about 60 steps
    a second.  ``tune`` stays at two rounds: its memory, not its time,
    bounds it.
    """
    seconds = max(int(seconds), 1)
    return Sizes(
        open_requests=max(int(70 * seconds), 50),
        closed_requests=max(int(250 * seconds), 64),
        steps=max(int(60 * seconds), 20),
    )


#: Sizes for the benchmark's own tests: every workload in seconds.
TINY = Sizes(
    cap_nnz=1500, rounds=1, setup_repeats=2, vectors=2, rate=400.0,
    open_requests=24, outstanding=4, closed_requests=24, blocks=2, grid=10,
    steps=4, warmup=1,
)


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    digest: str
    #: Extra report lines (samples behind the metrics, p99, phases).
    notes: list[str] = field(default_factory=list)


class Tally:
    """Attempted and failed operations, with failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] += 1

    def raised(self, what: str) -> None:
        """Count the exception being handled, with its traceback on stderr."""
        traceback.print_exc(file=sys.stderr)
        self.fail(f"{what} raised {sys.exc_info()[0].__name__}")

    def ok_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0

    def note(self) -> str:
        reasons = ", ".join(f"{k}={v}" for k, v in sorted(self.reasons.items()))
        return f"failures: {self.failed}/{self.attempted}" + (f" ({reasons})" if reasons else "")


class _NoTrace:
    """Recorder stand-in for untraced runs and untimed warm-up."""

    def set_op(self, op: int) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def observations(self, name: str) -> list[float]:
        return []


NO_TRACE = _NoTrace()


def untouched(kind: str, index: int, y: np.ndarray) -> np.ndarray:
    return y


def new_engine() -> repro.SpMVEngine:
    return repro.SpMVEngine(DEVICE, backend="fast")


def suite_matrices(cap_nnz: int) -> dict[str, sparse.csr_matrix]:
    """The four stand-ins at ``cap_nnz``."""
    out = {}
    for name in MATRICES:
        spec = get_spec(name)
        out[name] = spec.load(scale=spec.scale_for_nnz(cap_nnz), seed=MATRIX_SEED)
    return out


def laplacian(grid: int) -> sparse.csr_matrix:
    """2-D 5-point Laplacian on a ``grid`` x ``grid`` mesh."""
    line = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(grid, grid))
    eye = sparse.identity(grid)
    return (sparse.kron(eye, line) + sparse.kron(line, eye)).tocsr()


def _warm_up_prepare() -> None:
    """One small cold prepare, the same every run, to load lazy code paths."""
    spec = get_spec("Economics")
    new_engine().prepare(spec.load(scale=spec.scale_for_nnz(1000), seed=0))


def _common(metrics: dict, tally: Tally, setup_s: float) -> dict[str, float]:
    metrics.update(
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb(),
        ok_ratio=tally.ok_ratio(),
    )
    return metrics


# ---------------------------------------------------------------------- #
# tune: cold prepares
# ---------------------------------------------------------------------- #


def run_tune(seed: int, sizes: Sizes, rec, import_s: float, tamper=untouched) -> Outcome:
    """Cold-prepare the four stand-ins with a fresh engine per round."""
    setups = []
    for _ in range(sizes.setup_repeats):
        t0 = clock()
        mats = suite_matrices(sizes.cap_nnz)
        rng = np.random.default_rng(seed)
        xs = {name: rng.standard_normal(mats[name].shape[1]) for name in MATRICES}
        _warm_up_prepare()
        gc.collect()
        setups.append(clock() - t0)

    tally, digest, ref = Tally(), Digest(), Reference()
    walls, costs, rounds, round_costs, evaluated, gflops = [], [], [], [], [], []
    for r in range(sizes.rounds):
        engine = new_engine()
        round_wall = round_cost = 0.0
        for k, name in enumerate(MATRICES):
            op = r * len(MATRICES) + k
            A, x = mats[name], xs[name]
            rec.set_op(op)
            try:
                ref_before = ref.ms()
                t0 = clock()
                prepared = engine.prepare(A)
                wall = clock() - t0
                cost = wall * 1e3 / ((ref_before + ref.ms()) / 2)
                result = engine.multiply(prepared, x)
            except Exception:  # count it and keep measuring the rest
                tally.raised("prepare")
                continue
            round_wall += wall
            round_cost += cost
            walls.append(wall)
            costs.append(cost)
            evaluated.append(prepared.tuning.evaluated)
            gflops.append(result.gflops)
            y = tamper("tune", op, result.y)
            expected = A @ x
            error = np.linalg.norm(y - expected) / np.linalg.norm(expected)
            if error <= 1e-9:
                tally.ok()
            else:
                tally.fail("product off by more than 1e-9")
            digest.add(name, prepared.tuning.describe_point(), y)
        rounds.append(round_wall)
        round_costs.append(round_cost)
        gc.collect()

    metrics = {
        "prepare_ref": median(round_costs),
        "op_ref": median(costs),
        "iterations": median(evaluated),
        "sim_gflops_hmean": hmean(gflops),
    }
    notes = [
        f"prepare_s={median(rounds):.3f} (median round wall); one prepare "
        f"p50/p90_ms={percentile(walls, 50) * 1e3:.1f}/{percentile(walls, 90) * 1e3:.1f} "
        f"(n={len(walls)}), {len(walls) / sum(walls):.3f} prepares/s; round walls "
        + " ".join(f"{w:.3f}s" for w in rounds),
        "set-ups: " + " ".join(f"{s:.3f}s" for s in setups),
        tally.note(),
    ]
    return Outcome(
        _common(metrics, tally, import_s + median(setups)),
        tally.attempted, tally.failed, digest.hexdigest(), notes,
    )


# ---------------------------------------------------------------------- #
# serve: open and closed loop through a threaded SpMVServer
# ---------------------------------------------------------------------- #


class _Client:
    """The generator thread: sends requests and collects their answers.

    It waits on its oldest outstanding future, so a completion is seen as
    soon as it happens without a third thread; answers that finish out of
    order are collected at the same moment.
    """

    def __init__(self, server, mats, vectors, refs, rec, tamper):
        self.server = server
        self.mats, self.vectors, self.refs = mats, vectors, refs
        self.rec, self.tamper = rec, tamper
        self.tally = Tally()
        self.pending: list[tuple] = []
        self.latency: dict[int, float] = {}
        self.digests: dict[int, bytes] = {}
        self.last_done = 0.0

    def submit(self, i: int, name: str, j: int, due: float) -> None:
        self.rec.set_op(i)
        try:
            future = self.server.submit(self.mats[name], self.vectors[name][j])
        except repro.ReproError as exc:  # shed or refused
            self.tally.fail(type(exc).__name__)
            return
        self.pending.append((i, name, j, due, future))

    def wait(self, until: float | None = None) -> None:
        """Block until the oldest request completes or ``until`` passes."""
        if not self.pending:
            if until is not None:
                time.sleep(max(0.0, until - clock()))
            return
        timeout = None if until is None else max(0.0, until - clock())
        try:
            self.pending[0][4].exception(timeout)
        except repro.ServeTimeout:
            return
        now = clock()
        waiting = []
        for item in self.pending:
            if item[4].done():
                self._complete(item, now)
            else:
                waiting.append(item)
        self.pending = waiting

    def drain(self) -> None:
        while self.pending:
            self.wait()

    def _complete(self, item, now: float) -> None:
        i, name, j, due, future = item
        self.last_done = now
        error = future.exception(0)
        if error is not None:
            self.tally.fail(type(error).__name__)
            return
        response = future.result()
        y = self.tamper("serve", i, response.y)
        self.digests[i] = hashlib.blake2b(y.tobytes(), digest_size=16).digest()
        self.rec.observe("serve.queue_wait_ms", response.queue_wait_s * 1e3)
        self.rec.observe("serve.cache_hit", float(response.cache_hit))
        if np.array_equal(y, self.refs[name][j]):
            self.tally.ok()
            self.latency[i] = now - due
        else:
            self.tally.fail("served y differs from direct multiply")


def run_serve(seed: int, sizes: Sizes, rec, import_s: float, tamper=untouched) -> Outcome:
    """Prime four matrices, then an open loop and a closed loop of requests."""
    t_setup = clock()
    mats = suite_matrices(sizes.cap_nnz)
    engine = new_engine()
    ref = Reference()
    prepared, prepare_s, prepare_ref = {}, 0.0, 0.0
    for name in MATRICES:
        ref_before = ref.ms()
        t0 = clock()
        prepared[name] = engine.prepare(mats[name])
        wall = clock() - t0
        prepare_s += wall
        prepare_ref += wall * 1e3 / ((ref_before + ref.ms()) / 2)
    rng = np.random.default_rng(seed)
    vectors = {
        name: [rng.standard_normal(mats[name].shape[1]) for _ in range(sizes.vectors)]
        for name in MATRICES
    }
    refs, gflops = {}, []
    for name in MATRICES:
        results = [engine.multiply(prepared[name], x) for x in vectors[name]]
        refs[name] = [r.y for r in results]
        gflops.append(results[0].gflops)

    n_open, n_closed = sizes.open_requests, sizes.closed_requests
    which = rng.integers(0, len(MATRICES), n_open + n_closed)
    pick = rng.integers(0, sizes.vectors, n_open + n_closed)
    gaps = rng.exponential(1.0 / sizes.rate, n_open)

    def block(n: int, b: int) -> range:
        return range(n * b // sizes.blocks, n * (b + 1) // sizes.blocks)

    server = repro.SpMVServer(engine, repro.ServeConfig())
    try:
        for p in prepared.values():
            server.prime(p)
        warm = _Client(server, mats, vectors, refs, NO_TRACE, untouched)
        for k in range(sizes.warmup * len(MATRICES)):
            warm.submit(-1, MATRICES[k % len(MATRICES)], 0, 0.0)
        warm.drain()
        gc.collect()
        setup_s = import_s + clock() - t_setup

        client = _Client(server, mats, vectors, refs, rec, tamper)
        late, closed_wall, closed_costs = [], 0.0, []
        batches = {"open": Counter(), "closed": Counter()}
        for b in range(sizes.blocks):
            before = server.stats()
            start = clock()
            due_at = start
            for i in block(n_open, b):
                due_at += gaps[i]
                while clock() < due_at:
                    client.wait(until=due_at)
                late.append(clock() - due_at)
                client.submit(i, MATRICES[which[i]], pick[i], due_at)
            client.drain()
            middle = server.stats()

            ref_before = ref.ms()
            start = clock()
            for i in block(n_closed, b):
                client.submit(n_open + i, MATRICES[which[n_open + i]], pick[n_open + i], clock())
                while len(client.pending) >= sizes.outstanding:
                    client.wait()
            client.drain()
            wall = client.last_done - start
            closed_wall += wall
            answered = sum(n_open + i in client.latency for i in block(n_closed, b))
            closed_costs.append(wall * 1e3 / max(answered, 1) / ((ref_before + ref.ms()) / 2))
            after = server.stats()
            for phase, (x, y) in (("open", (before, middle)), ("closed", (middle, after))):
                batches[phase].update(
                    requests=y["requests"] - x["requests"],
                    batches=y["batches"] - x["batches"],
                    shed=y["shed"] - x["shed"],
                )
        closed_ok = sum(i in client.latency for i in range(n_open, n_open + n_closed))
    finally:
        server.close()

    # A failed request counts as missing every latency limit: it takes
    # the worst latency seen.
    worst = max((client.latency[i] for i in range(n_open) if i in client.latency), default=0.0)
    latencies = [client.latency.get(i, worst) for i in range(n_open)]
    digest = Digest()
    for i in sorted(client.digests):
        digest.add(client.digests[i])

    def batch(counts) -> float:
        return counts["requests"] / max(counts["batches"], 1)

    both = batches["open"] + batches["closed"]
    hits = rec.observations("serve.cache_hit")
    rec.observe("serve.batch_size", batch(both))
    rec.observe("serve.cache_hit_ratio", sum(hits) / len(hits) if hits else 0.0)
    rec.observe("serve.shed", both["shed"])
    rec.observe("serve.gen_late_ms", median(late) * 1e3)
    tally = client.tally
    metrics = {
        "prepare_ref": prepare_ref,
        "op_ref": median(closed_costs),
        "iterations": 1.0,  # one SpMV per request
        "sim_gflops_hmean": hmean(gflops),
    }
    notes = [
        f"prepare_s={prepare_s:.3f} (set-up prepares)",
        f"open loop: {n_open} requests at {sizes.rate:g} req/s, latency from due time "
        f"p50/p90/p99_ms={percentile(latencies, 50) * 1e3:.3f}/"
        f"{percentile(latencies, 90) * 1e3:.3f}/{percentile(latencies, 99) * 1e3:.3f} "
        f"(n={len(latencies)}), "
        f"mean batch {batch(batches['open']):.2f}, generator late p50/max "
        f"{median(late) * 1e3:.3f}/{max(late) * 1e3:.3f} ms",
        f"closed loop: {n_closed} requests, {sizes.outstanding} outstanding, "
        f"{closed_ok / closed_wall:.1f} req/s, mean batch {batch(batches['closed']):.2f}; "
        f"the loops alternate in {sizes.blocks} blocks",
        tally.note(),
    ]
    return Outcome(
        _common(metrics, tally, setup_s),
        tally.attempted, tally.failed, digest.hexdigest(), notes,
    )


# ---------------------------------------------------------------------- #
# solve: a time-varying SPD system
# ---------------------------------------------------------------------- #


def run_solve(seed: int, sizes: Sizes, rec, import_s: float, tamper=untouched) -> Outcome:
    """Per step: new seeded diagonal via ``update_values``, then CG."""

    def step_values(step: int, warm: bool = False) -> np.ndarray:
        rng = np.random.default_rng((seed, int(warm), step))
        values = base.copy()
        values[diagonal] += rng.uniform(*SHIFT, n)
        return values

    ref = Reference()
    setups, prepares, prepare_costs = [], [], []
    for _ in range(sizes.setup_repeats):
        t0 = clock()
        lap = laplacian(sizes.grid)
        n = lap.shape[0]
        rng = np.random.default_rng(seed)
        A = (lap + sparse.diags(rng.uniform(*SHIFT, n))).tocsr()
        b = rng.standard_normal(n)
        engine = new_engine()
        ref_before = ref.ms()
        tp = clock()
        prepared = engine.prepare(A)
        prepares.append(clock() - tp)
        prepare_costs.append(prepares[-1] * 1e3 / ((ref_before + ref.ms()) / 2))
        session = repro.SolverSession(prepared, engine=engine)
        csr = prepared.reference_csr()
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        diagonal = np.flatnonzero(rows == csr.indices)
        base = csr.data.copy()
        base[diagonal] = lap.diagonal()
        for step in range(sizes.warmup):
            session.update_values(step_values(step, warm=True))
            session.solve(b, method="cg", tol=TOL)
        gc.collect()
        setups.append(clock() - t0)

    tally, digest = Tally(), Digest()
    walls, costs, iterations, gflops = [], [], [], []
    for step in range(sizes.steps):
        values = step_values(step)
        rec.set_op(step)
        try:
            t0 = clock()
            session.update_values(values)
            result = session.solve(b, method="cg", tol=TOL)
            wall = clock() - t0
        except Exception:  # count it and keep measuring the rest
            tally.raised("step")
            continue
        walls.append(wall)
        costs.append(wall * 1e3 / ref.ms(repeats=1))
        iterations.append(result.iterations)
        gflops.append(2.0 * prepared.nnz * result.spmv_count / result.spmv_time_s / 1e9)
        x = tamper("solve", step, result.x)
        A_step = sparse.csr_matrix((values, csr.indices, csr.indptr), shape=csr.shape)
        residual = np.linalg.norm(b - A_step @ x)
        if result.converged and residual <= 10 * TOL:
            tally.ok()
        else:
            tally.fail("not converged to 10x tol")
        digest.add(x)

    metrics = {
        "prepare_ref": median(prepare_costs),
        "op_ref": median(costs),
        "iterations": median(iterations),
        "sim_gflops_hmean": hmean(gflops),
    }
    notes = [
        f"steps: {len(walls)}, p50/p90/p99_ms={percentile(walls, 50) * 1e3:.3f}/"
        f"{percentile(walls, 90) * 1e3:.3f}/{percentile(walls, 99) * 1e3:.3f} "
        f"(n={len(walls)}), {len(walls) / sum(walls):.2f} steps/s, "
        f"iterations min/max {min(iterations)}/{max(iterations)}",
        "set-ups: " + " ".join(f"{s:.3f}s" for s in setups)
        + "; their prepares: " + " ".join(f"{p:.3f}s" for p in prepares),
        tally.note(),
    ]
    return Outcome(
        _common(metrics, tally, import_s + median(setups)),
        tally.attempted, tally.failed, digest.hexdigest(), notes,
    )


WORKLOADS = {"tune": run_tune, "serve": run_serve, "solve": run_solve}
