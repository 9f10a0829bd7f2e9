"""Differential chaos drills for the sharded serving fabric.

The fabric's contract is stronger than "stays up": a request that
survives shard death, slowness or corruption must return the exact
product a single pristine server would have computed -- SpMV is
deterministic, so resilience machinery has no license to change bits.
:func:`run_chaos_drill` enforces that the way the repo's differential
tests enforce kernel correctness:

1. run a replay workload (suite matrices, value refreshes, multiple
   tenants) through **one pristine** :class:`~repro.serve.SpMVServer`
   and record every ``y`` -- the golden outputs;
2. run the *same* workload through a :class:`~repro.serve.ServeFabric`
   while a seeded :class:`~repro.fault.FaultPlan` kills the busiest
   shard mid-flight (``serve.shard_crash``), adds latency the fabric
   only records (``serve.shard_slow``) and/or a shard whose dispatches
   are detected-corrupt;
3. diff: every fabric response must be **bit-identical**
   (``np.array_equal``) to its golden output, no request may be lost,
   and -- when a kill was planned -- ``fabric.failovers`` must be
   positive, proving the drill actually exercised failover rather than
   passing vacuously.

Everything is seeded (the plan, the workload vectors, the matrix
generators), so a failing drill replays identically under
``repro chaos --seed N``.
"""

from __future__ import annotations

import glob
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.engine import SpMVEngine
from ..errors import ValidationError
from ..fault.injection import FaultPlan, FaultSpec, fault_scope
from ..fault.retry import RetryPolicy
from ..matrices.suite import get_spec
from .fabric import ServeFabric
from .health import HealthPolicy
from .server import ServeConfig, SpMVServer

__all__ = ["ChaosReport", "chaos_plan", "run_chaos_drill"]

#: The drill workload: small, structurally diverse corner of Table 2
#: (a stencil, a banded FEM, a power-law) so the serve keys spread over
#: the hash ring instead of all landing on one shard.
MATRICES = ("QCD", "FEM/Harbor", "Circuit", "Epidemiology")
#: Value versions per matrix: the original plus one refreshed copy, the
#: iterative-solver pattern (same structure, distinct value-aware key).
VALUE_REFRESHES = 2
#: Requests alternate between these tenants.
TENANTS = ("alice", "bob")


class _CorruptEngine(SpMVEngine):
    """Engine of a corrupt shard: every dispatch is detected-corrupt.

    Models the interesting corruption case -- the one validation
    *catches*: the dispatch raises :class:`~repro.errors.
    ValidationError` exactly as the strict engine does when a kernel's
    output fails the reference check.  The fabric must eject the shard
    through its health window and replay elsewhere; silent wrong bits
    would instead show up as a drill mismatch.  ``prepare`` is left
    intact so the corruption surfaces mid-serve, not at cache-fill time.
    """

    def multiply(self, *args, **kwargs):
        raise ValidationError(
            "corrupt shard: kernel output failed the validation check"
        )

    def multiply_many(self, *args, **kwargs):
        raise ValidationError(
            "corrupt shard: kernel output failed the validation check"
        )


def chaos_plan(seed: int, *, kills: int = 1, slows: int = 0,
               slow_extra_s: float = 0.3, worker_kills: int = 0,
               worker_hangs: int = 0) -> FaultPlan:
    """The drill's seeded fault plan (every argument is a budget).

    ``kills`` crash whole shards (permanent); ``slows`` add
    ``slow_extra_s`` to every latency the fabric records for one shard,
    which is only recorded (no ejection or scale decision reads it);
    ``worker_kills`` and ``worker_hangs`` kill or silence a shard's
    server (a real SIGKILL for a forked shard) -- recoverable through
    the supervisor.
    """
    specs = []
    if kills:
        specs.append(FaultSpec(
            site="serve.shard_crash", probability=1.0, count=kills,
        ))
    if slows:
        specs.append(FaultSpec(
            site="serve.shard_slow", probability=1.0, count=slows,
            fraction=slow_extra_s,
        ))
    if worker_kills:
        specs.append(FaultSpec(
            site="serve.worker_kill", probability=1.0, count=worker_kills,
        ))
    if worker_hangs:
        specs.append(FaultSpec(
            site="serve.worker_hang", probability=1.0, count=worker_hangs,
        ))
    return FaultPlan(specs, seed=seed)


@dataclass
class ChaosReport:
    """Outcome of one differential chaos drill (JSON-able)."""

    seed: int
    shards: int
    requests: int
    matched: int
    mismatched: list[int]
    golden_errors: list[tuple[int, str]]
    fabric_errors: list[tuple[int, str]]
    failovers: int
    shard_crashes: int
    ejections: int
    readmissions: int
    live_shards: int
    fault_events: list[str]
    require_failover: bool
    elapsed_s: float
    processes: bool = False
    autoscaled: bool = False
    worker_kills: int = 0
    worker_hangs: int = 0
    restarts: int = 0
    degraded: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    leaked_segments: list[str] = field(default_factory=list)
    fabric_stats: dict = field(default_factory=dict, repr=False)

    @property
    def passed(self) -> bool:
        """Bit-identical outputs, nothing lost, failover actually hit.

        Process drills add: every worker kill/hang answered by a
        supervisor restart (or a logged degrade), one full
        autoscale-up/down cycle when autoscaling was on, and zero
        shared-memory segments left behind after shutdown.
        """
        if self.mismatched or self.fabric_errors or self.golden_errors:
            return False
        if self.require_failover and self.failovers < 1:
            return False
        if self.processes:
            if (self.worker_kills + self.worker_hangs > 0
                    and self.restarts + self.degraded < 1):
                return False
            if self.autoscaled and (
                self.scale_ups < 1 or self.scale_downs < 1
            ):
                return False
            if self.leaked_segments:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "kind": "chaos_report",
            "passed": self.passed,
            "seed": self.seed,
            "shards": self.shards,
            "requests": self.requests,
            "matched": self.matched,
            "mismatched": list(self.mismatched),
            "golden_errors": [list(e) for e in self.golden_errors],
            "fabric_errors": [list(e) for e in self.fabric_errors],
            "failovers": self.failovers,
            "shard_crashes": self.shard_crashes,
            "ejections": self.ejections,
            "readmissions": self.readmissions,
            "live_shards": self.live_shards,
            "fault_events": list(self.fault_events),
            "require_failover": self.require_failover,
            "elapsed_s": round(self.elapsed_s, 3),
            "processes": self.processes,
            "autoscaled": self.autoscaled,
            "worker_kills": self.worker_kills,
            "worker_hangs": self.worker_hangs,
            "restarts": self.restarts,
            "degraded": self.degraded,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "leaked_segments": list(self.leaked_segments),
        }

    def summary(self) -> str:
        lines = [
            f"chaos drill: seed={self.seed} shards={self.shards} "
            f"requests={self.requests}",
            f"  matched       : {self.matched}/{self.requests} bit-identical",
            f"  failovers     : {self.failovers}"
            f" (crashes={self.shard_crashes}, ejections={self.ejections},"
            f" readmissions={self.readmissions})",
            f"  live shards   : {self.live_shards}/{self.shards} at exit",
            f"  fault events  : "
            + (", ".join(self.fault_events) if self.fault_events else "none"),
        ]
        if self.processes:
            lines.append(
                f"  workers       : kills={self.worker_kills} "
                f"hangs={self.worker_hangs} restarts={self.restarts} "
                f"degraded={self.degraded}"
            )
            if self.autoscaled:
                lines.append(
                    f"  autoscale     : ups={self.scale_ups} "
                    f"downs={self.scale_downs}"
                )
            lines.append(
                "  shm leftovers : "
                + (", ".join(self.leaked_segments)
                   if self.leaked_segments else "none")
            )
        if self.mismatched:
            lines.append(f"  MISMATCHED    : requests {self.mismatched}")
        if self.fabric_errors:
            lines.append(f"  FABRIC ERRORS : {self.fabric_errors}")
        if self.golden_errors:
            lines.append(f"  GOLDEN ERRORS : {self.golden_errors}")
        lines.append(f"  verdict       : {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _build_workload(
    cap_nnz: int, requests_per_matrix: int, seed: int
) -> list[tuple[object, np.ndarray, str]]:
    """Deterministic (matrix, x, tenant) triples; one serve key per
    (matrix, value refresh), so keys spread across the hash ring."""
    rng = np.random.default_rng(seed)
    work: list[tuple[object, np.ndarray, str]] = []
    i = 0
    for name in MATRICES:
        spec = get_spec(name)
        base = spec.load(scale=spec.scale_for_nnz(cap_nnz), seed=seed)
        for refresh in range(VALUE_REFRESHES):
            if refresh == 0:
                A = base
            else:
                # The iterative-solver pattern: same structure, new
                # values -- a distinct value-aware serve key.
                A = base.copy()
                A.data = A.data * (1.0 + 0.25 * refresh)
            for _ in range(requests_per_matrix):
                x = rng.standard_normal(A.shape[1])
                work.append((A, x, TENANTS[i % len(TENANTS)]))
                i += 1
    return work


def run_chaos_drill(
    shards: int = 3,
    seed: int = 7,
    *,
    cap_nnz: int = 4_000,
    requests_per_matrix: int = 3,
    kills: int = 1,
    slows: int = 0,
    corrupt_shards: int = 0,
    device: str = "gtx680",
    observer=None,
    processes: bool = False,
    worker_hangs: int = 0,
    reply_timeout_s: float = 15.0,
) -> ChaosReport:
    """Run the differential drill; see the module docstring for the plot.

    The workload sends ``requests_per_matrix`` requests for each of
    :data:`VALUE_REFRESHES` value versions of each of :data:`MATRICES`
    (capped at ``cap_nnz``), alternating between :data:`TENANTS`.
    ``kills``/``slows`` are fault budgets for the seeded plan;
    ``corrupt_shards`` makes that many shards (highest indices)
    detected-corrupt from the start.  A failover is required when a
    kill or corruption was planned and more than one shard exists --
    the configurations in which a vacuous pass must be rejected.
    The fabric shards run the serve layer's default ``fast`` backend
    while the pristine golden server runs ``faithful``, so every drill
    doubles as a bit-identity check on the vectorized path.

    ``processes=True`` runs every shard as a forked worker process and
    re-targets the ``kills`` budget at **real SIGKILLs**
    (``serve.worker_kill``): the shard is not lost, the supervisor must
    restart (or degrade) it, and the drill additionally asserts a full
    autoscale up/down cycle and that shutdown leaves zero shared-memory
    segments behind.
    Every distinct workload matrix is prepared once in the parent,
    primed into the pristine golden server and fabric-wide through
    shared memory, so neither the golden run nor a worker tunes it again
    -- which also keeps the drill's wall-clock bounded by
    ``reply_timeout_s`` only when a ``worker_hangs`` budget is given.
    """
    t0 = time.perf_counter()
    require_failover = shards > 1 and (kills > 0 or corrupt_shards > 0)
    work = _build_workload(cap_nnz, requests_per_matrix, seed)
    serve_config = ServeConfig(batch_window_s=0.0)

    # -- golden: one pristine server, threadless, no faults.  The
    # explicit engine keeps the golden run on the faithful interpreter
    # (the serve layer's *default* engine is the fast backend): the
    # arbiter must stay the paper-exact path regardless of defaults.
    # A process drill prepares each distinct matrix once, here, and
    # primes both the pristine server and (below) the fabric with that
    # one handle, so no matrix is tuned twice.
    engine = SpMVEngine(device=device)
    primed: list = []
    if processes:
        seen: set[int] = set()
        for A, _, _ in work:
            if id(A) not in seen:
                seen.add(id(A))
                primed.append(engine.prepare(A))
    golden: list[np.ndarray | None] = []
    golden_errors: list[tuple[int, str]] = []
    with SpMVServer(engine, serve_config, start=False) as pristine:
        for prepared in primed:
            pristine.prime(prepared)
        futures = [pristine.submit(A, x) for A, x, _ in work]
        pristine.drain()
        for i, f in enumerate(futures):
            err = f.exception(timeout=0)
            if err is not None:
                golden_errors.append((i, type(err).__name__))
                golden.append(None)
            else:
                golden.append(f.result(timeout=0).y)

    # -- fabric: same workload under the seeded fault plan.
    corrupt = {shards - 1 - c for c in range(min(corrupt_shards, shards))}

    def factory(index: int) -> SpMVEngine:
        cls = _CorruptEngine if index in corrupt else SpMVEngine
        return cls(device=device, backend="fast")

    if processes:
        # Real SIGKILLs instead of permanent shard crashes: the fleet
        # must *recover*, not just route around a hole.
        plan = chaos_plan(
            seed, kills=0, slows=slows,
            worker_kills=kills, worker_hangs=worker_hangs,
        )
    else:
        plan = chaos_plan(seed, kills=kills, slows=slows)
    pre_segments = set(glob.glob("/dev/shm/reproshm-*"))
    fabric = ServeFabric(
        shards,
        device=device,
        engine_factory=factory,
        serve_config=serve_config,
        health_policy=HealthPolicy(window=8, min_samples=2),
        max_attempts=max(2, min(shards, 4)),
        observer=observer,
        start=False,
        processes=processes,
        reply_timeout_s=reply_timeout_s,
        restart_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
        autoscale=processes,
    )
    mismatched: list[int] = []
    fabric_errors: list[tuple[int, str]] = []
    matched = 0
    leaked: list[str] = []
    try:
        # Prime the golden run's handles fabric-wide through shared
        # memory: workers map the segments instead of re-tuning, and
        # supervisor restarts re-warm from the same handles.
        for prepared in primed:
            fabric.prime(prepared)
        futures = [
            fabric.submit(A, x, tenant=tenant) for A, x, tenant in work
        ]
        with fault_scope(plan):
            fabric.drain()
            if processes:
                # Idle housekeeping: heal any worker killed on the last
                # round, and let the scale-down hysteresis observe the
                # drained fleet.
                fabric.tick(rounds=8)
        for i, f in enumerate(futures):
            err = f.exception(timeout=0)
            if err is not None:
                fabric_errors.append((i, type(err).__name__))
            elif golden[i] is None:
                mismatched.append(i)  # fabric "succeeded" where golden failed
            elif np.array_equal(f.result(timeout=0).y, golden[i]):
                matched += 1
            else:
                mismatched.append(i)
        stats = fabric.stats()
    finally:
        fabric.close(drain=False)
        for prepared in primed:
            prepared.release_shared()
        if processes:
            leaked = sorted(
                set(glob.glob("/dev/shm/reproshm-*")) - pre_segments
            )

    supervisor_stats = stats.get("supervisor", {})
    autoscaler_stats = stats.get("autoscaler", {})
    return ChaosReport(
        seed=seed,
        shards=shards,
        requests=len(work),
        matched=matched,
        mismatched=mismatched,
        golden_errors=golden_errors,
        fabric_errors=fabric_errors,
        failovers=stats["failovers"],
        shard_crashes=stats["shard_crashes"],
        ejections=stats["ejections"],
        readmissions=stats["readmissions"],
        live_shards=stats["live_shards"],
        fault_events=[e.site for e in plan.events],
        require_failover=require_failover,
        elapsed_s=time.perf_counter() - t0,
        processes=processes,
        autoscaled=processes,
        worker_kills=stats.get("worker_kills", 0),
        worker_hangs=stats.get("worker_hangs", 0),
        restarts=supervisor_stats.get("restarts", 0),
        degraded=supervisor_stats.get("degraded", 0),
        scale_ups=autoscaler_stats.get("scale_ups", 0),
        scale_downs=autoscaler_stats.get("scale_downs", 0),
        leaked_segments=leaked,
        fabric_stats=stats,
    )
