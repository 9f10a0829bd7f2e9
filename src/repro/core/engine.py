"""High-level public API: the yaSpMV engine.

Typical use::

    from repro import SpMVEngine

    engine = SpMVEngine(device="gtx680")
    prepared = engine.prepare(A)          # auto-tune + convert once
    result = engine.multiply(prepared, x)  # run many times
    print(result.gflops, result.breakdown.t_total)

or the one-shot convenience :func:`yaspmv`.  ``prepare`` runs the
section 4 auto-tuner (pruned search by default), builds the selected
BCCOO/BCCOO+ instance, and caches it; ``multiply`` executes the
simulated kernel, returning the exact product plus the simulated timing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..backends import ExecutionBackend, get_backend
from ..backends.base import kernel_for
from ..errors import FaultInjectedError, ReproError, ValidationError
from ..fault.injection import FaultPlan, fault_scope
from ..fault.resilience import AttemptRecord, FailureReport
from ..fault.retry import CircuitBreaker
from ..fault.validation import ValidationReport, verify_output
from ..formats.bccoo import BCCOOMatrix
from ..formats.bccoo_plus import BCCOOPlusMatrix
from ..formats.csr import CSRMatrix
from ..formats.merge_csr import MergeCSRMatrix
from ..formats.rgcsr import RGCSRMatrix
from ..gpu.counters import KernelStats
from ..gpu.device import DeviceSpec, get_device
from ..gpu.timing import TimingBreakdown, TimingModel
from ..kernels.base import get_kernel
from ..kernels.config import YaSpMVConfig
from ..obs import NULL_OBSERVER, active_observer, obs_scope
from ..obs.stages import StageClock, stage, stage_scope
from ..tuning.cache import KernelPlanCache, build_format
from ..tuning.persistence import TuningStore
from ..tuning.parameters import TuningPoint
from ..tuning.tuner import AutoTuner, TuningResult
from ..util import as_csr

__all__ = ["PreparedMatrix", "SpMVResult", "SpMVEngine", "yaspmv"]


@dataclass
class PreparedMatrix:
    """An auto-tuned, converted matrix ready for repeated multiplies."""

    fmt: BCCOOMatrix | BCCOOPlusMatrix | MergeCSRMatrix | RGCSRMatrix
    point: TuningPoint
    tuning: TuningResult | None
    nnz: int
    #: CSR source retained for the resilience layer (reference checks
    #: and the fallback chain); ``None`` for hand-built instances, in
    #: which case it is lazily reconstructed from ``fmt``.
    csr: object | None = None
    #: Shared-memory arena backing the buffers after :meth:`share`;
    #: ``None`` for plain in-process (owned) storage.
    arena: object | None = field(default=None, repr=False, compare=False)
    #: Guards the lazy decode -- ``multiply_many``/``multiply`` may hit
    #: one PreparedMatrix from several threads concurrently.
    _csr_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def config(self) -> YaSpMVConfig:
        return self.point.kernel

    @property
    def shared(self) -> bool:
        """Whether the buffers live in ``multiprocessing.shared_memory``."""
        return self.arena is not None

    def reference_csr(self):
        """The trusted CSR operand (lazily decoded from ``fmt`` if needed).

        Thread-safe: concurrent first calls decode once; every caller
        sees the same object, and the instance is never observed
        half-initialized.
        """
        if self.csr is None:
            with self._csr_lock:
                if self.csr is None:
                    self.csr = self.fmt.to_scipy()
        return self.csr

    # -- incremental value refresh ------------------------------------- #

    def with_values(self, new_values) -> "PreparedMatrix":
        """A new prepared instance sharing this one's structural plan.

        ``new_values`` is either a 1-D array replacing the CSR data
        vector in place (same sparsity pattern, canonical order), or a
        full matrix with the identical pattern.  The tuned point, the
        tuning record, the bit flags and the compressed column arrays
        are all shared by identity -- only the value buffers are rebuilt,
        which is why this is orders of magnitude cheaper than a fresh
        :meth:`SpMVEngine.prepare`.

        Structural drift (different nnz/shape/pattern, or a value of
        exactly ``0.0``, which canonicalization eliminates) raises
        :class:`~repro.errors.ValidationError`.

        The new CSR owns its values: a caller that reuses ``new_values``
        as a buffer for the next refresh cannot change this instance.
        """
        from scipy import sparse as _sp

        csr = self.reference_csr()
        new_values = (
            np.asarray(new_values)
            if not _sp.issparse(new_values)
            else new_values
        )
        if isinstance(new_values, np.ndarray) and new_values.ndim == 1:
            if new_values.shape[0] != csr.data.shape[0]:
                raise ValidationError(
                    f"with_values expected {csr.data.shape[0]} values "
                    f"(one per stored non-zero), got {new_values.shape[0]}"
                )
            new_csr = _sp.csr_matrix(
                (
                    np.array(new_values, dtype=np.float64),
                    csr.indices,
                    csr.indptr,
                ),
                shape=csr.shape,
            )
        else:
            new_csr = as_csr(new_values)
            if new_csr.shape != csr.shape:
                raise ValidationError(
                    f"with_values shape mismatch: prepared matrix is "
                    f"{csr.shape}, new matrix is {new_csr.shape}"
                )
        fmt = self.fmt.with_values(new_csr)
        return PreparedMatrix(
            fmt=fmt,
            point=self.point,
            tuning=self.tuning,
            nnz=int(new_csr.nnz),
            csr=new_csr,
        )

    # -- zero-copy shared storage ------------------------------------- #

    def share(self) -> "PreparedMatrix":
        """Move the buffers into one shared-memory segment (idempotent).

        After this, pickling ships a small descriptor instead of the
        arrays: worker processes attach the same physical pages
        (:class:`repro.core.shm.SharedArena`) and rebuild zero-copy
        views.  Call :meth:`release_shared` when done; the owning
        process's release unlinks the segment.
        """
        if self.arena is not None:
            return self
        from .shm import SharedArena

        csr = self.reference_csr()
        arrays = dict(self.fmt.share_arrays())
        arrays["csr.data"] = csr.data
        arrays["csr.indices"] = csr.indices
        arrays["csr.indptr"] = csr.indptr
        self._adopt(SharedArena.create(arrays), self.fmt.shm_meta(), csr.shape)
        return self

    def _adopt(self, arena, fmt_meta: dict, csr_shape) -> None:
        """Rebuild fmt and csr around the arena's zero-copy views."""
        from scipy import sparse as _sp

        from ..formats import get_format

        views = {k: arena.view(k) for k in arena.keys() if not k.startswith("csr.")}
        self.fmt = get_format(fmt_meta["format"]).from_shared(fmt_meta, views)
        self.csr = _sp.csr_matrix(
            (
                arena.view("csr.data"),
                arena.view("csr.indices"),
                arena.view("csr.indptr"),
            ),
            shape=csr_shape,
            copy=False,
        )
        self.arena = arena

    def release_shared(self) -> None:
        """Drop this process's reference to the shared segment.

        Refcounted: the owner's final release unlinks the segment;
        attached workers only unmap.  No-op for owned storage.
        """
        if self.arena is not None:
            self.arena.close()
            self.arena = None

    # -- pickling (shared: ship the descriptor, not the arrays) -------- #

    def __getstate__(self):
        state = {
            "point": self.point,
            "tuning": self.tuning,
            "nnz": self.nnz,
        }
        if self.arena is None:
            state["fmt"] = self.fmt
            state["csr"] = self.csr
            return state
        state["arena_descriptor"] = self.arena.descriptor()
        state["csr_shape"] = tuple(self.csr.shape)
        state["fmt_meta"] = self.fmt.shm_meta()
        return state

    def __setstate__(self, state):
        self.point = state["point"]
        self.tuning = state["tuning"]
        self.nnz = state["nnz"]
        self.arena = None
        self._csr_lock = threading.Lock()
        if "arena_descriptor" not in state:
            self.fmt = state["fmt"]
            self.csr = state["csr"]
            return
        from .shm import SharedArena

        arena = SharedArena.attach(state["arena_descriptor"])
        self._adopt(arena, state["fmt_meta"], state["csr_shape"])

    # -- the shared result protocol (see SpMVResult / TuningResult) ---- #

    def to_dict(self) -> dict:
        """JSON-able snapshot matching the result-protocol shape."""
        point = self.point
        return {
            "kind": "prepared_matrix",
            "nnz": int(self.nnz),
            "shape": [int(s) for s in self.fmt.shape],
            "format": point.format_name,
            "block": f"{point.block_height}x{point.block_width}",
            "slices": int(point.slice_count),
            "shared": self.shared,
            "shared_bytes": int(self.arena.nbytes) if self.arena is not None else 0,
            "tuning": None if self.tuning is None else self.tuning.to_dict(),
        }

    def summary(self) -> str:
        """One-line human description of the prepared instance."""
        point = self.point
        line = (
            f"{point.format_name} {point.block_height}x{point.block_width}"
            f" (slices={point.slice_count}, nnz={self.nnz})"
        )
        if self.shared:
            line += f" [shared: {self.arena.nbytes} B]"
        return line


@dataclass
class SpMVResult:
    """Product vector plus simulated execution profile."""

    y: np.ndarray
    stats: KernelStats
    breakdown: TimingBreakdown
    nnz: int
    #: Degradation trail; ``None`` when the tuned path succeeded outright
    #: (always ``None`` outside resilient mode).
    failure: FailureReport | None = None

    @property
    def time_s(self) -> float:
        return self.breakdown.t_total

    @property
    def gflops(self) -> float:
        return self.breakdown.gflops(self.nnz)

    @property
    def degraded(self) -> bool:
        return self.failure is not None and self.failure.degraded

    # -- the shared result protocol (see TuningResult for the other half)

    def to_dict(self) -> dict:
        """JSON-able snapshot -- the exporters' and CLI's interchange
        form, so callers stop reaching into dataclass internals."""
        return {
            "kind": "spmv_result",
            "nnz": int(self.nnz),
            "time_s": float(self.time_s),
            "gflops": float(self.gflops),
            "bound": self.breakdown.bound,
            "degraded": self.degraded,
            "fallback_used": None if self.failure is None else self.failure.fallback_used,
            "breakdown": asdict(self.breakdown),
            "stats": {
                "flops": float(self.stats.flops),
                "dram_read_bytes": float(self.stats.dram_read_bytes),
                "dram_write_bytes": float(self.stats.dram_write_bytes),
                "cached_read_bytes": float(self.stats.cached_read_bytes),
                "n_workgroups": int(self.stats.n_workgroups),
                "n_launches": int(self.stats.n_launches),
                "atomics": int(self.stats.atomics),
            },
        }

    def summary(self) -> str:
        """One-line human description of the execution."""
        line = (
            f"{self.gflops:.2f} GFLOPS ({self.time_s * 1e6:.1f} us, "
            f"{self.breakdown.bound}-bound, nnz={self.nnz})"
        )
        if self.failure is not None:
            line += f" [fallback: {self.failure.fallback_used}]"
        return line


class SpMVEngine:
    """Auto-tuning SpMV engine over the simulated device.

    Parameters
    ----------
    device:
        Device name (``"gtx680"``, ``"gtx480"``) or a
        :class:`DeviceSpec`.
    plan_store:
        Optional :class:`repro.tuning.TuningStore` consulted by every
        :meth:`prepare`: a persisted configuration for this matrix
        structure and device skips the search entirely (the returned
        ``PreparedMatrix.tuning`` has ``store_hit=True`` and
        ``evaluated == 0``), and a fresh search result is written back.
    policy:
        ``"strict"`` (default) raises a typed error on the first
        validation failure; ``"permissive"`` degrades gracefully down
        the fallback chain (tuned -> one immediate tuned retry, which
        recovers a transient fault -> logical-id repair -> untuned
        default point -> CSR reference) and reports the trail in
        :attr:`SpMVResult.failure`.
    fault_plan:
        Optional :class:`repro.fault.FaultPlan` installed around every
        kernel execution -- the fault-injection harness.  A spec string
        (e.g. ``"stale_grp_sum:p=0.01,seed=7"``) is parsed with
        :meth:`repro.fault.FaultPlan.parse`.  ``None`` (the default)
        leaves the hot path untouched and results bit-identical to the
        plain engine.
    observer:
        Optional :class:`repro.obs.Observer` receiving spans and metrics
        from every ``prepare``/``multiply``/``multiply_many`` (and,
        through the ambient scope, from the tuner, kernels, timing model
        and fallback chain).  ``None`` (the default) installs the no-op
        null observer -- no measurable overhead.
    validate:
        ``"auto"`` (validate kernel output only when a fault plan is
        active), ``True`` (always) or ``False`` (never).  The check is
        :func:`~repro.fault.validation.verify_output` at its defaults:
        every row finite, a global checksum, and 64 sampled rows against
        the CSR reference (rtol 1e-9, atol 1e-12).
    breaker:
        Optional :class:`repro.fault.CircuitBreaker` keyed by kernel
        family (the prepared point's format name).  Under the
        ``"permissive"`` policy, a family whose tuned path keeps failing
        trips its circuit: subsequent multiplies skip straight to the
        repair/fallback stages (recorded as a ``CircuitOpenError``
        attempt) until the cooldown's half-open probe succeeds.  The
        per-family state is exported through the ``breaker.state``
        gauge.  ``None`` (default) disables breaking.
    backend:
        ``"faithful"`` (default, the workgroup interpreter) or
        ``"fast"`` (the vectorized path).  Every ``multiply`` and
        ``multiply_many`` runs on it; the two are bit-identical, so the
        choice only moves the wall clock.  Tuning ranks candidates on
        profile-only launches whatever the backend, then executes only
        the winner, on ``faithful``, and checks it against the CSR
        reference; under a fault plan every candidate runs the full
        ``faithful`` launch (see ``docs/backends.md``).
    """

    _POLICIES = ("strict", "permissive")

    def __init__(
        self,
        device: str | DeviceSpec = "gtx680",
        plan_store: TuningStore | None = None,
        policy: str = "strict",
        fault_plan: FaultPlan | str | None = None,
        validate: bool | str = "auto",
        breaker: CircuitBreaker | None = None,
        observer=None,
        backend: str = "faithful",
    ):
        if policy not in self._POLICIES:
            raise ValidationError(
                f"policy must be one of {self._POLICIES}, got {policy!r}"
            )
        if validate not in (True, False, "auto"):
            raise ValidationError(
                f"validate must be True, False or 'auto', got {validate!r}"
            )
        self.device = get_device(device) if isinstance(device, str) else device
        #: Kernel plans shared by every tune on this engine (reused
        #: across matrices, paper section 4).
        self.plan_cache = KernelPlanCache()
        self.plan_store = plan_store
        self.policy = policy
        self.fault_plan = FaultPlan.coerce(fault_plan)
        self.validate = validate
        self.observer = observer if observer is not None else NULL_OBSERVER
        if breaker is not None and not isinstance(breaker, CircuitBreaker):
            raise ValidationError(
                f"breaker must be a CircuitBreaker or None, "
                f"got {type(breaker).__name__}"
            )
        self.breaker = breaker
        self._backend = get_backend(backend)
        self._timing = TimingModel(self.device)

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend chosen at construction (read-only)."""
        return self._backend

    @property
    def _resilient(self) -> bool:
        """Whether multiplies go through the validating fallback chain."""
        if self.validate is True:
            return True
        # A permissive breaker must see every multiply: an open circuit
        # has to short-circuit clean runs too, and the half-open probe
        # only closes if its success is observed and recorded.
        breaking = self.breaker is not None and self.policy == "permissive"
        return self.fault_plan is not None or breaking

    # ------------------------------------------------------------------ #

    def prepare(
        self, matrix, point: TuningPoint | None = None
    ) -> PreparedMatrix:
        """Tune (unless ``point`` is given) and convert ``matrix``.

        Pass an explicit :class:`TuningPoint` to skip tuning -- used by
        the ablation benchmarks and by callers replaying a saved
        configuration.  The engine's ``plan_store`` provides persistent
        warm starts: a stored entry for this matrix structure and device
        skips the search -- observable as ``tuning.store_hit`` with
        ``evaluated == 0`` -- and a fresh search result is written back.

        The search is the pruned one and keeps no per-candidate history.
        A deadline or a checkpoint journal is an
        :class:`~repro.tuning.AutoTuner` option, and
        :meth:`PreparedMatrix.share` moves the result into shared memory.
        """
        obs = self.observer
        clock = StageClock() if obs.enabled else None
        with obs_scope(obs), stage_scope(clock), obs.span(
            "engine.prepare", device=self.device.name
        ) as prep_span:
            csr = as_csr(matrix)
            prep_span.set(nnz=int(csr.nnz), shape=f"{csr.shape[0]}x{csr.shape[1]}")
            store = self.plan_store
            tuning: TuningResult | None = None
            store_checked = False
            invalidations0 = store.invalidations if store is not None else 0
            if point is None and store is not None:
                store_checked = True
                t0 = time.perf_counter()
                with obs.span("store.lookup") as store_span, stage("store"):
                    cached = store.get(csr, self.device)
                    store_span.set(hit=cached is not None)
                obs.counter(
                    "engine.plan_store.hits", "persistent tuning-store hits"
                ).inc(int(cached is not None))
                obs.counter(
                    "engine.plan_store.misses", "persistent tuning-store misses"
                ).inc(int(cached is None))
                if cached is not None:
                    point = cached
                    tuning = TuningResult.from_store(
                        cached,
                        wall_seconds=time.perf_counter() - t0,
                        invalidations=store.invalidations - invalidations0,
                    )
            if point is None:
                tuner = AutoTuner(
                    self.device,
                    mode="pruned",  # the mode segment of every serve key
                    plan_cache=self.plan_cache,
                    keep_history=False,
                    observer=obs,
                )
                tuning = tuner.tune(csr)
                point = tuning.best_point
                if store is not None:
                    with stage("store"):
                        store.put(csr, self.device, point)
                tuning.store_checked = store_checked
                if store is not None:
                    tuning.store_invalidations = store.invalidations - invalidations0
            # The tuner adds the real plan-cache deltas itself; this only
            # materializes the counters for warm-started / explicit-point
            # prepares so the metrics table always shows them.
            obs.counter("tuner.plan_cache.hits", "kernel-plan cache hits").inc(0)
            obs.counter("tuner.plan_cache.misses", "kernel-plan cache misses").inc(0)

            with obs.span(
                "format.convert", format=point.format_name
            ) as conv_span:
                # A tune hands over the format its winner check built.
                fmt = tuning.checked_format if tuning is not None else None
                if fmt is None:
                    fmt = build_format(csr, point)
                else:
                    tuning.checked_format = None
                conv_span.set(
                    block=f"{point.block_height}x{point.block_width}",
                    slices=point.slice_count,
                )
            obs.counter("engine.prepares", "prepare() calls").inc()
            prep_span.set(
                format=point.format_name,
                store_hit=bool(tuning is not None and tuning.store_hit),
            )
            prepared = PreparedMatrix(
                fmt=fmt, point=point, tuning=tuning, nnz=int(csr.nnz), csr=csr
            )
            if clock is not None:
                stage_seconds = obs.counter(
                    "prepare.stage_seconds", "prepare wall seconds, by stage"
                )
                for name, seconds in clock.seconds.items():
                    stage_seconds.inc(seconds, stage=name)
            return prepared

    def multiply(
        self,
        prepared: PreparedMatrix | object,
        x: np.ndarray,
    ) -> SpMVResult:
        """Execute one SpMV: ``y = A @ x``.

        ``prepared`` is normally a :class:`PreparedMatrix` from
        :meth:`prepare` (amortizes tuning over repeated multiplies), but
        any sparse matrix is accepted as a documented one-shot overload
        -- it is prepared (auto-tuned, warm-started from ``plan_store``
        when set) and multiplied in one call.

        With no fault plan and validation off (the default), this is the
        plain tuned execution.  Otherwise the multiply runs through the
        resilience layer: injection scope, output validation, and --
        under the ``"permissive"`` policy -- the graceful-degradation
        fallback chain (see ``docs/robustness.md``).
        """
        if not isinstance(prepared, PreparedMatrix):
            prepared = self.prepare(prepared)
        obs = self.observer
        if obs.enabled:
            with obs_scope(obs), obs.span(
                "engine.multiply",
                nnz=prepared.nnz,
                resilient=self._resilient,
                backend=self._backend.name,
            ) as sp:
                out = self._multiply_vector(prepared, x)
                self._observe_result(sp, out)
                return out
        if active_observer() is obs:  # already ambient: nothing to install
            return self._multiply_vector(prepared, x)
        with obs_scope(obs):
            return self._multiply_vector(prepared, x)

    def _multiply_vector(self, prepared: PreparedMatrix, x) -> SpMVResult:
        if self._resilient:
            return self._multiply_resilient(prepared, x)
        result = self._backend.execute(prepared.fmt, x, self.device, prepared.config)
        return self._result(result, prepared.nnz)

    # ------------------------------------------------------------------ #
    # Resilience layer
    # ------------------------------------------------------------------ #

    def _multiply_resilient(
        self, prepared: PreparedMatrix, x: np.ndarray
    ) -> SpMVResult:
        """Validating multiply with bounded retry and fallback chain.

        Handles both the vector (1-D ``x``) and the multi-RHS (2-D ``x``)
        cases; the fallback stages and validation are shared.  The tuned
        stages run on the engine's backend; the deep fallbacks (untuned
        rebuild, CSR reference) always run on the faithful interpreter --
        the degraded path optimizes for trust, not speed.
        """
        plan = self.fault_plan
        csr = prepared.reference_csr()
        report = FailureReport()
        x = np.asarray(x, dtype=np.float64)
        n_rhs = x.shape[1] if x.ndim == 2 else 1
        obs = self.observer

        # Materialize the containment counters so `repro profile` always
        # shows them, even when nothing retried or timed out this run.
        obs.counter(
            "retry.attempts", "same-stage retries of the tuned kernel"
        ).inc(0)
        obs.counter(
            "watchdog.timeouts", "adjacent-sync spin watchdog expiries"
        ).inc(0)

        family = prepared.point.format_name
        breaker = self.breaker if self.policy == "permissive" else None

        stages: list[tuple[str, object, YaSpMVConfig | None, bool]] = []
        tuned_allowed = True
        if breaker is not None and not breaker.allow(family):
            # Circuit open: don't re-probe a family that keeps failing --
            # jump straight to the repair/fallback stages.  The skip is
            # recorded so the degradation trail stays complete.
            tuned_allowed = False
            report.attempts.append(
                AttemptRecord(
                    stage="tuned",
                    ok=False,
                    error=(
                        f"circuit for kernel family {family!r} is open; "
                        "tuned stages skipped until the cooldown probe"
                    ),
                    error_type="CircuitOpenError",
                )
            )
            obs.counter(
                "breaker.short_circuits",
                "multiplies that skipped tuned stages on an open circuit",
            ).inc(family=family)
        if tuned_allowed:
            # One immediate same-stage retry recovers a transient fault
            # (a plan whose injection budget runs out).
            stages.append(("tuned", prepared.fmt, prepared.config, True))
            stages.append(("tuned-retry", prepared.fmt, prepared.config, True))
        if (
            plan is not None
            and plan.targets("dispatch.")
            and prepared.config.workgroup_ids != "atomic"
        ):
            # Targeted repair: out-of-order dispatch is exactly what the
            # logical-id atomic fallback neutralizes (section 3.2.4).
            stages.append(
                (
                    "logical-ids",
                    prepared.fmt,
                    prepared.config.with_overrides(workgroup_ids="atomic"),
                    True,
                )
            )
        stages.append(("untuned", None, YaSpMVConfig(), True))
        stages.append(("csr-reference", None, None, False))

        for depth, (stage, fmt, config, with_plan) in enumerate(stages):
            if stage == "tuned-retry":
                obs.counter(
                    "retry.attempts", "same-stage retries of the tuned kernel"
                ).inc()
            with obs.span("fallback.attempt", stage=stage, depth=depth) as stage_span:
                result, record = self._attempt(
                    stage, fmt, config, with_plan, prepared, csr, x, plan
                )
                stage_span.set(ok=record.ok, injected=len(record.injected))
                if record.error:
                    stage_span.set(error=record.error_type)
            for event in record.injected:
                obs.counter(
                    "fault.injections", "fault events caught per site"
                ).inc(site=event.site)
            report.attempts.append(record)
            if result is not None:
                report.fallback_used = stage
                if breaker is not None and tuned_allowed:
                    # The tuned path either proved itself or was walked
                    # past: feed the circuit so persistent failures trip
                    # it and a half-open probe's success closes it.
                    if stage in ("tuned", "tuned-retry"):
                        breaker.record_success(family)
                    else:
                        breaker.record_failure(family)
                if breaker is not None:
                    obs.gauge(
                        "breaker.state",
                        "per-family circuit state "
                        "(0=closed, 1=half-open, 2=open)",
                    ).set(breaker.state_value(family), family=family)
                obs.counter(
                    "fallback.stage_used", "winning fallback stage"
                ).inc(stage=stage)
                obs.histogram(
                    "fallback.depth",
                    "attempts walked before success",
                    buckets=(1, 2, 3, 4, 5),
                ).observe(len(report.attempts))
                breakdown = self._clock(result)
                return SpMVResult(
                    y=result.y,
                    stats=result.stats,
                    breakdown=breakdown,
                    nnz=prepared.nnz * n_rhs,
                    failure=report,
                )
            obs.counter(
                "fallback.stage_failed", "failed fallback attempts"
            ).inc(stage=stage)
            if self.policy == "strict":
                self._raise_strict(record, plan)
        # Unreachable in practice: the CSR reference stage cannot fail
        # validation against itself; guard against silent wrong answers.
        raise ValidationError(
            "every fallback stage failed validation:\n" + report.summary()
        )

    def _attempt(
        self,
        stage: str,
        fmt,
        config: YaSpMVConfig | None,
        with_plan: bool,
        prepared: PreparedMatrix,
        csr,
        x: np.ndarray,
        plan: FaultPlan | None,
    ):
        """Run one fallback stage; returns ``(KernelResult | None, record)``."""
        active = plan if with_plan else None
        multi = np.asarray(x).ndim == 2
        try:
            with fault_scope(active):
                if stage == "csr-reference":
                    # Trusted last resort: host-side CSR kernel, fault
                    # injection explicitly disabled.
                    kernel_result = self._csr_reference(csr, x)
                else:
                    backend = self._backend
                    if fmt is None:
                        # Untuned default point, rebuilt from the CSR
                        # source; always faithful -- the degraded path
                        # stays on the interpreter the fault model
                        # instruments.
                        fmt = BCCOOMatrix.from_scipy(csr)
                        backend = get_backend("faithful")
                    run = backend.execute_multi if multi else backend.execute
                    kernel_result = run(fmt, x, self.device, config)
        except ReproError as exc:
            injected = active.drain_events() if active is not None else []
            return None, AttemptRecord(
                stage=stage,
                ok=False,
                error=str(exc),
                error_type=type(exc).__name__,
                injected=injected,
            )
        injected = active.drain_events() if active is not None else []

        if self.validate is False:
            validation: ValidationReport | None = None
            ok = True
        else:
            operand = np.asarray(x, dtype=np.float64)
            validation = verify_output(
                csr,
                operand if multi else operand.ravel(),
                kernel_result.y,
            )
            ok = validation.ok
        record = AttemptRecord(
            stage=stage, ok=ok, validation=validation, injected=injected
        )
        if not ok:
            first = validation.failures[0]
            record.error = f"{first.name}: {first.detail}"
            record.error_type = "ValidationError"
            return None, record
        return kernel_result, record

    def _csr_reference(self, csr, x: np.ndarray):
        """Trusted host-side CSR execution, vector or multi-RHS."""
        kernel = get_kernel("csr_vector")
        fmt = CSRMatrix.from_scipy(csr)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            return kernel.run(fmt, x, self.device)
        # Column-by-column reference; stats chain with ``sequential`` so
        # the timing model sees k full passes (no SpMM amortization --
        # this is the degraded path, honesty beats optimism).
        from ..kernels.base import KernelResult

        columns = []
        stats = None
        for j in range(x.shape[1]):
            res = kernel.run(fmt, x[:, j], self.device)
            columns.append(res.y)
            stats = res.stats if stats is None else stats.sequential(res.stats)
        return KernelResult(y=np.stack(columns, axis=1), stats=stats)

    def _raise_strict(self, record: AttemptRecord, plan: FaultPlan | None):
        """Strict policy: surface the first failure as a typed error."""
        if record.injected:
            event = record.injected[0]
            detail = dict(event.detail)
            raise FaultInjectedError(
                f"injected fault at {event.site} detected in stage "
                f"{record.stage!r}: {record.error}",
                site=event.site,
                seed=plan.seed if plan is not None else None,
                workgroup=detail.get("workgroup"),
            )
        if record.validation is not None and not record.validation.ok:
            record.validation.raise_if_failed()
        raise ValidationError(
            f"stage {record.stage!r} failed: {record.error_type}: {record.error}"
        )

    @staticmethod
    def _coerce_rhs(X) -> np.ndarray:
        """Normalize a multi-RHS operand to a 2-D ``(ncols, k)`` array.

        Accepts either the 2-D column block directly or a *sequence of
        1-D vectors* (the serving layer's batch shape).  A conforming
        sequence -- every member 1-D, same length, numeric -- is column-
        stacked so the whole batch rides one ``run_multi`` dispatch;
        each stacked column is a bit-exact copy of its source vector,
        so batching never perturbs the numerics.
        """
        if isinstance(X, (list, tuple)):
            if not X:
                raise ValidationError("multiply_many needs at least one vector")
            vecs = [np.asarray(v, dtype=np.float64) for v in X]
            bad = [v.shape for v in vecs if v.ndim != 1]
            if bad:
                raise ValidationError(
                    f"a vector sequence must contain 1-D vectors only, "
                    f"got shapes {bad[:3]}"
                )
            lengths = {v.shape[0] for v in vecs}
            if len(lengths) != 1:
                raise ValidationError(
                    f"all vectors in a batch must share a length, "
                    f"got {sorted(lengths)}"
                )
            return np.column_stack(vecs)
        return np.asarray(X)

    def multiply_many(
        self,
        prepared: PreparedMatrix | object,
        X: np.ndarray,
    ) -> SpMVResult:
        """SpMM extension: ``Y = A @ X`` for ``X`` of shape ``(ncols, k)``.

        The matrix stream is read once for all ``k`` right-hand sides,
        so the simulated time grows far slower than ``k`` sequential
        multiplies -- the block-Krylov use case.  ``result.nnz`` counts
        ``nnz * k`` so ``gflops`` stays the throughput of useful work.

        ``X`` may also be a *sequence of 1-D vectors* sharing a length
        (the serving layer's request-batch shape): the batch is column-
        stacked and executed as **one** ``run_multi`` SpMM dispatch, and
        every output column is bit-identical to a sequential
        :meth:`multiply` of the corresponding vector.

        Accepts a raw matrix as a one-shot overload (like
        :meth:`multiply`) and runs under the same resilience/validation
        policy: with a fault plan or validation enabled, SpMM goes
        through the identical fallback chain and produces the same
        :class:`FailureReport` trail.
        """
        if not isinstance(prepared, PreparedMatrix):
            prepared = self.prepare(prepared)
        X = self._coerce_rhs(X)
        obs = self.observer
        if obs.enabled:
            with obs_scope(obs), obs.span(
                "engine.multiply_many",
                nnz=prepared.nnz,
                n_rhs=X.shape[1] if X.ndim == 2 else 1,
                resilient=self._resilient,
                backend=self._backend.name,
            ) as sp:
                out = self._multiply_block(prepared, X)
                self._observe_result(sp, out)
                return out
        if active_observer() is obs:  # already ambient: nothing to install
            return self._multiply_block(prepared, X)
        with obs_scope(obs):
            return self._multiply_block(prepared, X)

    def _multiply_block(self, prepared: PreparedMatrix, X: np.ndarray) -> SpMVResult:
        if self._resilient:
            return self._multiply_resilient(prepared, X)
        result = self._backend.execute_multi(
            prepared.fmt, X, self.device, prepared.config
        )
        return self._result(result, prepared.nnz * int(X.shape[1]))

    def update_values(
        self, prepared: PreparedMatrix, new_values
    ) -> PreparedMatrix:
        """Incremental re-prepare: swap value buffers, keep the plan.

        Returns a new :class:`PreparedMatrix` built by
        :meth:`PreparedMatrix.with_values` (structural arrays, tuned
        point and tuning record shared by identity), then asks the
        engine's backend to migrate any derived execution plans (the
        fast backend re-pads the value payload under the existing
        gather/segment plan instead of re-deriving it).  The refreshed
        CSR carries a new value digest, so the serving layer's
        value-aware cache/batch key changes with it.
        """
        if not isinstance(prepared, PreparedMatrix):
            raise ValidationError(
                f"update_values needs a PreparedMatrix from prepare(), "
                f"got {type(prepared).__name__}"
            )
        obs = self.observer
        with obs_scope(obs), obs.span(
            "engine.update_values", nnz=prepared.nnz
        ) as sp:
            refreshed = prepared.with_values(new_values)
            migrated = self._backend.refresh_values(prepared.fmt, refreshed.fmt)
            obs.counter(
                "engine.value_refreshes", "update_values() calls"
            ).inc()
            obs.counter(
                "engine.value_refresh.plan_hits",
                "backend plans migrated instead of re-derived",
            ).inc(migrated)
            sp.set(plan_hits=migrated)
            return refreshed

    def max_batch_width(self, prepared: PreparedMatrix) -> int:
        """Widest multi-RHS block :meth:`multiply_many` runs as one SpMM.

        Asks the kernel whose launch runs the prepared format (the one
        every :meth:`multiply_many` dispatch uses, on either backend) so
        the bound always matches real execution on this engine's device.
        """
        if not isinstance(prepared, PreparedMatrix):
            raise ValidationError(
                f"max_batch_width needs a PreparedMatrix from prepare(), "
                f"got {type(prepared).__name__}"
            )
        fmt = prepared.fmt
        return kernel_for(fmt).max_batch_width(fmt, self.device, prepared.config)

    def _result(self, result, nnz: int) -> SpMVResult:
        """The :class:`SpMVResult` of one tuned launch's result."""
        return SpMVResult(result.y, result.stats, self._clock(result), nnz)

    def _clock(self, result) -> TimingBreakdown:
        """The simulated clock of one launch: the one its result carries
        (a ``fast`` bound launch's breakdown), else estimated here."""
        if result.breakdown is not None:
            return result.breakdown
        return self._timing.estimate(result.stats)

    def _observe_result(self, sp, result: SpMVResult) -> None:
        """Feed one multiply's profile to the observer (span + metrics)."""
        obs = self.observer
        br = result.breakdown
        sp.set(
            sim_time_s=br.t_total,
            sim_gflops=result.gflops,
            bound=br.bound,
            sim_t_mem=br.t_mem,
            sim_t_compute=br.t_compute,
            sim_t_sync=br.t_sync,
            imbalance=br.imbalance_factor,
            degraded=result.degraded,
        )
        obs.counter(
            "engine.multiplies", "multiply()/multiply_many() calls"
        ).inc(backend=self._backend.name)
        obs.histogram(
            "engine.sim_time_s", "simulated execution time per multiply"
        ).observe(br.t_total)


def yaspmv(matrix, x, device: str | DeviceSpec = "gtx680") -> np.ndarray:
    """One-shot convenience: auto-tuned SpMV, returns ``y = A @ x``."""
    return SpMVEngine(device=device).multiply(matrix, x).y
