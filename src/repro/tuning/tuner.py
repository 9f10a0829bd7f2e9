"""The auto-tuner: evaluate candidate configurations, keep the best.

Mirrors the paper's framework (section 4): enumerate a (pruned or
exhaustive) space of :class:`TuningPoint` candidates, "compile" each
kernel through the plan cache, profile its launch on the simulated
device, and rank by estimated execution time.  The ranking reads only
the cost profile, so candidates run profile-only launches -- every
check and the launch plan, no sums -- unless a fault plan is active, in
which case each runs the full ``faithful`` launch.  Only the winner is
then executed, on ``faithful`` against a seeded random vector, and
checked against the CSR reference (:func:`_check_winner`); a winner
that fails is quarantined and the runner-up is checked next.  The tuner
reports wall-clock spent, simulated compile time, cache statistics and
the full evaluation history so the benchmark can reproduce the section
4 numbers (pruned-vs-optimal quality gap, tuning cost).

The search is one in-process walk over the enumerated candidates
(:func:`~repro.tuning.evaluate.evaluate_candidates`), which a
:class:`TuningCheckpoint` can journal and resume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..backends import get_backend
from ..errors import DeadlineExceeded, ReproError, TuningError
from ..fault.injection import fault_scope
from ..fault.retry import Deadline
from ..fault.validation import verify_output
from ..gpu.device import DeviceSpec
from ..obs import NULL_OBSERVER, obs_scope
from ..obs.stages import StageClock, active_stages, stage, stage_scope
from ..util import as_csr
from .cache import KernelPlanCache, build_format
from .checkpoint import TuningCheckpoint
from .evaluate import CandidateOutcome, Evaluation, evaluate_candidates
from .parameters import TuningPoint
from .persistence import matrix_fingerprint
from .space import exhaustive_space, pruned_space

__all__ = ["Evaluation", "TuningResult", "AutoTuner"]


@dataclass
class TuningResult:
    """Outcome of one tuning run (or of a persistent-store hit).

    A search produces ``best``/``history`` and per-run cache deltas; a
    warm start served from a :class:`~repro.tuning.TuningStore` carries
    only the winning ``point`` (``evaluated == 0``, ``store_hit`` set)
    -- ``best_point`` works for both.
    """

    best: Evaluation | None = None
    evaluated: int = 0
    skipped: int = 0
    wall_seconds: float = 0.0
    simulated_compile_s: float = 0.0
    #: Cumulative counters of the (possibly shared) plan cache after the
    #: run -- kept for cross-matrix reuse accounting.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Plan-cache hits/misses incurred *by this run alone* (deltas, so
    #: they stay meaningful when one cache is shared across matrices).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Persistent-store bookkeeping: was a store consulted, did it serve
    #: the point, and how many stale entries were invalidated.
    store_checked: bool = False
    store_hit: bool = False
    store_invalidations: int = 0
    #: Winning point for store-served results (no :class:`Evaluation`).
    point: TuningPoint | None = None
    history: list[Evaluation] = field(default_factory=list)
    #: Per-reason quarantine counters: error class name -> candidates
    #: skipped for that reason (the skip-reason taxonomy; ``skipped``
    #: stays the total).
    skip_reasons: dict[str, int] = field(default_factory=dict)
    #: The deadline expired before the full space was walked: ``best``
    #: is the best-so-far over the completed prefix, and a later
    #: checkpoint resume completes the search.
    partial: bool = False
    #: Candidates restored from a :class:`TuningCheckpoint` instead of
    #: re-evaluated (0 for fresh runs).
    resumed: int = 0
    #: The winner's format as the winner check built and executed it,
    #: for the caller to adopt instead of converting again
    #: (``SpMVEngine.prepare`` takes it and leaves ``None``).  Not part
    #: of :meth:`to_dict`, the tuning store or the checkpoint.
    checked_format: object | None = field(default=None, repr=False, compare=False)

    @property
    def best_point(self) -> TuningPoint:
        if self.best is not None:
            return self.best.point
        if self.point is not None:
            return self.point
        raise TuningError("TuningResult holds neither an evaluation nor a point")

    @classmethod
    def from_store(
        cls, point: TuningPoint, *, wall_seconds: float = 0.0, invalidations: int = 0
    ) -> "TuningResult":
        """A warm-start result: the store served ``point``, zero kernel
        evaluations were performed."""
        return cls(
            point=point,
            wall_seconds=wall_seconds,
            store_checked=True,
            store_hit=True,
            store_invalidations=invalidations,
        )

    def top(self, k: int = 5) -> list[Evaluation]:
        """The k fastest evaluations, best first."""
        return sorted(self.history, key=lambda e: e.time_s)[:k]

    # -- the shared result protocol (see SpMVResult for the other half)

    def to_dict(self) -> dict:
        """JSON-able snapshot -- the exporters' and CLI's interchange
        form, so callers stop reaching into dataclass internals."""
        bp = self.best_point
        out = {
            "kind": "tuning_result",
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "wall_seconds": self.wall_seconds,
            "simulated_compile_s": self.simulated_compile_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "store_checked": self.store_checked,
            "store_hit": self.store_hit,
            "store_invalidations": self.store_invalidations,
            "skip_reasons": dict(self.skip_reasons),
            "partial": self.partial,
            "resumed": self.resumed,
            "best_point": {
                "format": bp.format_name,
                "block_height": bp.block_height,
                "block_width": bp.block_width,
                "bit_word": bp.bit_word,
                "slice_count": bp.slice_count,
                "col_compress": bp.col_compress,
                "strategy": bp.kernel.strategy,
                "workgroup_size": bp.kernel.workgroup_size,
                "tile": bp.kernel.effective_tile,
            },
        }
        if self.best is not None:
            out["best"] = {
                "time_s": self.best.time_s,
                "gflops": self.best.gflops,
            }
        return out

    def describe_point(self) -> str:
        """One-line description of the winning configuration."""
        bp = self.best_point
        return (
            f"{bp.format_name} {bp.block_height}x{bp.block_width} "
            f"word={bp.bit_word} slices={bp.slice_count} "
            f"strategy={bp.kernel.strategy} wg={bp.kernel.workgroup_size} "
            f"tile={bp.kernel.effective_tile}"
        )

    def summary(self) -> str:
        """Human-readable account of the run (or the warm start)."""
        if self.store_hit and self.evaluated == 0:
            return (
                "warm start from tuning store (0 configurations evaluated)\n"
                f"best: {self.describe_point()}"
            )
        resumed = f", {self.resumed} resumed" if self.resumed else ""
        lines = [
            f"evaluated {self.evaluated} configurations in "
            f"{self.wall_seconds:.1f}s ({self.skipped} skipped{resumed})",
            f"best: {self.describe_point()}",
        ]
        if self.partial:
            lines.append(
                "PARTIAL: deadline expired mid-search; best is best-so-far "
                "(resume from the checkpoint to finish)"
            )
        if self.best is not None:
            lines.append(
                f"estimated: {self.best.gflops:.2f} GFLOPS "
                f"({self.best.time_s * 1e6:.1f} us)"
            )
        return "\n".join(lines)


class AutoTuner:
    """Searches the Table 1 space for one matrix on one device.

    Candidates are ranked on the simulated time of profile-only
    launches (full ``faithful`` launches under an active fault plan);
    the winner alone is executed and checked against the CSR reference
    before :meth:`tune` returns it.

    Parameters
    ----------
    device:
        Target :class:`DeviceSpec`.
    mode:
        ``"pruned"`` (the section 4 accelerated search, default) or
        ``"exhaustive"``.
    plan_cache:
        Share one :class:`KernelPlanCache` across matrices to reproduce
        the paper's cross-matrix kernel reuse.
    keep_history:
        Retain every evaluation (needed by the tuning benchmarks;
        disable to save memory on huge spaces).
    observer:
        Optional :class:`repro.obs.Observer`: the search runs under a
        ``tuner.tune`` span with one ``tuner.candidate`` child per
        enumerated configuration (matching ``TuningResult.history``)
        plus evaluation/prune/plan-cache counters.
    deadline:
        Wall-clock budget for each :meth:`tune` call -- seconds, a
        :class:`~repro.fault.Deadline`, or ``None`` (unlimited).  A
        number starts ticking when :meth:`tune` starts, not at
        construction.  Expiry stops the search cooperatively: the
        result carries the completed prefix with ``partial=True``.
    checkpoint:
        Crash-safe journal -- a :class:`TuningCheckpoint`, a path, or
        ``None``.  Completed candidates are journaled as they finish
        and skipped on the next :meth:`tune` against the same (matrix,
        device, mode, space); the resumed result is bit-identical to an
        uninterrupted run.
    """

    def __init__(
        self,
        device: DeviceSpec,
        mode: str = "pruned",
        plan_cache: KernelPlanCache | None = None,
        keep_history: bool = True,
        exhaustive_kwargs: dict | None = None,
        observer=None,
        deadline: "Deadline | float | None" = None,
        checkpoint: "TuningCheckpoint | str | None" = None,
    ):
        if mode not in ("pruned", "exhaustive"):
            raise TuningError(f"mode must be 'pruned' or 'exhaustive', got {mode!r}")
        self.device = device
        self.mode = mode
        self.plan_cache = plan_cache if plan_cache is not None else KernelPlanCache()
        self.keep_history = keep_history
        self.exhaustive_kwargs = exhaustive_kwargs or {}
        self.observer = observer if observer is not None else NULL_OBSERVER
        #: Raw deadline spec; coerced per :meth:`tune` call so a numeric
        #: budget restarts for every search.
        self.deadline = deadline
        self.checkpoint = TuningCheckpoint.coerce(checkpoint)

    def tune(self, matrix) -> TuningResult:
        """Search; returns the ranked result."""
        obs = self.observer
        # An observed tune counts the block layouts its walk extracts,
        # the profile-only launches it runs and the launch geometries
        # those compute on the active stage clock (an observed
        # prepare's), or its own.
        own_clock = (
            StageClock() if obs.enabled and active_stages() is None else None
        )
        with obs_scope(obs), stage_scope(own_clock) as clock, obs.span(
            "tuner.tune",
            mode=self.mode,
            device=self.device.name,
        ) as tune_span:
            counts0 = dict(clock.counts) if clock is not None else {}
            csr = as_csr(matrix)

            with obs.span(
                "tuner.enumerate", mode=self.mode
            ) as enum_span, stage("enumerate"):
                if self.mode == "pruned":
                    space = pruned_space(csr, self.device)
                else:
                    space = exhaustive_space(
                        csr, self.device, **self.exhaustive_kwargs
                    )
                items = list(enumerate(space))
                enum_span.set(candidates=len(items))

            t0 = time.perf_counter()
            deadline = Deadline.coerce(self.deadline)
            checkpoint = self.checkpoint
            restored: dict[int, CandidateOutcome] = {}
            on_outcome = None
            if checkpoint is not None:
                restored = checkpoint.begin(
                    fingerprint=matrix_fingerprint(csr),
                    device=self.device.name,
                    mode=self.mode,
                    n_candidates=len(items),
                )
                on_outcome = checkpoint.append
            todo = [it for it in items if it[0] not in restored]
            try:
                new = evaluate_candidates(
                    todo,
                    csr,
                    self.device,
                    deadline=deadline,
                    on_outcome=on_outcome,
                )
            finally:
                if checkpoint is not None:
                    checkpoint.close()

            outcomes = sorted([*restored.values(), *new], key=lambda o: o.index)
            # The fold ranks and replays the kernel-plan lookups; the
            # winner check inside it is charged to ``verify``.
            with stage("plan_build"):
                result = _fold(
                    outcomes,
                    self.plan_cache,
                    t0,
                    csr,
                    self.device,
                    observer=obs,
                    keep_history=self.keep_history,
                    partial=len(outcomes) < len(items),
                    resumed=len(restored),
                )
            tune_span.set(
                evaluated=result.evaluated,
                skipped=result.skipped,
                best_time_s=result.best.time_s,
                best_gflops=result.best.gflops,
                partial=result.partial,
                resumed=result.resumed,
            )
            obs.counter("tuner.evaluations", "candidates evaluated").inc(
                result.evaluated
            )
            obs.counter("tuner.prunes", "candidates quarantined/skipped").inc(
                result.skipped
            )
            obs.counter("tuner.plan_cache.hits", "kernel-plan cache hits").inc(
                result.cache_hits
            )
            obs.counter("tuner.plan_cache.misses", "kernel-plan cache misses").inc(
                result.cache_misses
            )
            if checkpoint is not None:
                obs.counter(
                    "tuner.resumed_candidates",
                    "candidates restored from a checkpoint instead of re-run",
                ).inc(result.resumed)
            if result.partial:
                obs.counter(
                    "tuner.deadline_expiries",
                    "tuning runs stopped early by their deadline",
                ).inc()
            if clock is not None:
                walked = {
                    name: clock.counts.get(name, 0) - counts0.get(name, 0)
                    for name in ("layouts", "profiles", "geometries")
                }
                obs.counter(
                    "tuner.layouts", "block layouts the candidate walk extracted"
                ).inc(walked["layouts"])
                obs.counter(
                    "tuner.profiles", "profile-only launches the candidate walk ran"
                ).inc(walked["profiles"])
                obs.counter(
                    "tuner.geometries",
                    "launch geometries the candidate walk's profiles computed",
                ).inc(walked["geometries"])
            return result


def _verify(point: TuningPoint, csr, device: DeviceSpec):
    """Execute ``point`` in full and check it -> ``(reason, format)``.

    Builds the point's format from ``csr`` and runs the full ``faithful``
    launch against a seeded standard-normal vector (with an all-ones
    vector a wrong column gather could still give every row the right
    sum), then compares every row with ``csr @ x`` at the engine's
    default tolerances.  Runs with no fault plan, so the check consumes
    no fault draws, and under a muted observer.  A pass returns
    ``(None, format)``; a failure returns the error class name -- the
    skip reason the tuner quarantines it under -- and ``None``.
    """
    x = np.random.default_rng(0).standard_normal(csr.shape[1])
    try:
        with fault_scope(None), obs_scope(NULL_OBSERVER):
            fmt = build_format(csr, point)
            y = get_backend("faithful").execute(fmt, x, device, config=point.kernel).y
        verify_output(csr, x, y, n_samples=None).raise_if_failed()
    except ReproError as exc:
        return type(exc).__name__, None
    return None, fmt


def _check_winner(outcomes, csr, device, observer):
    """Check the best candidates in rank order until one passes.

    The rank is (simulated time, enumeration index), the order the
    fold's "first strictly faster wins" walk picks by.  Returns the skip
    reason of each rejected candidate, by enumeration index, and the
    format of the one that passed (``None`` when none did).
    """
    ranked = sorted(
        (o for o in outcomes if o.evaluation is not None),
        key=lambda o: (o.evaluation.time_s, o.index),
    )
    rejected: dict[int, str] = {}
    fmt = None
    for outcome in ranked:
        with observer.span(
            "tuner.verify",
            index=outcome.index,
            point=str(outcome.point.format_key()),
        ) as vsp, stage("verify"):
            reason, fmt = _verify(outcome.point, csr, device)
            vsp.set(ok=reason is None, reason=reason)
        if reason is None:
            break
        rejected[outcome.index] = reason
    observer.counter(
        "tuner.verify_failures", "tuned winners rejected by the winner check"
    ).inc(len(rejected))
    return rejected, fmt


def _candidate_span(observer, outcome: CandidateOutcome, **attrs) -> None:
    """Record ``outcome``'s ``tuner.candidate`` span, carrying ``attrs``."""
    with observer.span(
        "tuner.candidate",
        index=outcome.index,
        point=str(outcome.point.format_key()),
        wall_s=outcome.wall_s,
    ) as span:
        span.set(**attrs)


def _fold(
    outcomes: list[CandidateOutcome],
    plan_cache: KernelPlanCache,
    t0: float,
    csr,
    device: DeviceSpec,
    observer=NULL_OBSERVER,
    keep_history: bool = True,
    partial: bool = False,
    resumed: int = 0,
) -> TuningResult:
    """Fold index-ordered outcomes into a :class:`TuningResult`.

    Every tuner ends here.  First the winner is executed and checked
    (:func:`_check_winner`); a candidate that fails the check is
    quarantined under its reason like one that raised, and the next in
    rank is checked.  Walking the outcomes in enumeration order then
    fixes the tie-breaking (the first strictly faster candidate wins)
    and the skip-reason insertion order, whichever candidates were
    restored from a checkpoint.
    The plan lookups are replayed here, in the same order (a candidate
    whose format failed to build never reaches its plan), so the shared
    cache ends in one state -- entries, hits and misses -- for every
    checkpoint resume and tuner.  An enabled ``observer`` records one
    ``tuner.candidate`` span per outcome, carrying the measured
    per-candidate wall clock as ``wall_s``; a disabled one costs the
    walk no span.
    """
    rejected, checked_format = _check_winner(outcomes, csr, device, observer)
    hits0, misses0 = plan_cache.hits, plan_cache.misses
    best: Evaluation | None = None
    history: list[Evaluation] = []
    evaluated = 0
    skipped = 0
    skip_reasons: dict[str, int] = {}

    traced = observer.enabled
    for outcome in outcomes:
        if not outcome.format_skipped:
            plan_cache.get(outcome.point)  # compile (or reuse) the plan
        if outcome.evaluation is None or outcome.index in rejected:
            skipped += 1
            reason = rejected.get(outcome.index) or outcome.skip_reason or "ReproError"
            skip_reasons[reason] = skip_reasons.get(reason, 0) + 1
            if traced:
                _candidate_span(observer, outcome, skipped=True, skip_reason=reason)
            continue
        ev: Evaluation = outcome.evaluation
        evaluated += 1
        if keep_history:
            history.append(ev)
        if best is None or ev.time_s < best.time_s:
            best = ev
        if traced:
            _candidate_span(
                observer, outcome, sim_time_s=ev.time_s, sim_gflops=ev.gflops
            )

    if best is None:
        if rejected:
            raise TuningError(
                f"no tuning candidate passed the winner check "
                f"({len(rejected)} rejected)"
            )
        if partial:
            raise DeadlineExceeded(
                "the tuning deadline expired before any candidate "
                "finished -- nothing to return, not even a partial best",
                label="tuner.tune",
            )
        raise TuningError("no tuning candidate was evaluable for this matrix")

    return TuningResult(
        best=best,
        evaluated=evaluated,
        skipped=skipped,
        wall_seconds=time.perf_counter() - t0,
        simulated_compile_s=plan_cache.simulated_compile_time_s,
        plan_cache_hits=plan_cache.hits,
        plan_cache_misses=plan_cache.misses,
        cache_hits=plan_cache.hits - hits0,
        cache_misses=plan_cache.misses - misses0,
        history=history,
        skip_reasons=skip_reasons,
        partial=partial,
        resumed=resumed,
        checked_format=checked_format,
    )
