"""Candidate evaluation: the auto-tuner's one evaluation path.

Section 4's search is the framework's cost center (the paper reports
12.8 s per matrix, dominated by kernel compilation).  Every tuner in
:mod:`repro.tuning` evaluates candidates through
:func:`evaluate_candidates` and folds the index-tagged outcomes into
one :class:`~repro.tuning.TuningResult` the same way.  An evaluation is
a profile-only launch -- the full ``faithful`` launch under an active
fault plan -- because the rank needs only the simulated time; the fold
then executes and checks the winner alone.

Two design rules make a result independent of which candidates were
evaluated in this call and which were restored from a
:class:`~repro.tuning.TuningCheckpoint`:

1. **Index-tagged outcomes.**  Each candidate carries its position in
   the enumeration order; the fold walks outcomes in that order, so the
   best-point tie-breaking ("first strictly faster wins") and the
   skip-reason quarantine counters come out the same for a fresh and a
   resumed walk, and a model-filtered walk breaks ties as the full
   search does.
2. **Plan-lookup replay.**  Evaluation never touches a
   :class:`~repro.tuning.KernelPlanCache`; the fold replays the plan
   lookups against the tuner's shared cache in enumeration order,
   leaving it in one state (entries, hit and miss counters).

The walk runs one block size at a time: every search space enumerates
all bit words, slice counts and kernel configurations of one
``(base_format, block_height, block_width)`` before the next, and the
:class:`~repro.tuning.FormatCache` keeps only the current block size's
layouts and formats alive.

Candidates whose formats fall in one profile class of the format cache
(bit words that decode to the same launch profile) share one
profile-only launch per kernel configuration.  Each still gets its own
outcome, so the fold, the checkpoint journal and the tie-break see the
same stream as when every candidate launched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..backends import get_backend
from ..backends.base import kernel_for
from ..errors import ReproError
from ..fault.injection import active_plan
from ..fault.retry import Deadline
from ..gpu.device import DeviceSpec
from ..gpu.timing import TimingBreakdown, TimingModel
from ..obs import NULL_OBSERVER, obs_scope
from ..obs.stages import active_stages, stage
from ..util import round_up
from .cache import FormatCache
from .parameters import TuningPoint

__all__ = ["CandidateOutcome", "Evaluation", "evaluate_candidates"]


@dataclass(frozen=True)
class Evaluation:
    """One evaluated candidate."""

    point: TuningPoint
    time_s: float
    gflops: float
    breakdown: TimingBreakdown


@dataclass(frozen=True)
class CandidateOutcome:
    """One evaluated (or quarantined) candidate, tagged with its
    position in the enumeration order."""

    index: int
    point: TuningPoint
    #: ``None`` when the candidate was quarantined.
    evaluation: Evaluation | None
    #: Error class name when quarantined (the skip-reason taxonomy).
    skip_reason: str | None = None
    #: Quarantined before the plan lookup (format conversion failed), so
    #: the fold's plan-cache replay skips it.
    format_skipped: bool = False
    #: Wall-clock seconds this candidate's evaluation took (observability
    #: only -- never consulted by the fold).
    wall_s: float = 0.0


def evaluate_candidates(
    items: list[tuple[int, TuningPoint]],
    matrix,
    device: DeviceSpec,
    deadline: Deadline | None = None,
    on_outcome=None,
) -> tuple[list[CandidateOutcome], dict[int, object]]:
    """Evaluate index-tagged candidates in order: the one evaluation path.

    Returns the outcomes and, by enumeration index, the format of the
    best evaluated candidate -- the least (simulated time, index), the
    one the winner check checks first -- so the check can run on the
    format the walk built instead of converting again (empty when no
    candidate was evaluable).

    Each candidate's format is converted from ``matrix`` -- a canonical
    CSR or its :class:`~repro.formats.blocking.BlockOrders` -- (once per
    format key) and timed by the simulated cost profile of its launch.  The
    ranking reads only that profile, so with no fault plan active the
    launch is profile-only (:meth:`~repro.kernels.SpMVKernel.profile`):
    every check runs and the plan is built per call, but no sums are
    computed.  Candidates with the same profile class
    (:meth:`~repro.tuning.FormatCache.entry`), kernel
    configuration and launch-padded block count share one such launch
    and one timing estimate, or one skip reason.  Under an active fault
    plan each candidate runs its own full ``faithful`` launch against
    an all-ones vector instead, because the plan's kernel and
    synchronization sites fire inside the sums and every launch draws
    from it.  No per-format plan cache is left for the losing candidates
    to fill, and the tuner's fold executes and checks only the winner.

    ``items`` must reach each block size in one run, as every search
    space enumerates them: the format cache drops a block size's layouts
    and formats when the walk moves on, so a block size that came back
    would be extracted again.

    A failing candidate is quarantined and counted by reason instead of
    aborting; genuine bugs (non-:class:`ReproError`) still propagate.
    An expired ``deadline`` stops the walk cooperatively -- completed
    outcomes are returned, the rest are simply absent (the tuner marks
    the result partial).  ``on_outcome`` fires per completed candidate
    (the checkpoint hook).

    Evaluation runs under a muted observer; the tuner records one
    ``tuner.candidate`` span per outcome when it folds them, so a
    resumed walk traces the same as a fresh one.  An active
    :class:`~repro.obs.stages.StageClock` (the engine installs one when
    it is observed) is charged the ``plan_build`` of each launch and
    counts the block ``layouts`` the walk extracted and the
    profile-only launches (``profiles``) it ran; the format cache and
    the kernel charge ``blocking``, ``convert`` and ``cache_model``
    themselves, and the formats' profiles count the launch
    ``geometries`` they compute.
    """
    interpreter = get_backend("faithful")
    full_launch = active_plan() is not None
    timing = TimingModel(device)
    fmt_cache = FormatCache(matrix)
    csr = fmt_cache.matrix
    x = np.ones(csr.shape[1], dtype=np.float64)
    nnz = int(csr.nnz)
    outcomes: list[CandidateOutcome] = []
    profiles = 0
    #: (simulated time, index) and format of the best candidate so far.
    best: tuple | None = None
    best_fmt = None

    def emit(outcome: CandidateOutcome) -> None:
        outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(outcome)

    def launch(fmt, point: TuningPoint):
        """The candidate's timing breakdown, or its skip reason."""
        try:
            with stage("plan_build"):
                if full_launch:
                    stats = interpreter.execute(
                        fmt, x, device, config=point.kernel
                    ).stats
                else:
                    stats = kernel_for(fmt).profile(
                        fmt, device, config=point.kernel
                    )
        except ReproError as exc:
            return type(exc).__name__
        with stage("plan_build"):
            return timing.estimate(stats)

    with obs_scope(NULL_OBSERVER):
        for index, point in items:
            if deadline is not None and deadline.expired():
                break
            t0 = time.perf_counter()
            try:
                fmt, cls = fmt_cache.entry(point)
            except ReproError as exc:
                emit(
                    CandidateOutcome(
                        index=index,
                        point=point,
                        evaluation=None,
                        skip_reason=type(exc).__name__,
                        format_skipped=True,
                        wall_s=time.perf_counter() - t0,
                    )
                )
                continue
            shared = not full_launch and cls is not None
            key = _launch_key(cls, point, fmt) if shared else None
            result = fmt_cache.by_class.get(key)
            if result is None:
                result = launch(fmt, point)
                if not full_launch:
                    profiles += 1
                if key is not None:
                    fmt_cache.by_class[key] = result
            if isinstance(result, str):
                emit(
                    CandidateOutcome(
                        index=index,
                        point=point,
                        evaluation=None,
                        skip_reason=result,
                        wall_s=time.perf_counter() - t0,
                    )
                )
                continue
            if best is None or (result.t_total, index) < best:
                best, best_fmt = (result.t_total, index), fmt
            emit(
                CandidateOutcome(
                    index=index,
                    point=point,
                    evaluation=Evaluation(
                        point=point,
                        time_s=result.t_total,
                        gflops=result.gflops(nnz),
                        breakdown=result,
                    ),
                    wall_s=time.perf_counter() - t0,
                )
            )
    clock = active_stages()
    if clock is not None:
        clock.count("layouts", fmt_cache.layouts)
        clock.count("profiles", profiles)
    return outcomes, ({} if best is None else {best[1]: best_fmt})


def _launch_key(cls: int, point: TuningPoint, fmt) -> tuple:
    """The key under which ``point``'s profile-only launch equals every
    other candidate's: its format's profile class ``cls``, its kernel
    configuration and the block count the launch pads to (a profile-only
    launch pads to whole workgroup tiles, as
    :class:`~repro.kernels.yaspmv.ProfilePlan` does)."""
    bccoo = getattr(fmt, "stacked", fmt)
    cfg = point.kernel
    return cls, cfg, round_up(max(bccoo.nblocks_padded, 1), cfg.workgroup_work)
