"""Crash-safe tuning checkpoints: journal candidate outcomes, resume later.

The auto-tuner's search is restartable state (clSpMV's cocktail tuner
and SMAT both persist their search the same way): every evaluated
candidate is independent, tagged with its enumeration index, and
deterministic.  This module journals each completed
:class:`~repro.tuning.evaluate.CandidateOutcome` to an append-only
JSON-lines file as it finishes, so a run killed mid-search -- SIGKILL,
deadline expiry -- resumes by *skipping* the journaled candidates and
evaluating only the remainder.  Because the tuner merges
outcomes in enumeration order regardless of where they came from, a
resumed run's final :class:`~repro.tuning.TuningResult` (best point,
history, skip reasons) is bit-identical to an uninterrupted run.

File format (one JSON object per line)::

    {"kind": "header", "schema": 1, "fingerprint": ..., "device": ...,
     "mode": ..., "n_candidates": N}
    {"kind": "outcome", "index": 0, "point": {...}, "wall_s": ...,
     "evaluation": {"time_s": ..., "gflops": ..., "breakdown": {...}}}
    {"kind": "outcome", "index": 3, "point": {...},
     "skip_reason": "DeviceError", "format_skipped": false, ...}

The header pins the journal to one (matrix structure, device, search
mode, candidate count); a mismatched header means the file belongs to a
different run and is started fresh.  Appends are flushed and fsync'd per
outcome, and a torn trailing line (the signature of a crash mid-write)
is skipped on load -- at most one candidate's work is ever lost.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

from ..errors import CheckpointError
from ..gpu.timing import TimingBreakdown
from .evaluate import CandidateOutcome, Evaluation
from .persistence import _decode, _encode

__all__ = ["TuningCheckpoint"]

_SCHEMA = 1


def _encode_outcome(outcome: CandidateOutcome) -> dict:
    blob: dict = {
        "kind": "outcome",
        "index": outcome.index,
        "point": _encode(outcome.point),
        "wall_s": outcome.wall_s,
        "format_skipped": outcome.format_skipped,
        "skip_reason": outcome.skip_reason,
    }
    if outcome.evaluation is not None:
        ev = outcome.evaluation
        blob["evaluation"] = {
            "time_s": ev.time_s,
            "gflops": ev.gflops,
            "breakdown": asdict(ev.breakdown),
        }
    return blob


def _decode_outcome(blob: dict) -> CandidateOutcome | None:
    """Rebuild one journaled outcome; ``None`` when undecodable."""
    point = _decode(blob.get("point") or {})
    if point is None or not isinstance(blob.get("index"), int):
        return None
    evaluation = None
    ev = blob.get("evaluation")
    if ev is not None:
        try:
            evaluation = Evaluation(
                point=point,
                time_s=float(ev["time_s"]),
                gflops=float(ev["gflops"]),
                breakdown=TimingBreakdown(**ev["breakdown"]),
            )
        except (KeyError, TypeError, ValueError):
            return None
    return CandidateOutcome(
        index=blob["index"],
        point=point,
        evaluation=evaluation,
        skip_reason=blob.get("skip_reason"),
        format_skipped=bool(blob.get("format_skipped", False)),
        wall_s=float(blob.get("wall_s", 0.0)),
    )


class TuningCheckpoint:
    """Append-only journal of completed candidate outcomes.

    Parameters
    ----------
    path:
        Journal location (created on :meth:`begin`).
    resume:
        When ``True`` (default), :meth:`begin` loads outcomes journaled
        by a previous *matching* run so the tuner can skip them; when
        ``False`` any existing journal is discarded and the run starts
        fresh.
    """

    def __init__(self, path, resume: bool = True):
        self.path = Path(path).expanduser()
        self.resume = resume
        self._fh = None
        #: Outcomes restored by the last :meth:`begin` (index-keyed).
        self.restored: dict[int, CandidateOutcome] = {}
        #: Journal lines that could not be parsed on the last load
        #: (torn tail from a crash mid-write).
        self.torn_lines = 0

    @classmethod
    def coerce(
        cls, value: "TuningCheckpoint | str | os.PathLike | None"
    ) -> "TuningCheckpoint | None":
        """Pass checkpoints through, wrap paths, keep ``None``."""
        if value is None or isinstance(value, TuningCheckpoint):
            return value
        if isinstance(value, (str, os.PathLike)):
            return cls(value)
        raise CheckpointError(
            f"checkpoint must be a TuningCheckpoint, a path or None, "
            f"got {type(value).__name__}"
        )

    # ------------------------------------------------------------------ #

    def begin(
        self,
        *,
        fingerprint: str,
        device: str,
        mode: str,
        n_candidates: int,
    ) -> dict[int, CandidateOutcome]:
        """Open the journal for one search; return restorable outcomes.

        A matching existing journal (same header) is kept and appended
        to; a mismatched, corrupt, or ``resume=False`` journal is
        replaced by a fresh one.  The returned dict maps enumeration
        index to the journaled :class:`CandidateOutcome` -- the
        candidates the tuner may skip.
        """
        self.close()
        header = {
            "kind": "header",
            "schema": _SCHEMA,
            "fingerprint": fingerprint,
            "device": device,
            "mode": mode,
            "n_candidates": n_candidates,
        }
        completed: dict[int, CandidateOutcome] = {}
        if self.resume and self.path.exists():
            completed = self._load_matching(header)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if completed:
            self._fh = open(self.path, "a", encoding="utf-8")
        else:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._write_line(header)
        self.restored = completed
        return dict(completed)

    def _load_matching(self, header: dict) -> dict[int, CandidateOutcome]:
        """Outcomes from an existing journal whose header matches."""
        self.torn_lines = 0
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return {}
        if not lines:
            return {}
        try:
            found = json.loads(lines[0])
        except json.JSONDecodeError:
            return {}
        if found != header:
            return {}
        completed: dict[int, CandidateOutcome] = {}
        for line in lines[1:]:
            line = line.strip()
            if not line:
                continue
            try:
                blob = json.loads(line)
            except json.JSONDecodeError:
                # Torn write from a crash: drop the line; the candidate
                # is simply re-evaluated.
                self.torn_lines += 1
                continue
            if blob.get("kind") != "outcome":
                continue
            outcome = _decode_outcome(blob)
            if outcome is not None and 0 <= outcome.index < header["n_candidates"]:
                completed[outcome.index] = outcome
        return completed

    # ------------------------------------------------------------------ #

    def _write_line(self, blob: dict) -> None:
        if self._fh is None:
            raise CheckpointError("checkpoint is not open; call begin() first")
        self._fh.write(json.dumps(blob, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, outcome: CandidateOutcome) -> None:
        """Journal one completed outcome (flushed and fsync'd)."""
        self._write_line(_encode_outcome(outcome))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TuningCheckpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
