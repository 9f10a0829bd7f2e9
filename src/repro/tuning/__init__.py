"""Auto-tuning framework (paper section 4)."""

from .cache import CompiledPlan, FormatCache, KernelPlanCache
from .checkpoint import TuningCheckpoint
from .evaluate import CandidateOutcome
from .model import CostModel, MatrixSummary, ModelDrivenTuner
from .persistence import TuningStore, matrix_fingerprint
from .parameters import (
    BASE_FORMATS,
    BIT_WORDS,
    BLOCK_HEIGHTS,
    BLOCK_WIDTHS,
    SLICE_COUNTS,
    WORKGROUP_SIZES,
    TuningPoint,
)
from .space import (
    base_format_points,
    candidate_slice_counts,
    exhaustive_space,
    pruned_space,
)
from .tuner import AutoTuner, Evaluation, TuningResult

__all__ = [
    "CostModel",
    "MatrixSummary",
    "ModelDrivenTuner",
    "CompiledPlan",
    "FormatCache",
    "KernelPlanCache",
    "BASE_FORMATS",
    "BIT_WORDS",
    "BLOCK_HEIGHTS",
    "BLOCK_WIDTHS",
    "SLICE_COUNTS",
    "WORKGROUP_SIZES",
    "TuningPoint",
    "base_format_points",
    "candidate_slice_counts",
    "exhaustive_space",
    "pruned_space",
    "AutoTuner",
    "CandidateOutcome",
    "Evaluation",
    "TuningCheckpoint",
    "TuningResult",
    "TuningStore",
    "matrix_fingerprint",
]
