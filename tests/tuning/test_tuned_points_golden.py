"""Golden-file pin of the auto-tuner's decisions across the suite.

For each of the 20 Table-2 stand-ins at 3k nnz (seed 0), the pruned
search's best point, its simulated time, and the evaluated / skipped /
skip-reason counts are checked against
``tests/tuning/golden/tuned_points.json``.  The ranking is a function
of the simulated cost model alone, so any change to the search, the
candidate evaluation or the execution path candidates run on must
leave every entry untouched.

Two tuners are held to the same file: ``AutoTuner`` and
``ModelDrivenTuner`` at ``evaluate_fraction=1.0``, which evaluates the
whole pruned space through the same evaluation path and fold.

The golden was recorded with candidates evaluated on the ``fast``
backend; the tuner now evaluates them on the interpreter, and this file
is what shows the move changed no decision.  To regenerate after an
*intentional* change to the cost model or the search space, run this
file as a script:
``PYTHONPATH=src python tests/tuning/test_tuned_points_golden.py``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.gpu import GTX680
from repro.matrices import SUITE, get_spec
from repro.tuning import AutoTuner, ModelDrivenTuner

GOLDEN_PATH = Path(__file__).parent / "golden" / "tuned_points.json"
CAP_NNZ = 3_000
SEED = 0
NAMES = [spec.name for spec in SUITE]

#: The tuners every golden entry must hold for.
TUNERS = {
    "serial": lambda: AutoTuner(GTX680, keep_history=False),
    "model": lambda: ModelDrivenTuner(GTX680, evaluate_fraction=1.0),
}


def compute_entry(name: str, tuner: str = "serial") -> dict:
    spec = get_spec(name)
    A = spec.load(scale=spec.scale_for_nnz(CAP_NNZ), seed=SEED)
    result = TUNERS[tuner]().tune(A)
    return {
        "nnz": int(A.nnz),
        "best_point": asdict(result.best_point),
        "best_time_s": result.best.time_s,
        "evaluated": result.evaluated,
        "skipped": result.skipped,
        "skip_reasons": dict(result.skip_reasons),
    }


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as f:
        return json.load(f)


def test_golden_covers_the_suite(golden):
    assert sorted(golden) == sorted(spec.name for spec in SUITE)


def check_against_golden(name: str, tuner: str, golden: dict) -> None:
    entry = compute_entry(name, tuner)
    want = golden[name]
    hint = (
        f"{tuner} tuner decision for {name!r} diverged from the golden file; "
        f"if the change is intentional, regenerate with "
        f"`PYTHONPATH=src python {Path(__file__).name}` from the repo root"
    )
    assert entry["best_point"] == want["best_point"], hint
    assert entry["best_time_s"] == pytest.approx(want["best_time_s"], rel=1e-12), hint
    for key in ("nnz", "evaluated", "skipped", "skip_reasons"):
        assert entry[key] == want[key], f"{key}: {hint}"


@pytest.mark.parametrize("name", NAMES)
def test_tuned_point_matches_golden(name, golden):
    check_against_golden(name, "serial", golden)


@pytest.mark.parametrize("name", NAMES)
def test_model_driven_full_fraction_matches_golden(name, golden):
    check_against_golden(name, "model", golden)


if __name__ == "__main__":  # golden regeneration entry point
    data = {spec.name: compute_entry(spec.name) for spec in SUITE}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with GOLDEN_PATH.open("w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")
