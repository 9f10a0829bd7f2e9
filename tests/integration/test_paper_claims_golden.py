"""Golden-file pin of the reproduced paper claims: Fig. 13/15, Table 3
and the segmented-scan accounting.

The figure benchmarks under ``benchmarks/`` rewrite their text tables
at a 300k-nnz cap in minutes, and nothing reads those tables back.
This file pins, at a 30k-nnz cap, what the same benchmarks compute with
their own calls:

* Fig. 13 (GTX680) and Fig. 15 (GTX480): ``run_suite_comparison``,
  which tunes with the section 4 pruned search; per matrix, each
  system's variant and simulated GFLOPS and the winner; per system, the
  harmonic mean;
* Table 3: ``footprint_report`` on the 20 suite matrices; each byte
  column, the best single format and the BCCOO block;
* the accounting of ``bench_scan_strategies.py`` at n=8192: combine
  ops, barrier stages and idle lanes of each scan strategy.

Simulated time is deterministic, so strings and integers must match
exactly and floats to ``rel=1e-12``.  A failure lists every moved cell,
not just the first.  To regenerate after an *intentional* change, run
this file as a script:
``PYTHONPATH=src python tests/integration/test_paper_claims_golden.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.bench import SYSTEMS, harmonic_mean, run_suite_comparison
from repro.formats import footprint_report
from repro.gpu import GTX480, GTX680
from repro.matrices import SUITE
from repro.scan import (
    blelloch_segmented_scan,
    matrix_segmented_scan,
    tree_segmented_scan,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "paper_claims.json"
CAP_NNZ = 30_000
DEVICES = (GTX680, GTX480)
SCAN_N = 8192
SCAN_THREADS = 256
SCAN_STRATEGIES = ("hillis-steele", "blelloch", "matrix-based")


def figure_entry(device) -> dict:
    """One device's Fig. 13/15 table, as ``render_comparison`` reads it."""
    rows = run_suite_comparison(device, cap_nnz=CAP_NNZ)
    matrices = {}
    for row in rows:
        gflops = {s: row.scores[s].gflops for s in SYSTEMS}
        matrices[row.name] = {
            "nnz": row.nnz,
            "systems": {
                s: {"variant": row.scores[s].variant, "gflops": gflops[s]}
                for s in SYSTEMS
            },
            "winner": max(gflops, key=gflops.__getitem__),
        }
    hmean = {s: harmonic_mean(r.scores[s].gflops for r in rows) for s in SYSTEMS}
    return {"matrices": matrices, "hmean": hmean}


def table3_entry() -> dict:
    """Table 3's rows, loaded the way ``bench_table3_footprint.py`` loads them."""
    out = {}
    for spec in SUITE:
        A = spec.load(scale=spec.scale_for_nnz(CAP_NNZ))
        rep = footprint_report(A, name=spec.name)
        out[spec.name] = {
            "nnz": int(A.nnz),
            "coo": rep.coo,
            "ell": rep.ell,
            "best_single": rep.best_single,
            "best_single_format": rep.best_single_format,
            "cocktail": rep.cocktail,
            "bccoo": rep.bccoo,
            "bccoo_block": list(rep.bccoo_block),
        }
    return out


def scan_entry() -> dict:
    """The ``bench_scan_strategies.py`` accounting on its own workload."""
    rng = np.random.default_rng(42)
    values = rng.standard_normal(SCAN_N)
    starts = rng.random(SCAN_N) < 0.05
    starts[0] = True
    _, hs = tree_segmented_scan(values, starts)
    _, bl = blelloch_segmented_scan(values, starts)
    _, mx = matrix_segmented_scan(values, starts, SCAN_THREADS)
    par = mx.parallel_scan
    return {
        "hillis-steele": {
            "ops": hs.element_ops, "stages": hs.steps, "idle": hs.idle_fraction
        },
        "blelloch": {
            "ops": bl.element_ops, "stages": bl.steps, "idle": bl.idle_fraction
        },
        "matrix-based": {
            "ops": mx.sequential_ops + (par.element_ops if par else 0),
            "stages": par.steps if par else 0,
            "idle": (par.idle_fraction if par else 0.0) * (SCAN_THREADS / SCAN_N),
        },
    }


def compute_claims() -> dict:
    return {
        "figures": {dev.name: figure_entry(dev) for dev in DEVICES},
        "table3": table3_entry(),
        "scan": scan_entry(),
    }


def moved_cells(want, got, path: tuple[str, ...] = ()) -> list[str]:
    """Every leaf where ``got`` differs from ``want``, one line each."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(want.keys() | got.keys()):
            where = " > ".join(path + (key,))
            if key not in got:
                out.append(f"{where}: golden {want[key]!r}, now missing")
            elif key not in want:
                out.append(f"{where}: not in golden, now {got[key]!r}")
            else:
                out += moved_cells(want[key], got[key], path + (key,))
        return out
    if isinstance(want, float) and isinstance(got, float):
        same = math.isclose(want, got, rel_tol=1e-12)
    else:
        same = want == got
    return [] if same else [f"{' > '.join(path)}: golden {want!r}, now {got!r}"]


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as f:
        return json.load(f)


def test_golden_covers_the_claims(golden):
    names = sorted(spec.name for spec in SUITE)
    assert sorted(golden["figures"]) == sorted(dev.name for dev in DEVICES)
    for figure in golden["figures"].values():
        assert sorted(figure["matrices"]) == names
        for row in figure["matrices"].values():
            assert sorted(row["systems"]) == sorted(SYSTEMS)
        assert sorted(figure["hmean"]) == sorted(SYSTEMS)
    assert sorted(golden["table3"]) == names
    assert sorted(golden["scan"]) == sorted(SCAN_STRATEGIES)


def test_paper_claims_match_golden(golden):
    moved = moved_cells(golden, compute_claims())
    assert not moved, (
        f"{len(moved)} cell(s) of the reproduced paper claims moved:\n  "
        + "\n  ".join(moved)
        + f"\nif the change is intentional, regenerate with "
        f"`PYTHONPATH=src python tests/integration/{Path(__file__).name}` "
        f"from the repo root"
    )


if __name__ == "__main__":  # golden regeneration entry point
    data = compute_claims()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with GOLDEN_PATH.open("w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")
