"""Shared infrastructure for the figure/table benchmarks.

Each benchmark file reproduces one table or figure of the paper.  The
expensive computations (suite comparisons, tuning sweeps) run once in
session-scoped fixtures; rendered tables are registered via
:func:`record_table` and dumped in the terminal summary so a
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` run
captures them.  Artifacts are also written to ``benchmarks/results/``.

Environment knobs:

* ``REPRO_BENCH_CAP``      -- per-matrix nnz cap (default 300000; larger
  is more faithful to the paper's matrix sizes but slower).
* ``REPRO_BENCH_MATRICES`` -- comma-separated subset of Table 2 names.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import run_suite_comparison

_TABLES: list[str] = []
_RESULTS_DIR = Path(__file__).parent / "results"


def bench_cap() -> int:
    return int(os.environ.get("REPRO_BENCH_CAP", "300000"))


def bench_names() -> list[str] | None:
    raw = os.environ.get("REPRO_BENCH_MATRICES", "").strip()
    if not raw:
        return None
    return [n.strip() for n in raw.split(",") if n.strip()]


def record_table(name: str, text: str) -> None:
    """Register a rendered table for the terminal summary + disk."""
    _TABLES.append(text)
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "paper reproduction tables")
    for text in _TABLES:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cap_nnz() -> int:
    return bench_cap()


@pytest.fixture(scope="session")
def suite_comparison(cap_nnz):
    """``rows(device)``: the Fig. 13/15 suite comparison on ``device``,
    run once per device per session and shared by every module."""
    rows: dict[str, list] = {}

    def get(device):
        if device.name not in rows:
            rows[device.name] = run_suite_comparison(
                device, cap_nnz=cap_nnz, names=bench_names()
            )
        return rows[device.name]

    return get
