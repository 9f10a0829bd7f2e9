"""The metric catalogue in ``docs/observability.md`` matches the code.

Scans ``src/repro/serve``, ``src/repro/tuning`` and ``src/repro/core``
for the first argument of every ``counter(``, ``gauge(``,
``histogram(`` and supervisor/shard ``_count(`` call -- multi-line
calls included -- and requires each name to appear in the doc in
backticks, alone (`` `name` ``) or with its labels (`` `name{...}` ``).

The other direction covers the whole of ``src/repro``: every name a
metric-table row documents -- a row whose first column is backticked
names and whose kind is ``counter``, ``gauge`` or ``histogram`` -- must
be emitted by one of those calls, so a removed metric cannot outlive
its code in the doc.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CALL = re.compile(r'\b(?:counter|gauge|histogram|_count)\(\s*(f?)"([^"]*)"')
#: A metric-table row: backticked names first, then the metric kind.
ROW = re.compile(r"^\|\s*(`[^|]*`)\s*\|\s*(?:counter|gauge|histogram)\s*\|", re.M)


def _names_in(paths) -> set[str]:
    names = set()
    for path in paths:
        for match in CALL.finditer(path.read_text()):
            prefix, name = match.groups()
            assert not prefix, (
                f"{path.name}: metric name {name!r} is built at run time"
            )
            names.add(name)
    return names


def emitted_names(*packages: str) -> set[str]:
    return _names_in(
        path
        for package in packages
        for path in sorted((ROOT / "src" / "repro" / package).glob("*.py"))
    )


def documented_names() -> set[str]:
    """Every name a metric-table row of the doc lists, labels stripped."""
    doc = (ROOT / "docs" / "observability.md").read_text()
    return {
        name.split("{")[0]
        for cell in ROW.findall(doc)
        for name in re.findall(r"`([^`]+)`", cell)
    }


def undocumented(names: set[str]) -> list[str]:
    doc = (ROOT / "docs" / "observability.md").read_text()
    return sorted(
        name for name in names if f"`{name}`" not in doc and f"`{name}{{" not in doc
    )


def test_scan_is_not_vacuous():
    names = emitted_names("serve")
    assert {"serve.requests", "serve.cache.hits", "fabric.failovers",
            "worker.deaths", "supervisor.restarts"} <= names
    assert len(names) >= 40
    assert {"tuner.evaluations", "tuner.layouts", "engine.prepares",
            "prepare.stage_seconds", "fallback.stage_used"} <= emitted_names(
        "tuning", "core"
    )


def test_every_serve_metric_is_documented():
    missing = undocumented(emitted_names("serve"))
    assert not missing, f"undocumented serve metrics: {missing}"


def test_every_tuning_and_core_metric_is_documented():
    missing = undocumented(emitted_names("tuning", "core"))
    assert not missing, f"undocumented tuning/core metrics: {missing}"


def test_every_documented_metric_is_emitted():
    documented = documented_names()
    assert {"serve.requests", "fabric.failovers", "tuner.layouts",
            "kernel.launches", "breaker.state"} <= documented
    emitted = _names_in(sorted((ROOT / "src" / "repro").rglob("*.py")))
    stale = sorted(documented - emitted)
    assert not stale, f"documented metrics no code emits: {stale}"
