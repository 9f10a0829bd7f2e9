"""Every metric name the serve, tuning and core layers emit is documented.

Scans ``src/repro/serve``, ``src/repro/tuning`` and ``src/repro/core``
for the first argument of every ``counter(``, ``gauge(``,
``histogram(`` and supervisor/shard ``_count(`` call -- multi-line
calls included -- and requires each name to appear in
``docs/observability.md`` in backticks, alone (`` `name` ``) or with
its labels (`` `name{...}` ``).
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CALL = re.compile(r'\b(?:counter|gauge|histogram|_count)\(\s*(f?)"([^"]*)"')


def emitted_names(*packages: str) -> set[str]:
    names = set()
    for package in packages:
        for path in sorted((ROOT / "src" / "repro" / package).glob("*.py")):
            for match in CALL.finditer(path.read_text()):
                prefix, name = match.groups()
                assert not prefix, (
                    f"{path.name}: metric name {name!r} is built at run time"
                )
                names.add(name)
    return names


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
