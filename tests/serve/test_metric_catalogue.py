"""Every metric name the serve layer emits is documented.

Scans ``src/repro/serve`` for the first argument of every ``counter(``,
``gauge(``, ``histogram(`` and supervisor/shard ``_count(`` call --
multi-line calls included -- and requires each name to appear, in
backticks, in ``docs/observability.md``.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CALL = re.compile(r'\b(?:counter|gauge|histogram|_count)\(\s*(f?)"([^"]*)"')


def emitted_names() -> set[str]:
    names = set()
    for path in sorted((ROOT / "src" / "repro" / "serve").glob("*.py")):
        for match in CALL.finditer(path.read_text()):
            prefix, name = match.groups()
            assert not prefix, f"{path.name}: metric name {name!r} is built at run time"
            names.add(name)
    return names


def test_scan_is_not_vacuous():
    names = emitted_names()
    assert {"serve.requests", "serve.cache.hits", "fabric.failovers",
            "worker.deaths", "supervisor.restarts"} <= names
    assert len(names) >= 40


def test_every_serve_metric_is_documented():
    doc = (ROOT / "docs" / "observability.md").read_text()
    missing = sorted(name for name in emitted_names() if f"`{name}`" not in doc)
    assert not missing, f"undocumented serve metrics: {missing}"
