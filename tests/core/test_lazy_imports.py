"""``import repro`` loads no SciPy module that only a rare path needs.

``scipy.sparse.csgraph`` pulls in ``scipy.sparse.linalg`` and
``scipy.linalg``; only :func:`repro.matrices.reverse_cuthill_mckee`
uses it, so it loads on first use.  Runs in a fresh interpreter, since
this one has imported whatever other tests needed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

DEFERRED = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")


def test_import_repro_defers_csgraph():
    code = (
        "import json, sys, repro; "
        f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert json.loads(out.stdout) == []
