"""Every option of the main APIs is one that some caller sets.

An option no caller passes has one value in use: it is a constant that
doubles what tests and docs must cover while no caller can see a
difference.  For each guarded API this test parses ``src/``,
``benchmarks/`` and ``perfbench/`` with :mod:`ast` and requires every
keyword parameter with a default to be passed, by name or by position,
at some call of that name there (calls under ``tests/`` do not count).
The ``*Policy`` dataclasses named in a guarded API's parameter
annotations are guarded too, so a policy object cannot regrow the
fields its API lost.  Exempt: injectable clocks and observers.
``exhaustive_space`` is left out: its axes arrive through
``AutoTuner(exhaustive_kwargs=...)``, which no call site names.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
SCANNED = (ROOT / "src", ROOT / "benchmarks", ROOT / "perfbench")

GUARDED = (
    "SpMVEngine",
    "SpMVEngine.prepare",
    "ServeFabric",
    "HealthPolicy",
    "RetryPolicy",
    "CircuitBreaker",
    "verify_output",
    "ModelDrivenTuner",
    "schedule_workgroups",
    "run_chaos_drill",
    "run_replay",
    "AutoTuner",
    "pruned_space",
    "base_format_points",
    "run_suite_comparison",
)
#: Injection points for tests, not options of the behaviour.
EXEMPT = {"clock", "observer"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(trees) -> dict[str, ast.AST]:
    """Top-level classes and functions by name, methods as ``Cls.name``."""
    found: dict[str, ast.AST] = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[node.name] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        found[f"{node.name}.{item.name}"] = item
    return found


def _parameters(name: str, defs) -> list[tuple[str, bool, ast.AST | None]]:
    """``(name, has_default, annotation)`` per parameter, in call order:
    positional ones first, then keyword-only ones."""
    node = defs[name]
    if isinstance(node, ast.ClassDef):
        init = defs.get(f"{name}.__init__")
        if init is None:  # a dataclass: its annotated fields
            return [
                (f.target.id, f.value is not None, f.annotation)
                for f in node.body
                if isinstance(f, ast.AnnAssign)
                and isinstance(f.target, ast.Name)
                and not f.target.id.startswith("_")
            ]
        node = init
    args = node.args
    positional = args.posonlyargs + args.args
    if "." in name or isinstance(defs[name], ast.ClassDef):
        positional = positional[1:]  # self
    pos_defaults = [False] * (len(positional) - len(args.defaults))
    pos_defaults += [True] * len(args.defaults)
    params = [
        (a.arg, has, a.annotation) for a, has in zip(positional, pos_defaults)
    ]
    params += [
        (a.arg, d is not None, a.annotation)
        for a, d in zip(args.kwonlyargs, args.kw_defaults)
    ]
    return params


def _policies(name: str, defs) -> set[str]:
    """``*Policy`` classes named in ``name``'s parameter annotations."""
    found = set()
    for _, _, annotation in _parameters(name, defs):
        for node in ast.walk(annotation) if annotation is not None else ():
            if (
                isinstance(node, ast.Name)
                and node.id.endswith("Policy")
                and isinstance(defs.get(node.id), ast.ClassDef)
            ):
                found.add(node.id)
    return found


def _passed(trees, names, defs) -> dict[str, set[str]]:
    """The parameters each guarded name is passed at any call."""
    positional = {
        name: [p for p, _, _ in _parameters(name, defs)] for name in names
    }
    by_call_name: dict[str, list[str]] = {}
    for name in names:
        by_call_name.setdefault(name.rsplit(".", 1)[-1], []).append(name)
    passed = {name: set() for name in names}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            for name in by_call_name.get(called, ()):
                n_pos = sum(
                    1 for a in node.args if not isinstance(a, ast.Starred)
                )
                passed[name].update(positional[name][:n_pos])
                passed[name].update(k.arg for k in node.keywords if k.arg)
    return passed


def unpassed_options(src_trees, call_trees, guarded=GUARDED) -> list[str]:
    """``"API.param"`` for every defaulted parameter no call passes."""
    defs = _definitions(src_trees)
    names = set(guarded)
    for name in guarded:
        names |= _policies(name, defs)
    passed = _passed(call_trees, names, defs)
    return sorted(
        f"{name}.{param}"
        for name in names
        for param, has_default, _ in _parameters(name, defs)
        if has_default and param not in EXEMPT and param not in passed[name]
    )


def _trees(roots) -> list[ast.Module]:
    return [_parse(p) for root in roots for p in sorted(root.rglob("*.py"))]


def test_every_guarded_api_is_defined():
    defs = _definitions(_trees([SRC]))
    missing = [name for name in GUARDED if name not in defs]
    assert not missing, f"guarded names not found under src/repro: {missing}"


def test_guard_flags_an_unpassed_option():
    source = ast.parse("def api(a, b=1, *, c=2, clock=None):\n    pass\n")
    calls = ast.parse("api(0, 5)\nx.api(0)\n")
    assert unpassed_options([source], [calls], guarded=("api",)) == ["api.c"]
    calls = ast.parse("api(0, c=3)\n")
    assert unpassed_options([source], [calls], guarded=("api",)) == ["api.b"]


def test_every_option_is_passed_by_some_caller():
    unpassed = unpassed_options(_trees([SRC]), _trees(SCANNED))
    assert not unpassed, (
        "options no call under src/, benchmarks/ or perfbench/ passes "
        f"(fold each into a constant): {unpassed}"
    )
