"""The names that code outside ``src/firesim`` reaches the package through.

``perfbench/tracing.py`` patches functions by attribute path, the acceptance
gate imports names, and ``firesim.__all__`` is the supported API.  Deleting
or renaming one of these would otherwise show only as a crash of a traced
benchmark run or of the gate itself.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import firesim
from firesim.contagion import Simulation

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    """``perfbench/tracing.py``, loaded by file path (it is not a package module)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module, path) -> bool:
    """Whether ``module`` holds ``path`` the way the tracer looks it up:
    a method in its own class's ``__dict__``, a function by attribute."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    namespace = vars(owner) if outer and owner is not None else {}
    target = namespace.get(attr) if outer else getattr(owner, attr, None)
    return callable(getattr(target, "__func__", target))


def _acceptance_imports():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "firesim"
            for alias in node.names]


def _importable(module, name) -> bool:
    """Whether ``from module import name`` succeeds, submodules included."""
    if hasattr(importlib.import_module(module), name):
        return True
    return importlib.util.find_spec(f"{module}.{name}") is not None


def test_tracer_targets_acceptance_imports_and_public_names_resolve():
    tracing = _tracing()
    targets = [(module, path) for _, module, path in tracing.SPANNED + tracing.COUNTED]
    assert [t for t in targets if not _resolves(*t)] == []

    imported = _acceptance_imports()
    assert len(imported) > 10
    assert [f"{m}.{n}" for m, n in imported if not _importable(m, n)] == []
    # the gate's fire-point check replays a run by hand with these
    assert callable(Simulation.run_until) and callable(Simulation.fork_bots_dormant)

    assert len(firesim.__all__) == len(set(firesim.__all__))
    assert [name for name in firesim.__all__ if not hasattr(firesim, name)] == []
