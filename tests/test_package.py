"""The package root resolves its public names lazily (PEP 562)."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import firesim

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_one_module_loads_no_other():
    code = ("import sys, firesim.socialgraph; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('firesim'))), "
            "'csv' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["firesim", "firesim.socialgraph", "False"]


def test_every_public_name_resolves_to_its_module_object():
    for name in firesim.__all__[1:]:
        module = importlib.import_module(f"firesim.{firesim._EXPORTS[name]}")
        assert getattr(firesim, name) is getattr(module, name), name
    assert firesim.__all__[0] == "__version__" and firesim.__version__
    assert set(firesim.__all__) <= set(dir(firesim))
    namespace: dict = {}
    exec("from firesim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(firesim.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        firesim.no_such_name  # noqa: B018
