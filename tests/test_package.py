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


# The benchmark's traced mode patches firesim functions by module and name,
# so a name that moved, or a module the commands no longer load, fails it.
_TRACED_COMMANDS = """\
import contextlib, io, json, sys, tempfile
from pathlib import Path
import firesim.cli as cli
from tracing import Tracer
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    config, archive = tmp / "config.json", tmp / "archive.csv"
    config.write_text(json.dumps({"graph": {"n": 300}, "attack": {"bots": 20},
                                  "run": {"ticks": 30}}))
    archive.write_text("timestamp,author_id,author_created_at,surface,valence\\n"
                       "0,1,-9000,general_stream,0.5\\n1,2,-9000,company_page,-0.5\\n")
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["run", "--config", str(config), "--out", str(tmp / "run")]),
                 cli.main(["compare", "--config", str(config), "--toggle", "defense_playbook",
                           "--seeds", "0..1", "--out", str(tmp / "compare")]),
                 cli.main(["analyze", str(archive), "--out", str(tmp / "analyze")])]
main = cli.main
tracer = Tracer()
tracer.install()
assert cli.main is not main
tracer.uninstall()
assert cli.main is main
print(codes)
"""


def test_the_benchmark_tracer_installs_after_each_command():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent / "perfbench"), str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _TRACED_COMMANDS], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["[0,", "0,", "0]"]
