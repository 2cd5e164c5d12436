"""The package imports none of its modules at the top level, so each module
must import on its own: an import cycle would otherwise show only when
one module happens to be imported first."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import iloscast

SCRIPT = """
import importlib, pkgutil, sys
import iloscast
names = sorted(m.name for m in pkgutil.iter_modules(iloscast.__path__))
for name in names:
    for loaded in [m for m in sys.modules if m == "iloscast" or m.startswith("iloscast.")]:
        del sys.modules[loaded]
    importlib.import_module(f"iloscast.{name}")
print(" ".join(names))
"""


def test_each_module_imports_alone():
    src = str(Path(iloscast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    names = done.stdout.split()
    assert {"cli", "pipeline", "rits", "schema", "trees", "windows"} <= set(names)
