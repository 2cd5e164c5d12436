"""The package imports none of its modules at the top level, so each module
must import on its own: an import cycle would otherwise show only when
one module happens to be imported first. And every name a module defines
is used somewhere."""

from __future__ import annotations

import ast
import os
import re
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


ROOT = Path(__file__).resolve().parents[1]


def module_level_names(module: ast.Module):
    """Each function, class and UPPER_CASE constant a module defines at its
    top level, with the first and last line of its definition."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            yield node.name, first, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node.lineno, node.end_lineno


def test_every_module_level_name_is_referenced():
    """A name of ``src/iloscast/`` that no line of ``src/``, ``tests/`` or
    ``perfbench/`` outside its own definition mentions is dead code."""
    texts = {
        path: path.read_text(encoding="utf-8")
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    unreferenced = []
    for path in sorted((ROOT / "src" / "iloscast").glob("*.py")):
        lines = texts[path].splitlines(keepends=True)
        for name, first, last in module_level_names(ast.parse(texts[path])):
            word = re.compile(rf"\b{re.escape(name)}\b")
            elsewhere = [text for other, text in texts.items() if other != path]
            elsewhere.append("".join(lines[: first - 1] + lines[last:]))
            if not any(word.search(text) for text in elsewhere):
                unreferenced.append(f"{path.relative_to(ROOT)}:{first}: {name}")
    assert not unreferenced
