"""Checks on the package source itself."""
import ast
import importlib
from pathlib import Path

import pytest

import horbits

_MODULES = sorted(Path(horbits.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names that the imports of a module bind and that the module never
    reads: not as a name, not in a string annotation, not in ``__all__``."""
    nodes = list(ast.walk(ast.parse(source)))
    bound = [alias.asname or alias.name.split(".")[0]
             for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", "") != "__future__"
             for alias in node.names if alias.name != "*"]
    notes = [n.annotation for n in nodes if isinstance(n, (ast.arg, ast.AnnAssign))]
    notes += [n.returns for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    # string annotations, such as forward references, are parsed as expressions
    texts = [c.value for note in notes if note is not None for c in ast.walk(note)
             if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    read = {n.id for text in texts for n in ast.walk(ast.parse(text, mode="eval"))
            if isinstance(n, ast.Name)}
    read |= {n.id for n in nodes if isinstance(n, ast.Name)}
    for node in nodes:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [name for name in bound if name not in read]


def test_unused_import_check_finds_them():
    source = ('from __future__ import annotations\nimport os, os.path as osp\n'
              'from json import dumps, loads as ld\nfrom re import *\n'
              'from typing import Any\n__all__ = ["dumps"]\n'
              'def f(x: "Any") -> None:\n    return osp\n')
    assert _unused_imports(source) == ["os", "ld"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(horbits._LAZY))
def test_lazy_names_match_the_module_lists(module):
    # the package's name table lists the numpy module's __all__, and each
    # name resolves through the package's __getattr__ to the module's object
    loaded = importlib.import_module(f"horbits.{module}")
    assert set(horbits._LAZY[module]) == set(loaded.__all__)
    for name in loaded.__all__:
        assert horbits.__getattr__(name) is getattr(loaded, name)
