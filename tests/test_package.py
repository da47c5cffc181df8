import ast
import importlib
from pathlib import Path

import cohh

REPLAY = Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from cohh import *", namespace)
    for name in cohh.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(cohh, name)


def test_benchmark_replay_imports_exist():
    """Every name the benchmark's traced replay imports from cohh still exists."""
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(REPLAY.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and node.module is not None
        and node.module.split(".")[0] == "cohh"
        for alias in node.names
    ]
    assert len(imported) >= 10
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
