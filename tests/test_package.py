import ast
import importlib
import inspect
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
    """Every name the benchmark's traced replay imports from cohh still exists
    and accepts the arguments the replay passes it.  The replay runs only
    under `--trace 1`, so no other test would see an API change break it."""
    tree = ast.parse(REPLAY.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module is not None
        and node.module.split(".")[0] == "cohh"
        for alias in node.names
    }
    assert len(imported) >= 10
    objects = {}
    for local, (module, name) in imported.items():
        module_obj = importlib.import_module(module)
        assert hasattr(module_obj, name), f"{module}.{name}"
        objects[local] = getattr(module_obj, name)
    keywords = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        fn = objects.get(node.func.id)
        if fn is None or any(isinstance(a, ast.Starred) for a in node.args):
            continue
        kwargs = {k.arg: None for k in node.keywords}
        inspect.signature(fn).bind(*[None] * len(node.args), **kwargs)
        keywords.update((node.func.id, k) for k in kwargs)
    assert {("build_complex", "check"), ("tensor_basis", "normalized")} <= keywords
