import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohh

ROOT = Path(__file__).resolve().parents[1]
REPLAY = ROOT / "perfbench" / "replay.py"


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


def _modules_after(code: str) -> set:
    """The modules a fresh interpreter holds after running `code`, as a CLI
    process would with `PYTHONPATH=src`."""
    probe = code + "\nimport sys\nprint('MODULES', *sorted(sys.modules))\n"
    run = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return set(run.stdout.rsplit("MODULES ", 1)[1].split())


def _cohh_modules(loaded: set) -> set:
    return {m for m in loaded if m.split(".")[0] == "cohh"}


CLI = {"cohh", "cohh.cli", "cohh.errors"}


def test_startup_loads_only_the_engine_of_the_command(tmp_path):
    """A command imports only the engine it runs, and `--help` none of it:
    every CLI call is a fresh process and pays for each module it loads.
    Only `selftest` loads the cobar oracle (`cochain`); `hz` loads
    `exactfield` for its one rank.  No command loads `dataclasses`, which
    pulls in `inspect`, `ast`, `dis` and `tokenize`, nor `inspect` by
    another route."""
    loaded = _modules_after(
        "from cohh.cli import main\ntry:\n    main(['--help'])\nexcept SystemExit:\n    pass"
    )
    assert _cohh_modules(loaded) == CLI
    assert not loaded & {"dataclasses", "json"}

    slow_imports = {"dataclasses", "inspect"}
    coalg = tmp_path / "lambda.coalg"
    coalg.write_text("char 3\nexterior y 3\n")
    e2 = tmp_path / "page.e2"
    e2.write_text("char 3\nexterior y 0 3\npolynomial w 1 2\n")
    structure = {*CLI, "cohh.coalg", "cohh.hopfstruct"}
    for argv, expected in [
        (["cohh", str(coalg), "--max-t", "6"], {*CLI, "cohh.coalg", "cohh.cohomology"}),
        (["collapse", str(e2)], {*structure, "cohh.collapse"}),
        (["primitives", str(coalg)], structure),
        (["indecomposables", str(coalg)], structure),
        (["hz", "--char", "3"], {*CLI, "cohh.coalg", "cohh.cohomology", "cohh.exactfield",
                                 "cohh.torpipe"}),
    ]:
        loaded = _modules_after(f"from cohh.cli import main\nmain({argv!r})")
        assert _cohh_modules(loaded) == expected, argv
        assert not loaded & slow_imports, argv

    loaded = _modules_after("from cohh.cli import main\nmain(['selftest'])")
    assert {"cohh.selftest", "cohh.cochain"} <= loaded
    assert not loaded & slow_imports


def test_every_process_enters_by_cli_run():
    """The console script and `python -m cohh.cli` both end in `cli.run()`,
    the one entry that skips interpreter teardown."""
    tomllib = pytest.importorskip("tomllib")
    from cohh import cli

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, attr = project["project"]["scripts"]["cohh"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.run

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    guard = tree.body[-1]
    assert isinstance(guard, ast.If) and ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(stmt) for stmt in guard.body] == ["run()"]
