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


def test_benchmark_replay_runs_a_small_cohh_invocation(monkeypatch):
    """The traced replay reads attributes of what the calls return (spots,
    differentials, entries, table dims), which no signature check sees, so
    one small `cohh` invocation is replayed here: Λ(y_3) over F_3 at (2, 8)."""
    monkeypatch.syspath_prepend(str(REPLAY.parent))
    replay = importlib.import_module("replay")
    workloads = importlib.import_module("workloads")
    inv = workloads.Invocation(
        "cohh", [], workloads.summarize_grid_report,
        text="char 3\nexterior y 3\n", window=(2, 8),
    )
    tr = replay.Tracer()
    summary = replay.replay_invocation(tr, inv)
    assert summary["dims"] == workloads.closed_form_dims(
        base=[(3, 1)], columns=[(3, None)], max_s=2, max_t=8
    )
    assert summary["window"] == [2, 8]
    assert summary["checks"] == "d_squared=ok euler=pass"
    assert [s.name for s in tr.roots()] == ["invocation.cohh"]
    assert tr.counts["cochain.first_square_failure.pairs"] == 2 * 9
    assert tr.counts["cochain.build_complex.nnz"] == 0  # d vanishes on Λ(y)


def test_no_module_imports_a_name_it_never_uses():
    """Each module but the package's `__init__` reads every name it imports,
    in code or in an annotation (an unquoted annotation is a name in the
    syntax tree): a name is imported by the module that uses it, and no
    module re-exports another's names."""
    unused = []
    for path in sorted((ROOT / "src" / "cohh").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            else:
                continue
            unused += [f"{path.stem}:{node.lineno} {name}" for name in names if name not in used]
    assert unused == []


def test_only_cli_lays_out_reports():
    """`cli` turns records into report bytes; no other module imports `json`
    or names a `format_version`, so a format change edits `cli` alone."""
    offenders = []
    for path in sorted((ROOT / "src" / "cohh").glob("*.py")):
        if path.name == "cli.py":
            continue
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.stem}:{node.lineno} imports {m}"
                for m in modules if m.split(".")[0] == "json"
            ]
        if "format_version" in text.lower():
            offenders.append(f"{path.stem} names a format_version")
    assert offenders == []


def test_one_function_turns_image_terms_into_rows():
    """Exactly one src function raises "missing from the target basis":
    every cobar map, differential or identity-scan level map, gets its rows
    from `cochain.image_columns`, so the lookup is written once."""
    raisers = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, f"{where.split('.')[0]}.{child.name}")
            elif isinstance(child, ast.Raise):
                if "missing from the target basis" in ast.unparse(child):
                    raisers.append(where)
            else:
                visit(child, where)

    for path in sorted((ROOT / "src" / "cohh").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert raisers == ["cochain.image_columns"]


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
ARGPARSE = {"argparse", "gettext", "locale", "textwrap"}


def test_startup_loads_only_the_engine_of_the_command(tmp_path):
    """A command imports only the engine it runs, and `--help` none of it:
    every CLI call is a fresh process and pays for each module it loads.
    Only `selftest` loads the cobar oracle (`cochain`); `hz` multiplies out
    the factor series of its one exterior cogenerator and takes no rank.  No
    command loads `dataclasses`, which pulls in `inspect`, `ast`, `dis` and
    `tokenize`, nor `inspect` by another route.  No process, `--help` and usage errors included, loads
    `argparse` or what it pulls in (`gettext`, `locale`) or formats help
    with (`textwrap`): the command line is read from `cli.COMMANDS`."""
    for argv in (["--help"], ["cohh", "-h"], ["hz"]):
        loaded = _modules_after(f"from cohh.cli import main\nmain({argv!r})")
        assert _cohh_modules(loaded) == CLI, argv
        assert not loaded & {"dataclasses", "json", *ARGPARSE}, argv

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
        (["hz", "--char", "3"], {*CLI, "cohh.coalg", "cohh.cohomology", "cohh.torpipe"}),
    ]:
        loaded = _modules_after(f"from cohh.cli import main\nmain({argv!r})")
        assert _cohh_modules(loaded) == expected, argv
        assert not loaded & (slow_imports | ARGPARSE), argv

    loaded = _modules_after("from cohh.cli import main\nmain(['selftest'])")
    assert {"cohh.selftest", "cohh.cochain"} <= loaded
    assert not loaded & (slow_imports | ARGPARSE)


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
