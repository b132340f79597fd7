"""Every module of the package and of the tests reads each name it imports, the
package's imports form no cycle, and a run loads no module that only tests need."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, ``__all__`` entries and
    ``__future__`` features excepted."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    modules = [*(ROOT / "src" / "gp2").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    unused = {str(p.relative_to(ROOT)): names for p in sorted(modules)
              if (names := unused_imports(p.read_text()))}
    assert unused == {}


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom a import b, c as d\n__all__ = ['d']\nos.sep\n"
    assert unused_imports(source) == ["b (line 2)"]


def package_imports(source: str) -> tuple[set[str], dict[str, set[str]]]:
    """The package modules ``source`` imports at module level, and those
    it imports inside each function, by function name."""
    def modules(node):
        return {node.module.split(".")[0]} if node.module else {a.name for a in node.names}

    tree = ast.parse(source)
    top = set().union(*(modules(node) for node in tree.body
                        if isinstance(node, ast.ImportFrom) and node.level))
    local: dict[str, set[str]] = {}
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and node.level:
                    local.setdefault(func.name, set()).update(modules(node))
    return top, local


def import_cycles(imports: dict[str, set[str]]) -> list[str]:
    """The modules left once every module whose imports are all gone has
    been taken away, repeatedly: those on or behind an import cycle."""
    left = dict(imports)
    while ready := [m for m, deps in left.items() if not deps & left.keys()]:
        for m in ready:
            del left[m]
    return sorted(left)


def test_package_imports_form_no_cycle_and_stay_at_module_level():
    top, local = {}, {}
    for path in sorted((ROOT / "src" / "gp2").glob("*.py")):
        top[path.stem], functions = package_imports(path.read_text())
        local.update({f"{path.stem}.{name}": mods for name, mods in functions.items()})
    assert import_cycles(top) == []
    assert local == {}


def test_the_checks_see_a_local_import_and_a_cycle():
    source = "from . import a\nfrom .b.c import d\ndef f():\n    from .e import g\n"
    assert package_imports(source) == ({"a", "b"}, {"f": {"e"}})
    assert import_cycles({"a": {"b"}, "b": {"a"}, "c": {"a"}, "d": set()}) == ["a", "b", "c"]


# The modules a run imports, and the ones it must not.
RUN_PATH = ("__init__", "cli", "engine", "graph", "match", "rules", "textio")
TEST_ONLY = {"reference", "oracles"}


def test_no_run_path_module_imports_the_test_only_modules():
    for name in RUN_PATH:
        top, local = package_imports((ROOT / "src" / "gp2" / f"{name}.py").read_text())
        assert not (top.union(*local.values()) & TEST_ONLY), name


# Imports gp2.cli, runs is_discrete on a fixture, and prints the modules it
# loaded that a run should not.
NOT_LOADED = """
import contextlib, io, json, sys
before = set(sys.modules)
from gp2 import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    status = cli.main([sys.argv[1], sys.argv[2]])
unwanted = {"gp2.reference", "gp2.oracles", "gp2.bench", "gp2.corpus", "dataclasses", "inspect"}
print(json.dumps([status, out.getvalue(), sorted(unwanted & (set(sys.modules) - before))]))
"""


def test_a_cli_run_loads_no_test_only_or_bench_module_and_no_dataclasses():
    gp2 = ROOT / "src" / "gp2"
    result = subprocess.run(
        [sys.executable, "-c", NOT_LOADED, str(gp2 / "programs" / "is_discrete.gp2"),
         str(gp2 / "fixtures" / "discrete_pos.host")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
        check=True)
    assert json.loads(result.stdout) == [0, "[ | ]\n", []]
