"""Every module of the package and of the tests reads each name it imports."""

import ast
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
