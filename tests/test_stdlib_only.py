"""The package is dependency-free at runtime: every absolute import in its
sources names a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dsrg"


def absolute_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {f"{path.name}: {name}" for path in sources
               for name in absolute_imports(path)
               if name not in sys.stdlib_module_names}
    assert outside == set()
