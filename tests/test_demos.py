"""The demos import only names that exist.

Running the demos takes tens of seconds, so this check parses each one and
resolves every ``melodygen`` import without executing the demo.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def melodygen_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each ``from melodygen… import name``; name None for ``import``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "melodygen":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            found.extend((name, None) for name in names if name.split(".")[0] == "melodygen")
    return found


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(path):
    imports = melodygen_imports(path)
    assert imports, f"{path.name} imports nothing from melodygen"
    missing = []
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        # ``from package import submodule`` names a module, not an attribute.
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            missing.append(f"{module_name}.{name}")
    assert not missing, f"{path.name} imports names that do not exist: {missing}"
