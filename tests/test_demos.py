"""The demos import only names that exist, and call them as they are declared.

Running the demos takes tens of seconds, so this check parses each one
without executing it. It resolves every ``melodygen`` import, and binds each
call of an imported ``melodygen`` function or class against its signature.
"""

import ast
import importlib
import inspect
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


def imported_objects(path: Path) -> dict[str, object]:
    """What a demo's ``from melodygen… import name [as alias]`` binds, by local name."""
    bound = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "melodygen":
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(module, alias.name, None)
    return bound


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


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_calls_bind_to_signatures(path):
    bound = imported_objects(path)
    mismatched = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        target = bound.get(node.func.id) if isinstance(node.func, ast.Name) else None
        if not callable(target):
            continue
        if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
            keyword.arg is None for keyword in node.keywords
        ):
            continue  # a * or ** call binds only at run time
        try:
            inspect.signature(target).bind_partial(
                *[None] * len(node.args), **{keyword.arg: None for keyword in node.keywords}
            )
        except TypeError as exc:
            mismatched.append(f"line {node.lineno}: {ast.unparse(node.func)}: {exc}")
    assert not mismatched, f"{path.name} calls melodygen against its signatures: {mismatched}"
