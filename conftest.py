"""Name the melodygen package under test, and refuse to test another tree's.

pytest's ``pythonpath = ["src"]`` (pyproject.toml) goes ahead of
``PYTHONPATH``, so ``PYTHONPATH=OTHER/src python -m pytest`` run from this
checkout would test this checkout's ``src`` while seeming to test OTHER's.
Such a run stops with a usage error; run OTHER's own tests from OTHER instead.
"""

import os
from pathlib import Path

import pytest


def _imported() -> Path:
    import melodygen

    return Path(melodygen.__file__).resolve().parent


def pytest_report_header(config) -> str:
    return f"melodygen: {_imported()}"


def pytest_configure(config) -> None:
    imported = _imported()
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        package = Path(entry, "melodygen")
        if entry and (package / "__init__.py").is_file() and package.resolve() != imported:
            raise pytest.UsageError(
                f"PYTHONPATH entry {entry!r} holds melodygen at {package.resolve()}, "
                f"but these tests import {imported}; run that tree's tests from its own checkout"
            )
