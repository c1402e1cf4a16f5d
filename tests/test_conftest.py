"""The root conftest names the melodygen under test and refuses another tree's."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def collect(pythonpath: str) -> subprocess.CompletedProcess:
    """Collect this file from the repository root under ``pythonpath``."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "tests/test_conftest.py",
         # Plugins this check needs none of, left out for a quicker start.
         "-p", "no:cacheprovider", "-p", "no:hypothesispytest", "-p", "no:pytest_benchmark"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("entry", ["src", str(ROOT / "src")], ids=["relative", "absolute"])
def test_this_checkout_on_pythonpath_is_named_in_the_header(entry):
    run = collect(entry)
    assert run.returncode == 0, run.stdout + run.stderr
    assert f"melodygen: {ROOT / 'src' / 'melodygen'}\n" in run.stdout


def test_another_tree_on_pythonpath_is_a_usage_error(tmp_path):
    (tmp_path / "melodygen").mkdir()
    (tmp_path / "melodygen" / "__init__.py").write_text("")
    run = collect(os.pathsep.join(["src", str(tmp_path)]))
    assert run.returncode == pytest.ExitCode.USAGE_ERROR, run.stdout + run.stderr
    assert f"PYTHONPATH entry {str(tmp_path)!r} holds melodygen at {tmp_path / 'melodygen'}" in (
        run.stderr
    )
