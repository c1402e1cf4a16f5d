"""How every stage writes its artifacts and reads them back.

:func:`write` fills a sibling temp file and renames it over the target;
:func:`replace_dir` fills a sibling directory and swaps it in only when the
block filling it succeeds. So a stage that fails or is killed leaves its old
outputs as they were. Nothing is fsynced: this guards against a failed
stage, not against power loss. Files and directories get the modes a plain
write under the process umask gives. :func:`read` is the one checked reader.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator


class ArtifactError(ValueError):
    """A missing or malformed artifact, named with the command that makes it."""


def write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` whole, creating its parent directories."""
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.tmp")
    try:
        temp.write_bytes(data)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_json(path: Path, obj) -> None:
    """Write ``obj`` in the one canonical JSON form of every artifact."""
    write(path, (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8"))


def read(path: Path, producer: str, load: Callable[[Path], object]):
    """``load(path)``, with a missing file or a ``KeyError``, ``TypeError``
    or ``ValueError`` raised as an :class:`ArtifactError` that names ``path``
    and the ``melodygen <producer>`` command to run. An ArtifactError from a
    nested read passes through unchanged."""
    try:
        return load(path)
    except ArtifactError:
        raise
    except FileNotFoundError:
        raise ArtifactError(f"missing {path}; run `melodygen {producer}` first") from None
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ArtifactError(f"{path}: {problem}; re-run `melodygen {producer}`") from None


@contextmanager
def replace_dir(path: Path) -> Iterator[Path]:
    """Yield a fresh sibling directory to fill; swap it in for ``path`` when
    the block exits normally, and remove it leaving ``path`` untouched when
    the block raises.

    The swap renames the old directory aside, renames the new one in and
    then removes the old one. Between the two renames ``path`` is absent.
    """
    staging = path.with_name(f".{path.name}.new")
    retired = path.with_name(f".{path.name}.old")
    for leftover in (staging, retired):
        shutil.rmtree(leftover, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        yield staging
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if path.exists():
        path.rename(retired)
    staging.rename(path)
    shutil.rmtree(retired, ignore_errors=True)
