"""How every stage writes its artifacts and reads them back.

:func:`write` fills a sibling temp file and renames it over the target;
:func:`replace_dir` fills a sibling directory and swaps it in only when the
block filling it succeeds. So a stage that fails or is killed leaves its old
outputs as they were. Nothing is fsynced: this guards against a failed
stage, not against power loss. Files and directories get the modes a plain
write under the process umask gives. :func:`read` is the one checked reader.

Every JSON document a stage reads, artifact or ``--config`` file, is parsed
by :func:`parse`, and its fields are read by :func:`require`. A field has
exactly the type asked for: JSON's true and false are no integers, though
Python's ``bool`` subclasses ``int``, and an integer is no float unless the
kind says ``int | float``. :func:`expect_schema` reads ``"schema"`` as an
integer. Each of them raises one :class:`SchemaError`.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from types import GenericAlias
from typing import Callable, Iterator


class ArtifactError(ValueError):
    """A missing or malformed artifact, named with the command that makes it."""


class SchemaError(ValueError):
    """A JSON document that is malformed or violates its schema."""


def parse(data: bytes | str) -> dict:
    """The JSON object ``data`` holds. Malformed or undecodable JSON, nesting
    deeper than the recursion limit, an integer over Python's digit limit and
    a top level that is no object raise a SchemaError."""
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if type(doc) is not dict:
        raise SchemaError(f"the document must be a JSON object, not {type(doc).__name__}")
    return doc


def require(obj: dict, key, kind, where: str = ""):
    """``obj[key]``, of exactly the type ``kind``: a type, a union such as
    ``int | float`` or a ``list[...]`` of either. ``where`` prefixes the
    field name in a SchemaError (``"notes[0]."``)."""
    try:
        value = obj[key]
    except KeyError:
        raise SchemaError(f"missing field '{where}{key}'") from None
    if type(value) is kind:
        return value
    if type(kind) is not GenericAlias:
        if type(value) in getattr(kind, "__args__", ()):  # a union
            return value
    elif type(value) is list:
        # The items are checked here, not in a helper or a generator: this
        # runs twice per note of every lead sheet, where either adds to its cost.
        item = kind.__args__[0]
        for v in value:
            if type(v) is not item and not _has_type(v, item):
                raise SchemaError(f"field '{where}{key}' must be {kind}")
        return value
    raise SchemaError(f"field '{where}{key}' has wrong type {type(value).__name__}")


def _has_type(value, kind) -> bool:
    """Whether ``value`` is of the union or ``list[...]`` ``kind``."""
    if type(kind) is not GenericAlias:
        return type(value) in getattr(kind, "__args__", ())
    item = kind.__args__[0]
    return type(value) is list and all(type(v) is item or _has_type(v, item) for v in value)


def expect_schema(doc: dict, version: int) -> None:
    """Reject a document whose ``"schema"`` is not the integer ``version``."""
    schema = require(doc, "schema", int)
    if schema != version:
        raise SchemaError(f"unsupported schema version {schema} (this build reads {version})")


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
