"""Output checks and failure accounting.

Every timed operation runs inside ``Ledger.operation``. A check that fails,
or an exception the program raises, marks that one operation failed and the
run goes on; ``error_rate`` is failed over attempted.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import struct
from pathlib import Path

from support.midi_reader import read_midi


class CheckFailed(Exception):
    """An output did not meet its check."""


class Ledger:
    """Counts attempted and failed operations and keeps each failure's reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def operation(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # one failed operation must not end the run
            self.failed += 1
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_midi(path: Path) -> bytes:
    """The MIDI file exists, parses and holds at least one note; returns its bytes."""
    require(path.is_file(), f"{path.name} was not written")
    data = path.read_bytes()
    try:
        notes = read_midi(data).notes
    except (ValueError, IndexError, struct.error) as exc:
        raise CheckFailed(f"{path.name} does not parse: {exc}") from None
    require(bool(notes), f"{path.name} holds no notes")
    return data


def check_generation_trace(path: Path, mode: str) -> None:
    require(path.is_file(), f"trace {path.name} was not written")
    trace = json.loads(path.read_text(encoding="utf-8"))
    require(trace.get("plan", {}).get("mode") == mode, f"{path.name} records the wrong mode")
    require("note" in trace.get("levels", {}), f"{path.name} has no note level")


def check_manifest(work: Path, corpus_size: int) -> dict:
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    require(
        manifest["accepted"] == corpus_size,
        f"manifest accepted {manifest['accepted']} of {corpus_size} pieces",
    )
    return manifest


def check_codebooks(work: Path, beat_k: int, bar_k: int) -> None:
    for kind, k in (("beat", beat_k), ("bar", bar_k)):
        book = json.loads((work / f"{kind}_codebook.json").read_text(encoding="utf-8"))
        require(book["k"] == k, f"{kind} codebook has k={book['k']}, asked for {k}")


def require_finite(value: float, what: str) -> None:
    require(isinstance(value, float) and math.isfinite(value), f"{what} is {value!r}")


def check_curves(bundle: Path, levels: tuple[str, ...]) -> None:
    """Every curve row of every level has finite losses."""
    for level in levels:
        text = (bundle / f"curves_{level}.csv").read_text(encoding="utf-8")
        rows = list(csv.DictReader(io.StringIO(
            "".join(line for line in text.splitlines(True) if not line.startswith("#"))
        )))
        require(bool(rows), f"curves_{level}.csv has no rows")
        for row in rows:
            for key in ("train_loss", "val_loss"):
                require_finite(float(row[key]), f"{level} {key}")
