"""Corpus scanning: parse every piece in a directory, filter, and split.

``scan_corpus`` walks a directory for ``.xml``/``.musicxml``/``.json`` files,
parses each into a LeadSheet, encodes it onto the event grid, records every
rejection with its reason, and produces a deterministic train/validation
split of the accepted ids. A piece's id is its file's relative path without
the suffix; a corpus in which two files share an id is rejected whole, before
any file is parsed. Files that cannot be read or parsed at all are recorded
under the reason ``"unreadable"``, and pieces the grid encoder rejects under
``"unencodable"``; scanning continues.

Each accepted piece is encoded once, here. ``dumps_grids`` serializes the
encodings and ``loads_grids`` reads them back, so later stages never re-parse
or re-quantize a lead sheet.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from .artifacts import expect_schema, parse, require
from .encode import (
    PITCH_MAX,
    PITCH_MIN,
    MelodyGrid,
    grid_encode,
    normalize_sheet,
    transposition_shift,
)
from .leadsheet import (
    ChordSymbol,
    LeadSheet,
    SchemaError,
    chord_from_dict,
    chord_to_dict,
    loads_leadsheet,
)
from .musicxml import REJECT_WEAK_BEAT, MusicXmlParseError, Rejection, parse_musicxml

REJECT_UNREADABLE = "unreadable"
REJECT_UNENCODABLE = "unencodable"

MANIFEST_SCHEMA = 1
GRIDS_SCHEMA = 1


@dataclass
class CorpusManifest:
    """Everything recorded about one corpus scan."""

    scanned: int
    accepted_ids: list[str]
    rejections: dict[str, dict[str, str]]  # id -> {"reason": ..., "detail": ...}
    pitch_in_range_fraction: float
    split_seed: int
    train_ids: list[str]
    validation_ids: list[str]

    def __post_init__(self) -> None:
        if len(self.accepted_ids) + len(self.rejections) != self.scanned:
            raise ValueError("accepted + rejected must equal scanned")
        if sorted(self.train_ids + self.validation_ids) != sorted(self.accepted_ids):
            raise ValueError("split must partition the accepted ids")

    @property
    def accepted(self) -> int:
        return len(self.accepted_ids)

    @property
    def rejected(self) -> int:
        return len(self.rejections)

    @property
    def accepted_before_weak_beat_filter(self) -> int:
        """Accepted count had pickup pieces been kept (reported for context)."""
        weak = sum(
            1 for r in self.rejections.values() if r["reason"] == REJECT_WEAK_BEAT
        )
        return self.accepted + weak

    def to_dict(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "scanned": self.scanned,
            "accepted": self.accepted,
            "accepted_before_weak_beat_filter": self.accepted_before_weak_beat_filter,
            "accepted_ids": list(self.accepted_ids),
            "rejections": dict(sorted(self.rejections.items())),
            "pitch_in_range_fraction": self.pitch_in_range_fraction,
            "split_seed": self.split_seed,
            "train_ids": list(self.train_ids),
            "validation_ids": list(self.validation_ids),
        }


@dataclass(frozen=True)
class EncodedPiece:
    """A piece as the models read it: its event grid and its chord track,
    both transposed to C."""

    grid: MelodyGrid
    chords: tuple[ChordSymbol, ...]


@dataclass
class CorpusScan:
    manifest: CorpusManifest
    sheets: dict[str, LeadSheet] = field(default_factory=dict)
    encoded: dict[str, EncodedPiece] = field(default_factory=dict)


def dumps_grids(encoded: dict[str, EncodedPiece], stamp: dict) -> str:
    """Serialize encoded pieces deterministically (sorted keys, compact)."""
    pieces = {
        piece_id: {
            "events": list(piece.grid.events),
            "chords": [chord_to_dict(chord) for chord in piece.chords],
        }
        for piece_id, piece in encoded.items()
    }
    return json.dumps(
        {"schema": GRIDS_SCHEMA, "pieces": pieces, **stamp},
        sort_keys=True,
        separators=(",", ":"),
    )


def loads_grids(data: str | bytes, ids: list[str]) -> list[EncodedPiece]:
    """The listed pieces of a ``dumps_grids`` document, in order.

    Every returned entry is validated as a MelodyGrid and a sorted track of
    ChordSymbols. A missing or malformed entry raises ValueError naming it.
    """
    doc = parse(data)
    expect_schema(doc, GRIDS_SCHEMA)
    pieces = require(doc, "pieces", dict)
    out = []
    for piece_id in ids:
        entry = require(pieces, piece_id, dict, "pieces.")
        try:
            out.append(_encoded_from_dict(entry))
        except ValueError as exc:
            raise ValueError(f"piece {piece_id!r} is malformed: {exc}") from exc
    return out


def _encoded_from_dict(entry: dict) -> EncodedPiece:
    events = require(entry, "events", list[int])
    chords = require(entry, "chords", list)
    track = tuple(chord_from_dict(chord, f"chords[{i}]") for i, chord in enumerate(chords))
    if any(b.onset_step <= a.onset_step for a, b in zip(track, track[1:])):
        raise ValueError("chords must be strictly sorted by onset_step")
    return EncodedPiece(MelodyGrid(tuple(events)), track)


def split_ids(ids: list[str], seed: int) -> tuple[list[str], list[str]]:
    """Deterministic 90/10 split. At least one validation piece when n >= 2."""
    ordered = sorted(ids)
    rng = random.Random(seed)
    rng.shuffle(ordered)
    n_validation = max(1, len(ordered) // 10) if len(ordered) >= 2 else 0
    validation = sorted(ordered[:n_validation])
    train = sorted(ordered[n_validation:])
    return train, validation


def pitch_in_range_fraction(sheets: list[LeadSheet]) -> float:
    """Fraction of notes inside C2..B4 after transposition to C."""
    total = 0
    in_range = 0
    for sheet in sheets:
        shift = transposition_shift(sheet.key_fifths)
        for note in sheet.notes:
            total += 1
            if PITCH_MIN <= note.midi_pitch + shift <= PITCH_MAX:
                in_range += 1
    return in_range / total if total else 0.0


class CorpusError(ValueError):
    """A corpus that cannot be scanned as a whole."""


def scan_corpus(directory: str | Path, split_seed: int = 0) -> CorpusScan:
    """Parse every corpus file under ``directory`` (sorted, recursive).

    Raises CorpusError, naming every clashing file, when two files share a
    piece id.
    """
    directory = Path(directory)
    paths: dict[str, list[Path]] = {}
    for p in sorted(directory.rglob("*")):
        if p.is_file() and p.suffix.lower() in (".xml", ".musicxml", ".json"):
            paths.setdefault(p.relative_to(directory).with_suffix("").as_posix(), []).append(p)
    clashes = [
        f"{piece_id!r} ({', '.join(p.relative_to(directory).as_posix() for p in group)})"
        for piece_id, group in paths.items()
        if len(group) > 1
    ]
    if clashes:
        raise CorpusError(f"files share a piece id: {'; '.join(clashes)}")
    sheets: dict[str, LeadSheet] = {}
    encoded: dict[str, EncodedPiece] = {}
    rejections: dict[str, dict[str, str]] = {}
    for piece_id, (path,) in paths.items():
        try:
            data = path.read_bytes()
            if path.suffix.lower() == ".json":
                sheet = loads_leadsheet(data)
                if sheet.time_signature != (4, 4):
                    sheet = Rejection("time-signature", f"{sheet.time_signature}")
                elif sheet.pickup:
                    sheet = Rejection(REJECT_WEAK_BEAT, "cached sheet marked pickup")
            else:
                sheet = parse_musicxml(data, piece_id)
        except (OSError, MusicXmlParseError, SchemaError) as exc:
            rejections[piece_id] = {"reason": REJECT_UNREADABLE, "detail": str(exc)}
            continue
        if isinstance(sheet, Rejection):
            rejections[piece_id] = {"reason": sheet.reason, "detail": sheet.detail}
            continue
        try:
            normalized = normalize_sheet(sheet)
            grid = grid_encode(normalized)
        except ValueError as exc:
            rejections[piece_id] = {"reason": REJECT_UNENCODABLE, "detail": str(exc)}
            continue
        if sheet.id != piece_id:
            sheet = replace(sheet, id=piece_id)
        sheets[piece_id] = sheet
        encoded[piece_id] = EncodedPiece(grid, normalized.chords)

    train, validation = split_ids(sorted(sheets), split_seed)
    manifest = CorpusManifest(
        scanned=len(sheets) + len(rejections),
        accepted_ids=sorted(sheets),
        rejections=rejections,
        pitch_in_range_fraction=pitch_in_range_fraction(list(sheets.values())),
        split_seed=split_seed,
        train_ids=train,
        validation_ids=validation,
    )
    return CorpusScan(manifest=manifest, sheets=sheets, encoded=encoded)
