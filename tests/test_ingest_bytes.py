"""Byte identity of ingest's outputs on a small hand-listed corpus.

The digests pin ``leadsheets/``, ``grids.json`` and ``manifest.json`` as an
ingest of this corpus writes them. A change to how pieces are parsed,
quantized or serialized that should leave every artifact as it was must
keep them. The manifest and grids carry the tool version and the config
hash, so a version bump changes them too; re-pin only for a change that
means to alter the bytes, and say why.
"""

import hashlib
from fractions import Fraction
from pathlib import Path

from melodygen.cli import EXIT_OK, main
from melodygen.leadsheet import LeadSheet, RawNote, chord_from_kind, dumps_leadsheet
from support.musicxml_builder import (
    attributes_xml,
    backup_xml,
    forward_xml,
    harmony_xml,
    measure_xml,
    note_xml,
    score_xml,
    simple_score,
)

FULL_BAR = attributes_xml(divisions=4, key_fifths=0, time=(4, 4))
REJECT_REASONS = (
    "time-signature", "weak-beat start", "irregular-measure", "unreadable", "unencodable",
)


def json_doc(piece_id, notes, *, key_fifths=0, n_bars=2, time=(4, 4), pickup=False, chords=()):
    """A lead-sheet JSON document from (pitch, onset, duration) triples."""
    raw = tuple(RawNote(p, Fraction(on), Fraction(d)) for p, on, d in notes)
    return dumps_leadsheet(LeadSheet(piece_id, key_fifths, time, pickup, n_bars, raw, chords))


CORPUS = {
    # Triplets at divisions 6, an off-beat harmony, then divisions 8.
    "triplets.musicxml": score_xml([
        measure_xml(
            attributes_xml(divisions=6, key_fifths=0, time=(4, 4)) + harmony_xml("C")
            + note_xml(60, 2) + note_xml(62, 2) + harmony_xml("A", "minor") + note_xml(64, 2)
            + note_xml(65, 6) + note_xml(None, 3) + note_xml(67, 9),
            1,
        ),
        measure_xml(
            attributes_xml(divisions=8) + note_xml(69, 3) + note_xml(71, 5)
            + note_xml(72, 24),
            2,
        ),
    ]),
    # A tie across the barline, a second voice under backup, and forward.
    "voices.musicxml": score_xml([
        measure_xml(
            FULL_BAR + note_xml(62, 8) + note_xml(64, 8, tie="start")
            + backup_xml(16) + note_xml(55, 4) + note_xml(57, 4),
            1,
        ),
        measure_xml(
            note_xml(64, 4, tie="stop") + forward_xml(4) + note_xml(67, 8),
            2,
        ),
    ]),
    # E flat major, with harmony: transposed to C at ingest.
    "e_flat.musicxml": simple_score(
        [(63, 6), (65, 2), (67, 8), (70, 12), (None, 4)],
        key_fifths=-3,
        harmonies={
            0: harmony_xml("E", "major", root_alter=-1),
            1: harmony_xml("B", "dominant", root_alter=-1),
        },
    ),
    # A major, with pitches outside C2..B4 that fold by octaves.
    "folded.json": json_doc(
        "folded",
        [(21, 0, 1), (33, 0, 2), (93, 2, 1), (108, 3, 1), (69, 4, 4)],
        key_fifths=3,
        chords=(chord_from_kind(0, 9, "major"), chord_from_kind(16, 4, "dominant")),
    ),
    "plain.json": json_doc(
        "plain", [(60, 0, 1), (64, Fraction(3, 2), Fraction(1, 2)), (67, 4, 4)]
    ),
    # One rejection of every reason.
    "waltz.musicxml": score_xml([
        measure_xml(attributes_xml(divisions=4, time=(3, 4)) + note_xml(60, 12)),
    ]),
    "three_four.json": json_doc("three_four", [(60, 0, 3)], n_bars=1, time=(3, 4)),
    "pickup.musicxml": score_xml([
        measure_xml(FULL_BAR + note_xml(60, 4), 1, implicit=True),
        measure_xml(note_xml(62, 16), 2),
    ]),
    "pickup_sheet.json": json_doc("pickup_sheet", [(60, 0, 4)], n_bars=1, pickup=True),
    "irregular.musicxml": score_xml([
        measure_xml(FULL_BAR + note_xml(60, 16), 1),
        measure_xml(attributes_xml(divisions=2) + note_xml(62, 7), 2),
    ]),
    "broken.musicxml": "<score-partwise><part><measure>",
    "bad_schema.json": '{"schema": 1}',
    "overlap.json": json_doc("overlap", [(60, 0, 2), (62, 1, 1)], n_bars=1),
}

DIGESTS = {
    "leadsheets": "041a469aa09028ad5e3a5ed37f85fb3ab3b7ac445e448c3c93f467a90c31e379",
    "grids.json": "66b860f28cb3bdef2e2c5eb21395a38fcf5fd10095bedf88048ee345944340b6",
    "manifest.json": "0ee24fcc84b0cece2ccde6853e0ffa7f7f7bfe117644243207a3576810095f51",
}


def _digest(path: Path) -> str:
    """sha256 of a file, or of every file under a directory: each relative
    path and its bytes, in sorted order."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    digest = hashlib.sha256()
    for file in files:
        digest.update(file.relative_to(path.parent).as_posix().encode("utf-8") + b"\0")
        digest.update(file.read_bytes() + b"\0")
    return digest.hexdigest()


def test_ingest_writes_the_pinned_bytes(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in CORPUS.items():
        (corpus / name).write_text(text, encoding="utf-8")
    work = tmp_path / "work"
    argv = ["ingest", "--corpus-dir", str(corpus), "--work-dir", str(work), "--seed", "7"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    for reason in REJECT_REASONS:
        assert f"  {reason}: " in out
    assert {name: _digest(work / name) for name in DIGESTS} == DIGESTS
