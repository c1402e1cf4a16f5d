"""Corpus scanning, manifests, and the train/validation split."""

import dataclasses
import json
from fractions import Fraction

import pytest

from melodygen.cli import EXIT_EMPTY, main
from melodygen.corpus import (
    REJECT_UNENCODABLE,
    CorpusError,
    CorpusManifest,
    pitch_in_range_fraction,
    scan_corpus,
    split_ids,
)
from melodygen.encode import MAX_BARS
from melodygen.leadsheet import LeadSheet, RawNote, dumps_leadsheet
from melodygen.musicxml import REJECT_TIME_SIGNATURE, REJECT_WEAK_BEAT
from support.musicxml_builder import simple_score, attributes_xml, measure_xml, note_xml, score_xml


def json_sheet(piece_id, pitches=(60, 64), time_signature=(4, 4), pickup=False):
    notes = tuple(
        RawNote(p, Fraction(i), Fraction(1)) for i, p in enumerate(pitches)
    )
    return dumps_leadsheet(
        LeadSheet(piece_id, 0, time_signature, pickup, 1, notes)
    )


class TestSplitIds:
    def test_ten_pieces_split_nine_one(self):
        ids = [f"p{i:02d}" for i in range(10)]
        train, val = split_ids(ids, seed=0)
        assert len(train) == 9 and len(val) == 1
        assert sorted(train + val) == ids

    def test_single_piece_all_train(self):
        train, val = split_ids(["only"], seed=0)
        assert train == ["only"] and val == []

    def test_two_pieces_one_each(self):
        train, val = split_ids(["a", "b"], seed=0)
        assert len(train) == 1 and len(val) == 1

    def test_hundred_pieces_ninety_ten(self):
        ids = [f"p{i}" for i in range(100)]
        train, val = split_ids(ids, seed=3)
        assert len(train) == 90 and len(val) == 10

    def test_deterministic_per_seed(self):
        ids = [f"p{i}" for i in range(30)]
        assert split_ids(ids, 5) == split_ids(list(reversed(ids)), 5)
        assert split_ids(ids, 5) != split_ids(ids, 6)

    def test_outputs_sorted(self):
        train, val = split_ids([f"p{i}" for i in range(40)], seed=1)
        assert train == sorted(train) and val == sorted(val)


class TestPitchInRangeFraction:
    def test_counts_after_transposition(self):
        # In G major, 34 transposes up to 39 (in range); 30 only reaches 35.
        sheet = LeadSheet(
            "x", 1, (4, 4), False, 1,
            (RawNote(30, Fraction(0), Fraction(1)), RawNote(34, Fraction(1), Fraction(1))),
        )
        assert pitch_in_range_fraction([sheet]) == 0.5

    def test_empty(self):
        assert pitch_in_range_fraction([]) == 0.0


class TestScanCorpus:
    def make_corpus(self, tmp_path):
        (tmp_path / "good1.xml").write_text(simple_score([(60, 8), (62, 8)]))
        (tmp_path / "good2.json").write_text(json_sheet("ignored-id"))
        (tmp_path / "nested").mkdir()
        (tmp_path / "nested" / "good3.musicxml").write_text(
            simple_score([(64, 16)], key_fifths=1)
        )
        (tmp_path / "waltz.xml").write_text(
            score_xml([measure_xml(
                attributes_xml(divisions=4, time=(3, 4)) + note_xml(60, 12)
            )])
        )
        (tmp_path / "pickup.json").write_text(json_sheet("p", pickup=True))
        (tmp_path / "broken.xml").write_text("<score-partwise><oops")
        (tmp_path / "badschema.json").write_text('{"schema": 1}')
        (tmp_path / "notes.txt").write_text("not a corpus file")
        return tmp_path

    def test_counts_add_up(self, tmp_path):
        scan = scan_corpus(self.make_corpus(tmp_path), split_seed=1)
        m = scan.manifest
        assert m.scanned == 7  # .txt not scanned
        assert m.accepted == 3
        assert m.rejected == 4
        assert m.accepted + m.rejected == m.scanned

    def test_ids_are_relative_paths(self, tmp_path):
        scan = scan_corpus(self.make_corpus(tmp_path), split_seed=1)
        assert scan.manifest.accepted_ids == ["good1", "good2", "nested/good3"]
        assert scan.sheets["good2"].id == "good2"  # re-identified from filename

    def test_rejection_reasons(self, tmp_path):
        scan = scan_corpus(self.make_corpus(tmp_path), split_seed=1)
        reasons = {k: v["reason"] for k, v in scan.manifest.rejections.items()}
        assert reasons["waltz"] == REJECT_TIME_SIGNATURE
        assert reasons["pickup"] == REJECT_WEAK_BEAT
        assert reasons["broken"] == "unreadable"
        assert reasons["badschema"] == "unreadable"

    def test_unreadable_keeps_scanning(self, tmp_path):
        corpus = self.make_corpus(tmp_path)
        # "aaa" sorts first, so a crashing first file must not stop the scan.
        (corpus / "aaa.xml").write_text("complete garbage, not xml at all")
        scan = scan_corpus(corpus, split_seed=1)
        assert scan.manifest.accepted == 3
        assert scan.manifest.rejections["aaa"]["reason"] == "unreadable"

    def test_non_common_time_json_rejected(self, tmp_path):
        (tmp_path / "three.json").write_text(
            json_sheet("three", time_signature=(3, 4))
        )
        scan = scan_corpus(tmp_path)
        assert scan.manifest.rejections["three"]["reason"] == REJECT_TIME_SIGNATURE

    @pytest.mark.parametrize("notes,detail", [
        (((60, 0, 2), (62, 1, 1)), "notes overlap"),
        (((60, 3, 2),), "past the final bar"),
    ])
    def test_unencodable_rejected_before_the_split(self, tmp_path, notes, detail):
        corpus = self.make_corpus(tmp_path)
        raw = tuple(RawNote(p, Fraction(on), Fraction(d)) for p, on, d in notes)
        sheet = LeadSheet("bad", 0, (4, 4), False, 1, raw)
        (corpus / "bad.json").write_text(dumps_leadsheet(sheet))
        scan = scan_corpus(corpus, split_seed=1)
        rejection = scan.manifest.rejections["bad"]
        assert rejection["reason"] == REJECT_UNENCODABLE
        assert detail in rejection["detail"]
        assert sorted(scan.encoded) == scan.manifest.accepted_ids == sorted(scan.sheets)
        assert "bad" not in scan.manifest.train_ids + scan.manifest.validation_ids

    @pytest.mark.parametrize("n_bars, notes", [(0, ()), (1_000_000_000, ((60, 0, 1),))])
    def test_bar_count_outside_the_grid_bound_is_rejected_by_piece(self, tmp_path, n_bars, notes):
        corpus = self.make_corpus(tmp_path)
        raw = tuple(RawNote(p, Fraction(on), Fraction(d)) for p, on, d in notes)
        sheet = LeadSheet("bars", 0, (4, 4), False, n_bars, raw)
        (corpus / "bars.json").write_text(dumps_leadsheet(sheet))
        scan = scan_corpus(corpus, split_seed=1)
        assert scan.manifest.rejections["bars"] == {
            "reason": REJECT_UNENCODABLE,
            "detail": f"a lead sheet needs 1 to {MAX_BARS} bars, not {n_bars}",
        }
        assert scan.manifest.accepted_ids == ["good1", "good2", "nested/good3"]

    def test_split_partitions_accepted(self, tmp_path):
        scan = scan_corpus(self.make_corpus(tmp_path), split_seed=1)
        m = scan.manifest
        assert sorted(m.train_ids + m.validation_ids) == m.accepted_ids
        assert len(m.validation_ids) == 1

    def test_deterministic(self, tmp_path):
        corpus = self.make_corpus(tmp_path)
        first = scan_corpus(corpus, split_seed=4).manifest.to_dict()
        second = scan_corpus(corpus, split_seed=4).manifest.to_dict()
        assert first == second

    def test_pitch_fraction_between_zero_and_one(self, tmp_path):
        scan = scan_corpus(self.make_corpus(tmp_path), split_seed=1)
        assert 0.0 <= scan.manifest.pitch_in_range_fraction <= 1.0

    @pytest.mark.parametrize(
        "other", [simple_score([(90, 16)]), "<score-partwise>"], ids=["accepted", "rejected"]
    )
    def test_files_that_share_a_piece_id_are_named_and_ingest_writes_nothing(
        self, tmp_path, capsys, other
    ):
        corpus, work = tmp_path / "corpus", tmp_path / "work"
        (corpus / "sub").mkdir(parents=True)
        (corpus / "a.json").write_text(json_sheet("a"))
        (corpus / "a.xml").write_text(other)
        (corpus / "b.json").write_text(json_sheet("b"))
        (corpus / "sub" / "c.json").write_text(json_sheet("c"))
        (corpus / "sub" / "c.musicxml").write_text(simple_score([(60, 16)]))
        named = "'a' (a.json, a.xml); 'sub/c' (sub/c.json, sub/c.musicxml)"
        with pytest.raises(CorpusError) as raised:
            scan_corpus(corpus)
        assert str(raised.value) == f"files share a piece id: {named}"
        assert main(["ingest", "--corpus-dir", str(corpus), "--work-dir", str(work)]) == EXIT_EMPTY
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: files share a piece id: {named}\n"
        assert not (work / "manifest.json").exists()

    def test_empty_directory(self, tmp_path):
        scan = scan_corpus(tmp_path, split_seed=0)
        assert scan.manifest.scanned == 0
        assert scan.manifest.accepted_ids == []


class TestManifest:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError, match="scanned"):
            CorpusManifest(
                scanned=3,
                accepted_ids=["a"],
                rejections={},
                pitch_in_range_fraction=1.0,
                split_seed=0,
                train_ids=["a"],
                validation_ids=[],
            )

    def test_split_partition_enforced(self):
        with pytest.raises(ValueError, match="partition"):
            CorpusManifest(
                scanned=2,
                accepted_ids=["a", "b"],
                rejections={},
                pitch_in_range_fraction=1.0,
                split_seed=0,
                train_ids=["a"],
                validation_ids=["c"],
            )

    def test_weak_beat_context_count(self):
        manifest = CorpusManifest(
            scanned=4,
            accepted_ids=["a", "b"],
            rejections={
                "c": {"reason": REJECT_WEAK_BEAT, "detail": ""},
                "d": {"reason": REJECT_TIME_SIGNATURE, "detail": ""},
            },
            pitch_in_range_fraction=1.0,
            split_seed=0,
            train_ids=["a"],
            validation_ids=["b"],
        )
        assert manifest.accepted_before_weak_beat_filter == 3

    def test_round_trip(self):
        manifest = CorpusManifest(
            scanned=2,
            accepted_ids=["a", "b"],
            rejections={},
            pitch_in_range_fraction=0.75,
            split_seed=9,
            train_ids=["b"],
            validation_ids=["a"],
        )
        stored = json.loads(json.dumps(manifest.to_dict()))
        recovered = CorpusManifest(
            **{field.name: stored[field.name] for field in dataclasses.fields(CorpusManifest)}
        )
        assert recovered == manifest
