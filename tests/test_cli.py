"""End-to-end pipeline through the command-line entry point."""

import argparse
import dataclasses
import json
import shutil
import stat
import weakref

import numpy as np
import pytest

from fractions import Fraction

from melodygen import cli
from melodygen.cli import EXIT_EMPTY, EXIT_ERROR, EXIT_OK, build_parser, config_hash, main
from melodygen.container import load_arrays, save_arrays
from melodygen.encode import grid_encode, normalize_sheet
from melodygen.leadsheet import (
    LeadSheet,
    RawNote,
    chord_to_dict,
    dumps_leadsheet,
    loads_leadsheet,
)
from melodygen.neural import CHECKPOINT_META_KEY
from melodygen.synthetic import synthetic_corpus
from support.midi_reader import read_midi
from support.musicxml_builder import harmony_xml, simple_score

N_PIECES = 12
TINY_TRAIN = [
    "--hidden-size", "4", "--lstm-layers", "1", "--batch-size", "4",
    "--max-iterations", "2", "--eval-every", "2",
]


def write_corpus(directory, n_pieces=N_PIECES, seed=5, random_keys=False):
    directory.mkdir(parents=True, exist_ok=True)
    for sheet in synthetic_corpus(n_pieces, seed=seed, n_bars=4, random_keys=random_keys):
        (directory / f"{sheet.id}.json").write_text(dumps_leadsheet(sheet) + "\n")


def write_mixed_corpus(directory):
    """JSON pieces in random keys, and MusicXML pieces in triplet and
    quintuplet divisions, in sharp and flat keys, with chords and with
    pitches outside the grid's three octaves."""
    write_corpus(directory, n_pieces=8, seed=11, random_keys=True)
    (directory / "xml").mkdir()
    (directory / "xml" / "triplets.musicxml").write_text(simple_score(
        [(62, 1), (64, 1), (66, 1), (None, 3), (69, 6), (30, 4), (90, 8)],
        divisions=3, key_fifths=2,
        harmonies={0: harmony_xml("D"), 1: harmony_xml("A", "dominant")},
    ))
    (directory / "xml" / "quintuplets.xml").write_text(simple_score(
        [(53, 2), (57, 3), (60, 5), (None, 5), (65, 5), (58, 20)],
        divisions=5, key_fifths=-1,
        harmonies={0: harmony_xml("F"), 1: harmony_xml("B", "major", -1)},
    ))


def overlapping_piece() -> LeadSheet:
    """A cached-format piece whose two notes overlap: the grid cannot hold it."""
    notes = (RawNote(60, Fraction(0), Fraction(2)), RawNote(62, Fraction(1), Fraction(1)))
    return LeadSheet("overlap", 0, (4, 4), False, 1, notes)


def ingest(corpus, work, *extra):
    return main(["ingest", "--corpus-dir", str(corpus), "--work-dir", str(work), *extra])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One ingested + profiled + trained work directory, shared read-only."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    work = root / "work"
    write_corpus(corpus)
    assert main(["ingest", "--corpus-dir", str(corpus), "--work-dir", str(work)]) == EXIT_OK
    assert main([
        "profiles", "--work-dir", str(work), "--beat-k", "3", "--bar-k", "2",
        "--elbow", "1:4",
    ]) == EXIT_OK
    assert main([
        "train", "--work-dir", str(work), "--variant", "3L",
        "--hidden-size", "10", "--lstm-layers", "1", "--batch-size", "4",
        "--max-iterations", "12", "--eval-every", "6", "--dropout", "0.0",
        "--seed", "1",
    ]) == EXIT_OK
    return work


@pytest.fixture(scope="module")
def two_layer(pipeline, tmp_path_factory):
    """A copy of ``pipeline`` whose 3L bundle has two LSTM layers per level."""
    work = tmp_path_factory.mktemp("two_layer") / "work"
    shutil.copytree(pipeline, work)
    assert main([
        "train", "--work-dir", str(work), "--variant", "3L", "--hidden-size", "4",
        "--lstm-layers", "2", "--batch-size", "4", "--max-iterations", "2", "--eval-every", "2",
    ]) == EXIT_OK
    return work


@pytest.fixture(scope="module")
def every_variant(tmp_path_factory):
    """A work directory with a tiny bundle of every variant."""
    root = tmp_path_factory.mktemp("variants")
    write_corpus(root / "corpus", n_pieces=6)
    work = root / "work"
    assert ingest(root / "corpus", work) == EXIT_OK
    assert main(["profiles", "--work-dir", str(work), "--beat-k", "2", "--bar-k", "2"]) == EXIT_OK
    for variant in ("1L", "2L", "3L"):
        assert main([
            "train", "--work-dir", str(work), "--variant", variant, *TINY_TRAIN,
        ]) == EXIT_OK
    return work


def damaged_copy(work, tmp_path, name, damage):
    """A copy of ``work`` whose file ``name`` holds ``damage(text)``."""
    copy = tmp_path / "work"
    shutil.copytree(work, copy)
    path = copy / name
    path.write_text(damage(path.read_text()))
    return copy


def edited_json(edit):
    """A ``damage`` for :func:`damaged_copy` that edits a JSON object."""
    def damage(text):
        obj = json.loads(text)
        edit(obj)
        return json.dumps(obj)

    return damage


class TestIngest:
    def test_artifacts_and_split(self, pipeline):
        manifest = json.loads((pipeline / "manifest.json").read_text())
        assert manifest["scanned"] == N_PIECES
        assert manifest["accepted"] == N_PIECES
        assert len(manifest["train_ids"]) + len(manifest["validation_ids"]) == N_PIECES
        assert len(manifest["validation_ids"]) == 1  # round(12 * 0.1)
        assert "config_hash" in manifest and len(manifest["config_hash"]) == 16
        cached = list((pipeline / "leadsheets").glob("*.json"))
        assert len(cached) == N_PIECES

    def test_empty_corpus_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "corpus"
        empty.mkdir()
        code = main(["ingest", "--corpus-dir", str(empty), "--work-dir", str(tmp_path / "w")])
        assert code == EXIT_EMPTY
        assert "no pieces" in capsys.readouterr().err

    def test_missing_corpus_dir_exits_two(self, tmp_path):
        code = main([
            "ingest", "--corpus-dir", str(tmp_path / "nope"),
            "--work-dir", str(tmp_path / "w"),
        ])
        assert code == EXIT_EMPTY

    def test_counts_are_printed(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, n_pieces=3)
        main(["ingest", "--corpus-dir", str(corpus), "--work-dir", str(tmp_path / "w")])
        out = capsys.readouterr().out
        assert "scanned   3" in out
        assert "accepted  3" in out
        assert "split" in out


class TestEncodedAtIngest:
    def test_stored_grids_equal_a_fresh_encoding(self, tmp_path):
        corpus, work = tmp_path / "corpus", tmp_path / "work"
        write_mixed_corpus(corpus)
        assert ingest(corpus, work) == EXIT_OK
        manifest = json.loads((work / "manifest.json").read_text())
        assert manifest["accepted"] == 10
        text = (work / "grids.json").read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert doc["config_hash"] == manifest["config_hash"]
        assert sorted(doc["pieces"]) == manifest["accepted_ids"]
        for piece_id in manifest["accepted_ids"]:
            cached = (work / "leadsheets" / f"{piece_id}.json").read_text()
            normalized = normalize_sheet(loads_leadsheet(cached))
            entry = doc["pieces"][piece_id]
            assert entry["events"] == list(grid_encode(normalized).events), piece_id
            assert entry["chords"] == [chord_to_dict(c) for c in normalized.chords], piece_id

    def test_later_stages_read_no_lead_sheet(self, tmp_path):
        corpus, work = tmp_path / "corpus", tmp_path / "work"
        write_corpus(corpus, n_pieces=6)
        assert ingest(corpus, work) == EXIT_OK
        for cached in (work / "leadsheets").glob("*.json"):
            cached.unlink()
        assert main(["profiles", "--work-dir", str(work), "--beat-k", "2", "--bar-k", "2"]) == EXIT_OK
        assert main(["train", "--work-dir", str(work), "--chords", *TINY_TRAIN]) == EXIT_OK
        assert main(["eval", "--work-dir", str(work), "--adherence-samples", "1"]) == EXIT_OK
        assert main(["generate", "--work-dir", str(work), "--bars", "1"]) == EXIT_OK

    @pytest.mark.parametrize("damage,named", [
        ("delete file", "grids.json"),
        ("drop piece", "synthetic-0000"),
        ("event outside alphabet", "synthetic-0000"),
        ("note-off in silence", "synthetic-0000"),
        ("events not a list", "synthetic-0000"),
        ("chord root outside its chroma", "synthetic-0000"),
        ("entry not an object", "synthetic-0000"),
        ("not JSON", "grids.json"),
    ])
    def test_damaged_grids_exit_one_naming_what(self, tmp_path, capsys, damage, named):
        corpus, work = tmp_path / "corpus", tmp_path / "work"
        write_corpus(corpus, n_pieces=6)
        assert ingest(corpus, work) == EXIT_OK
        manifest = json.loads((work / "manifest.json").read_text())
        assert "synthetic-0000" in manifest["train_ids"]
        path = work / "grids.json"
        doc = json.loads(path.read_text())
        entry = doc["pieces"]["synthetic-0000"]
        if damage == "delete file":
            path.unlink()
        elif damage == "not JSON":
            path.write_text("{")
        else:
            if damage == "drop piece":
                del doc["pieces"]["synthetic-0000"]
            elif damage == "event outside alphabet":
                entry["events"][0] = 38
            elif damage == "note-off in silence":
                entry["events"] = [36] + [37] * 15
            elif damage == "events not a list":
                entry["events"] = "0,37"
            elif damage == "chord root outside its chroma":
                entry["chords"] = [{"onset_step": 0, "root": 1, "chroma": [0, 4, 7]}]
            elif damage == "entry not an object":
                doc["pieces"]["synthetic-0000"] = 3
            path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["profiles", "--work-dir", str(work), "--beat-k", "2", "--bar-k", "2"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert named in err and "melodygen ingest" in err

    @pytest.mark.parametrize("bars", [0, cli.MAX_BARS + 1])
    def test_stored_grid_outside_the_bar_bound_names_the_piece(self, tmp_path, capsys, bars):
        corpus, work = tmp_path / "corpus", tmp_path / "work"
        write_corpus(corpus, n_pieces=6)
        assert ingest(corpus, work) == EXIT_OK
        piece = json.loads((work / "manifest.json").read_text())["train_ids"][0]
        path = work / "grids.json"
        doc = json.loads(path.read_text())
        doc["pieces"][piece]["events"] = [37] * 16 * bars
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["train", "--work-dir", str(work), "--variant", "1L", *TINY_TRAIN])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {path}: piece {piece!r} is malformed: a grid holds 1 to {cli.MAX_BARS} "
            f"bars, not {bars}; re-run `melodygen ingest`\n"
        )

    @pytest.mark.parametrize("damage, named", [
        (lambda doc: doc.update(schema=2), "not a schema-1 grids document"),
        (lambda doc: doc.update(pieces=[]), "field 'pieces' must be an object"),
        (lambda doc: doc["pieces"]["synthetic-0000"].update(chords={}),
         "piece 'synthetic-0000' is malformed: field 'chords' must be a list"),
        (lambda doc: doc["pieces"]["synthetic-0000"].update(chords=[
            {"onset_step": 4, "root": 0, "chroma": [0, 4, 7]},
            {"onset_step": 0, "root": 7, "chroma": [2, 7, 11]},
        ]), "piece 'synthetic-0000' is malformed: chords must be strictly sorted by onset_step"),
    ], ids=["schema 2", "pieces a list", "chords an object", "chords out of order"])
    def test_damaged_grids_document_exits_one_naming_what(self, tmp_path, capsys, damage, named):
        corpus, work = tmp_path / "corpus", tmp_path / "work"
        write_corpus(corpus, n_pieces=6)
        assert ingest(corpus, work) == EXIT_OK
        assert "synthetic-0000" in json.loads((work / "manifest.json").read_text())["train_ids"]
        path = work / "grids.json"
        doc = json.loads(path.read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["profiles", "--work-dir", str(work), "--beat-k", "2", "--bar-k", "2"])
        assert code == EXIT_ERROR
        assert f"error: {path}: {named}; re-run `melodygen ingest`" in capsys.readouterr().err

    def test_unencodable_piece_is_rejected_by_id(self, tmp_path, capsys):
        corpus, work = tmp_path / "corpus", tmp_path / "work"
        write_corpus(corpus, n_pieces=8)
        (corpus / "overlap.json").write_text(dumps_leadsheet(overlapping_piece()))
        assert ingest(corpus, work) == EXIT_OK
        assert "unencodable: 1" in capsys.readouterr().out
        manifest = json.loads((work / "manifest.json").read_text())
        rejection = manifest["rejections"]["overlap"]
        assert rejection["reason"] == "unencodable"
        assert "notes overlap after quantization" in rejection["detail"]
        assert manifest["accepted"] == 8
        assert "overlap" not in manifest["train_ids"] + manifest["validation_ids"]
        assert "overlap" not in json.loads((work / "grids.json").read_text())["pieces"]
        assert main(["profiles", "--work-dir", str(work), "--beat-k", "2", "--bar-k", "2"]) == EXIT_OK
        assert main(["train", "--work-dir", str(work), *TINY_TRAIN]) == EXIT_OK

    def test_hash_names_the_corpus_not_its_directory(self, tmp_path):
        artifacts = {}
        for name in ("a", "b", "edited"):
            corpus = tmp_path / name / "corpus"
            write_corpus(corpus, n_pieces=6)
            if name == "edited":
                path = corpus / "synthetic-0003.json"
                sheet = loads_leadsheet(path.read_text())
                first = sheet.notes[0]
                pitch = first.midi_pitch + (1 if first.midi_pitch < 127 else -1)
                moved = (RawNote(pitch, first.onset, first.duration),) + sheet.notes[1:]
                path.write_text(dumps_leadsheet(dataclasses.replace(sheet, notes=moved)))
            work = tmp_path / name / "work"
            assert ingest(corpus, work) == EXIT_OK
            artifacts[name] = [(work / f).read_bytes() for f in ("manifest.json", "grids.json")]
        assert artifacts["a"] == artifacts["b"]
        hashes = {
            name: json.loads(manifest)["config_hash"]
            for name, (manifest, _) in artifacts.items()
        }
        assert hashes["edited"] != hashes["a"]


class TestProfiles:
    def test_codebooks_written(self, pipeline):
        beat = json.loads((pipeline / "beat_codebook.json").read_text())
        bar = json.loads((pipeline / "bar_codebook.json").read_text())
        assert beat["kind"] == "beat" and len(beat["centroids"]) == 3
        assert bar["kind"] == "bar" and len(bar["centroids"]) == 2

    def test_elbow_report_written(self, pipeline):
        elbow = json.loads((pipeline / "elbow.json").read_text())
        ks = [row["k"] for row in elbow["beat"]]
        assert ks == [1, 2, 3, 4]
        wcss = [row["wcss"] for row in elbow["beat"]]
        assert all(a >= b - 1e-9 for a, b in zip(wcss, wcss[1:]))
        assert "config_hash" in elbow

    def test_requires_ingest_first(self, tmp_path, capsys):
        code = main(["profiles", "--work-dir", str(tmp_path / "w")])
        assert code == EXIT_ERROR
        assert "melodygen ingest" in capsys.readouterr().err

    def test_manifest_without_split_names_the_file(self, pipeline, tmp_path, capsys):
        work = damaged_copy(
            pipeline, tmp_path, "manifest.json", edited_json(lambda m: m.pop("train_ids"))
        )
        capsys.readouterr()
        assert main(["profiles", "--work-dir", str(work)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"{work / 'manifest.json'}: no train_ids list" in err
        assert "melodygen ingest" in err

    def test_bad_elbow_argument_exits_two(self, pipeline):
        assert main([
            "profiles", "--work-dir", str(pipeline), "--elbow", "banana",
        ]) == EXIT_EMPTY

    def test_elbow_range_out_of_order_exits_two(self, pipeline, capsys):
        code = main(["profiles", "--work-dir", str(pipeline), "--elbow", "5:3"])
        assert code == EXIT_EMPTY
        assert "argument --elbow: expected 1 <= LOW <= HIGH" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["profiles", "train"])
    def test_empty_training_split_exits_two(self, pipeline, tmp_path, capsys, command):
        work = damaged_copy(
            pipeline, tmp_path, "manifest.json", edited_json(lambda m: m.update(train_ids=[]))
        )
        capsys.readouterr()
        assert main([command, "--work-dir", str(work)]) == EXIT_EMPTY
        assert capsys.readouterr().err == "error: the training split is empty\n"


class TestTrain:
    def test_bundle_layout(self, pipeline):
        bundle = pipeline / "model" / "3L"
        names = {p.name for p in bundle.iterdir()}
        assert {
            "manifest.json", "bar.ckpt", "beat.ckpt", "note.ckpt",
            "beat_codebook.json", "bar_codebook.json",
            "curves_bar.csv", "curves_beat.csv", "curves_note.csv",
        } <= names
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["variant"] == "3L"
        assert len(manifest["metadata"]["config_hash"]) == 16

    def test_curves_carry_the_stamp_and_rows(self, pipeline):
        text = (pipeline / "model" / "3L" / "curves_note.csv").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# tool_version=")
        assert "config_hash=" in lines[0]
        header = lines[1].split(",")
        assert "iteration" in header and "train_loss" in header
        iterations = [int(line.split(",")[0]) for line in lines[2:]]
        assert iterations == [6, 12]

    def test_truncated_codebook_names_the_file(self, pipeline, tmp_path, capsys):
        work = damaged_copy(pipeline, tmp_path, "beat_codebook.json", lambda text: text[:20])
        capsys.readouterr()
        assert main(["train", "--work-dir", str(work), *TINY_TRAIN]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"{work / 'beat_codebook.json'}: " in err
        assert "melodygen profiles" in err

    @pytest.mark.parametrize("damage, problem", [
        ("beat codebook", "the bar codebook holds beat profiles"),
        ("k 99", "k is 99, but the codebook holds 2 centroids"),
    ])
    def test_codebook_of_another_shape_names_the_file(
        self, pipeline, tmp_path, capsys, damage, problem
    ):
        beat = (pipeline / "beat_codebook.json").read_text()
        work = damaged_copy(
            pipeline, tmp_path, "bar_codebook.json",
            (lambda text: beat) if damage == "beat codebook"
            else edited_json(lambda book: book.update(k=99)),
        )
        capsys.readouterr()
        assert main(["train", "--work-dir", str(work), *TINY_TRAIN]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"{work / 'bar_codebook.json'}: {problem}; re-run `melodygen profiles`" in err

    @pytest.mark.parametrize("variant, files", [
        ("1L", {"manifest.json", "note.ckpt"}),
        ("2L", {"manifest.json", "note.ckpt", "beat.ckpt", "beat_codebook.json"}),
        ("3L", {
            "manifest.json", "note.ckpt", "beat.ckpt", "beat_codebook.json",
            "bar.ckpt", "bar_codebook.json",
        }),
    ])
    def test_bundle_holds_exactly_its_variant(self, every_variant, variant, files):
        bundle = every_variant / "model" / variant
        levels = {name.split(".")[0] for name in files if name.endswith(".ckpt")}
        curves = {f"curves_{level}.csv" for level in levels}
        assert {p.name for p in bundle.iterdir()} == files | curves
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert set(manifest["levels"]) == levels
        assert set(manifest["codebooks"]) == levels - {"note"}

    def test_note_level_trains_first_with_no_other_level_held(
        self, pipeline, tmp_path, capsys, monkeypatch
    ):
        work = tmp_path / "work"
        shutil.copytree(pipeline, work)
        real, trained, held = cli.train_layer, [], {}

        def tracked(spec, *args, **kwargs):
            held[spec.level] = [level for level, ref in trained if ref() is not None]
            result = real(spec, *args, **kwargs)
            trained.append((spec.level, weakref.ref(result.params)))
            return result

        monkeypatch.setattr(cli, "train_layer", tracked)
        capsys.readouterr()
        assert main(["train", "--work-dir", str(work), *TINY_TRAIN]) == EXIT_OK
        assert held == {"note": [], "beat": ["note"], "bar": ["note", "beat"]}
        printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert printed[:3] == ["note", "beat", "bar"]

    def test_grids_are_read_once(self, pipeline, tmp_path, monkeypatch):
        work = tmp_path / "work"
        shutil.copytree(pipeline, work)
        real, reads = cli.loads_grids, []

        def counted(data, ids):
            reads.append(list(ids))
            return real(data, ids)

        monkeypatch.setattr(cli, "loads_grids", counted)
        assert main(["train", "--work-dir", str(work), *TINY_TRAIN]) == EXIT_OK
        manifest = json.loads((work / "manifest.json").read_text())
        assert reads == [manifest["train_ids"] + manifest["validation_ids"]]

    def test_one_piece_trains_without_validation(self, tmp_path, capsys):
        corpus, work = tmp_path / "corpus", tmp_path / "work"
        write_corpus(corpus, n_pieces=1)
        assert ingest(corpus, work) == EXIT_OK
        capsys.readouterr()
        assert main(["train", "--work-dir", str(work), "--variant", "1L", *TINY_TRAIN]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "note: 2 iterations (max-iterations)"

    def test_codebook_of_another_schema_names_the_file(self, pipeline, tmp_path, capsys):
        work = damaged_copy(
            pipeline, tmp_path, "beat_codebook.json", edited_json(lambda c: c.update(schema=2))
        )
        capsys.readouterr()
        assert main(["train", "--work-dir", str(work), *TINY_TRAIN]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {work / 'beat_codebook.json'}: unsupported codebook schema 2; "
            "re-run `melodygen profiles`\n"
        )

    @pytest.mark.parametrize("field, value, kind", [
        ("k", 3.0, "float"),
        ("seed", "x", "str"),
        ("seed", True, "bool"),
        ("iterations", 2.5, "float"),
        ("wcss", "abc", "str"),
    ])
    def test_codebook_field_of_another_type_names_the_file(
        self, pipeline, tmp_path, capsys, field, value, kind
    ):
        work = damaged_copy(pipeline, tmp_path, "beat_codebook.json",
                            edited_json(lambda book: book.update({field: value})))
        capsys.readouterr()
        argv = ["train", "--work-dir", str(work), "--variant", "2L", *TINY_TRAIN]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {work / 'beat_codebook.json'}: field '{field}' has wrong type {kind}; "
            "re-run `melodygen profiles`\n"
        )
        assert not (work / "model" / "2L").exists()

    def test_1L_needs_no_profiles(self, tmp_path):
        corpus, work = tmp_path / "corpus", tmp_path / "work"
        write_corpus(corpus, n_pieces=3)
        assert ingest(corpus, work) == EXIT_OK
        assert main(["train", "--work-dir", str(work), "--variant", "1L", *TINY_TRAIN]) == EXIT_OK
        assert not (work / "beat_codebook.json").exists()

    def test_requires_profiles_first(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, n_pieces=3)
        work = tmp_path / "work"
        main(["ingest", "--corpus-dir", str(corpus), "--work-dir", str(work)])
        code = main(["train", "--work-dir", str(work)])
        assert code == EXIT_ERROR
        assert "melodygen profiles" in capsys.readouterr().err


class TestGenerate:
    def test_writes_midi_and_trace(self, pipeline):
        code = main([
            "generate", "--work-dir", str(pipeline), "--variant", "3L",
            "--bars", "2", "--seed", "9",
        ])
        assert code == EXIT_OK
        midi_path = pipeline / "generated" / "melody_9.mid"
        trace_path = pipeline / "generated" / "melody_9.json"
        assert midi_path.exists() and trace_path.exists()
        parsed = read_midi(midi_path.read_bytes())
        assert parsed.format == 0 and parsed.division == 480
        assert parsed.notes  # something audible came out
        assert any("config" in text for text in parsed.texts)
        trace = json.loads(trace_path.read_text())
        assert trace["plan"]["bars"] == 2
        assert len(trace["levels"]["note"]["events"]) == 32
        assert len(trace["config_hash"]) == 16
        manifest = json.loads((pipeline / "manifest.json").read_text())
        assert trace["primer_piece"] in manifest["validation_ids"]  # drawn from the seed

    def test_same_seed_same_bytes(self, pipeline, tmp_path):
        outs = []
        for name in ("a.mid", "b.mid"):
            out = tmp_path / name
            assert main([
                "generate", "--work-dir", str(pipeline), "--bars", "2",
                "--seed", "33", "--out", str(out),
            ]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_different_seeds_differ(self, pipeline, tmp_path):
        melodies = []
        for seed in ("101", "102"):
            out = tmp_path / f"{seed}.mid"
            main([
                "generate", "--work-dir", str(pipeline), "--bars", "2",
                "--seed", seed, "--out", str(out),
            ])
            melodies.append(out.read_bytes())
        assert melodies[0] != melodies[1]

    def test_beam_mode(self, pipeline, tmp_path):
        out = tmp_path / "beam.mid"
        assert main([
            "generate", "--work-dir", str(pipeline), "--bars", "2",
            "--mode", "beam", "--beam-width", "2", "--out", str(out),
        ]) == EXIT_OK
        assert out.exists()

    def test_fixed_beat_profiles_tile(self, pipeline, tmp_path):
        out = tmp_path / "fixed.mid"
        assert main([
            "generate", "--work-dir", str(pipeline), "--bars", "2",
            "--fixed-beat-profiles", "0,1", "--out", str(out), "--seed", "3",
        ]) == EXIT_OK
        trace = json.loads(out.with_suffix(".json").read_text())
        assert trace["levels"]["beat"] == {"fixed": [0, 1, 0, 1, 0, 1, 0, 1]}

    def test_fixed_profile_out_of_range_exits_two(self, pipeline, capsys):
        code = main([
            "generate", "--work-dir", str(pipeline), "--bars", "2",
            "--fixed-beat-profiles", "7",
        ])
        assert code == EXIT_EMPTY
        assert "outside codebook" in capsys.readouterr().err

    @pytest.mark.parametrize("value, problem", [
        ("a", "must be a comma-separated list of integers"),
        (",", "is empty"),
    ])
    def test_fixed_profiles_without_an_integer_exit_two(self, pipeline, capsys, value, problem):
        code = main([
            "generate", "--work-dir", str(pipeline), "--bars", "2",
            "--fixed-beat-profiles", value,
        ])
        assert code == EXIT_EMPTY
        assert capsys.readouterr().err == f"error: --fixed-beat-profiles {problem}\n"

    @pytest.mark.parametrize("variant, level", [("1L", "bar"), ("1L", "beat"), ("2L", "bar")])
    def test_fixed_profiles_of_a_missing_level_exit_two(
        self, every_variant, tmp_path, capsys, monkeypatch, variant, level
    ):
        def decode(*args, **kwargs):
            raise AssertionError("decoded despite an invalid option")

        monkeypatch.setattr("melodygen.cli.generate", decode)
        out = tmp_path / "out.mid"
        code = main([
            "generate", "--work-dir", str(every_variant), "--variant", variant,
            "--bars", "2", f"--fixed-{level}-profiles", "0", "--out", str(out),
        ])
        assert code == EXIT_EMPTY
        err = capsys.readouterr().err
        assert f"--fixed-{level}-profiles" in err and f"no {level} level" in err
        assert not out.exists()

    def test_primer_piece_must_exist(self, pipeline, capsys):
        code = main([
            "generate", "--work-dir", str(pipeline), "--bars", "2",
            "--primer-piece", "not-a-piece",
        ])
        assert code == EXIT_EMPTY

    def test_primer_piece_is_used(self, pipeline, tmp_path):
        manifest = json.loads((pipeline / "manifest.json").read_text())
        piece_id = manifest["train_ids"][0]
        out = tmp_path / "primed.mid"
        assert main([
            "generate", "--work-dir", str(pipeline), "--bars", "2",
            "--primer-piece", piece_id, "--out", str(out), "--seed", "4",
        ]) == EXIT_OK
        trace = json.loads(out.with_suffix(".json").read_text())
        assert trace["primer_piece"] == piece_id

    def test_tempo_flag_lands_in_the_file(self, pipeline, tmp_path):
        out = tmp_path / "slow.mid"
        main([
            "generate", "--work-dir", str(pipeline), "--bars", "2",
            "--tempo", "90", "--out", str(out), "--seed", "8",
        ])
        assert read_midi(out.read_bytes()).tempo_us == 666666

    def test_missing_model_exits_one(self, pipeline, capsys):
        code = main([
            "generate", "--work-dir", str(pipeline), "--variant", "1L", "--bars", "2",
        ])
        assert code == EXIT_ERROR
        assert "melodygen train" in capsys.readouterr().err


class TestEval:
    def test_metrics_file(self, pipeline):
        code = main([
            "eval", "--work-dir", str(pipeline), "--variant", "3L",
            "--adherence-samples", "2", "--seed", "2",
        ])
        assert code == EXIT_OK
        metrics = json.loads((pipeline / "metrics_3L.json").read_text())
        assert set(metrics["levels"]) == {"bar", "beat", "note"}
        note = metrics["levels"]["note"]
        assert {"loss", "combined_accuracy", "no_event_accuracy", "event_accuracy"} <= set(note)
        assert "combined_accuracy" in metrics["levels"]["bar"]
        assert "no_event_accuracy" not in metrics["levels"]["bar"]
        assert metrics["pieces"] == 1  # validation split of a 12-piece corpus
        assert "generation_adherence" in metrics
        assert len(metrics["config_hash"]) == 16

    def test_missing_model_exits_one(self, pipeline):
        assert main(["eval", "--work-dir", str(pipeline), "--variant", "2L"]) == EXIT_ERROR

    @pytest.mark.parametrize("variant, edit, named", [
        ("3L", lambda m: m["levels"]["bar"].pop("checkpoint"), "the bar level"),
        ("2L", lambda m: m["codebooks"].update(bar="../../bar_codebook.json"), "['bar']"),
    ], ids=["level without checkpoint", "codebook of a level the variant lacks"])
    def test_bundle_off_its_variant_exits_one(
        self, every_variant, tmp_path, capsys, variant, edit, named
    ):
        work = damaged_copy(
            every_variant, tmp_path, f"model/{variant}/manifest.json", edited_json(edit)
        )
        capsys.readouterr()
        assert main(["eval", "--work-dir", str(work), "--variant", variant]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert named in err and "manifest.json" in err and "melodygen train" in err
        assert not (work / f"metrics_{variant}.json").exists()

    def test_bundle_without_a_manifest_hash_exits_one(self, pipeline, tmp_path, capsys):
        work = damaged_copy(pipeline, tmp_path, "model/3L/manifest.json",
                            edited_json(lambda m: m["metadata"].pop("manifest_sha256")))
        capsys.readouterr()
        for command in ("eval", "generate"):
            assert main([command, "--work-dir", str(work)]) == EXIT_ERROR
            assert "melodygen train --variant 3L" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, problem", [
        (["--variant", "1L", "--temperature", "-5"], "temperature must be >= 0"),
        (["--variant", "3L", "--adherence-samples", "0", "--temperature", "nan"],
         "temperature must be finite, got nan"),
    ], ids=["1L", "no adherence samples"])
    def test_temperature_is_checked_without_adherence_generations(
        self, every_variant, capsys, argv, problem
    ):
        capsys.readouterr()
        assert main(["eval", "--work-dir", str(every_variant), *argv]) == EXIT_EMPTY
        assert capsys.readouterr().err == f"error: {problem}\n"

    @pytest.mark.parametrize("value", [0, "no", None])
    def test_manifest_chords_of_another_type_names_the_file(
        self, pipeline, tmp_path, capsys, value
    ):
        work = damaged_copy(pipeline, tmp_path, "model/3L/manifest.json",
                            edited_json(lambda manifest: manifest.update(chords=value)))
        capsys.readouterr()
        assert main(["eval", "--work-dir", str(work), "--variant", "3L"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {work / 'model' / '3L' / 'manifest.json'}: field 'chords' must be true "
            f"or false, not {type(value).__name__}; re-run `melodygen train --variant 3L`\n"
        )

    def test_failed_adherence_generation_is_recorded(self, pipeline, capsys, monkeypatch):
        def reject(*args, **kwargs):
            raise ValueError("primer event outside the layer alphabet")

        monkeypatch.setattr("melodygen.cli.generate", reject)
        code = main([
            "eval", "--work-dir", str(pipeline), "--variant", "3L",
            "--adherence-samples", "2", "--seed", "2",
        ])
        assert code == EXIT_OK
        metrics = json.loads((pipeline / "metrics_3L.json").read_text())
        error = metrics["generation_adherence"]["error"]
        assert "seed 2" in error and "outside the layer alphabet" in error
        assert error in capsys.readouterr().err


class TestSplitCheck:
    def test_bundle_of_another_split_exits_one(self, tmp_path, capsys):
        corpus, work = tmp_path / "corpus", tmp_path / "work"
        write_corpus(corpus, n_pieces=20)
        assert ingest(corpus, work, "--seed", "1") == EXIT_OK
        trained_on = (work / "manifest.json").read_bytes()
        assert main(["train", "--work-dir", str(work), "--variant", "1L", *TINY_TRAIN]) == EXIT_OK
        argv = {
            "eval": ["eval", "--work-dir", str(work), "--variant", "1L"],
            "generate": ["generate", "--work-dir", str(work), "--variant", "1L", "--bars", "1"],
        }
        assert ingest(corpus, work, "--seed", "2") == EXIT_OK
        resplit = json.loads((work / "manifest.json").read_text())
        assert resplit["validation_ids"] != json.loads(trained_on)["validation_ids"]
        capsys.readouterr()
        for command, args in argv.items():
            assert main(args) == EXIT_ERROR, command
            err = capsys.readouterr().err
            assert str(work / "manifest.json") in err and str(work / "model" / "1L") in err
            assert "melodygen train --variant 1L" in err
        assert not (work / "metrics_1L.json").exists()
        assert not (work / "generated").exists()

        assert ingest(corpus, work, "--seed", "1") == EXIT_OK
        assert (work / "manifest.json").read_bytes() == trained_on
        for command, args in argv.items():
            assert main(args) == EXIT_OK, command


class TestInvalidOptionValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--bars=0"),
            ("generate", f"--bars={cli.MAX_BARS + 1}"),
            ("generate", "--bars=1000000"),
            ("generate", "--beam-width=0"),
            ("generate", f"--beam-width={cli.MAX_BEAM_WIDTH + 1}"),
            ("generate", "--beam-width=1000000"),
            ("generate", "--temperature=-1"),
            ("generate", "--temperature=nan"),
            ("generate", "--temperature=inf"),
            ("train", "--max-iterations=0"),
            ("train", "--dropout=1.5"),
            ("train", "--batch-size=0"),
            ("train", "--hidden-size=0"),
            ("train", "--lstm-layers=0"),
            ("profiles", "--beat-k=0"),
            ("profiles", "--bar-k=0"),
            ("eval", "--temperature=-1"),
            ("eval", "--adherence-samples=-1"),
            ("generate", "--tempo=0"),
            ("export-midi", "--tempo=0"),
        ],
        ids=" ".join,
    )
    def test_exits_two_naming_the_option(self, pipeline, tmp_path, capsys, argv):
        command, option = argv
        out = tmp_path / "out.mid"
        if command == "export-midi":
            source = ["--leadsheet", str(next((pipeline / "leadsheets").glob("*.json")))]
        else:
            source = ["--work-dir", str(pipeline)]
        writes = ["--out", str(out)] if command in ("generate", "export-midi") else []
        assert main([command, *source, *writes, option]) == EXIT_EMPTY
        err = capsys.readouterr().err.replace("_", "-").replace(" ", "-")
        assert option.split("=")[0].lstrip("-") in err
        assert not out.exists()

    def test_bars_and_beam_width_take_their_bounds(self):
        args = build_parser().parse_args([
            "generate", "--work-dir", "w", f"--bars={cli.MAX_BARS}",
            f"--beam-width={cli.MAX_BEAM_WIDTH}",
        ])
        assert (args.bars, args.beam_width) == (cli.MAX_BARS, cli.MAX_BEAM_WIDTH)


class TestExportMidi:
    def test_renders_cached_leadsheet(self, pipeline, tmp_path):
        source = next(iter((pipeline / "leadsheets").glob("*.json")))
        out = tmp_path / "piece.mid"
        assert main([
            "export-midi", "--leadsheet", str(source), "--out", str(out),
        ]) == EXIT_OK
        parsed = read_midi(out.read_bytes())
        assert parsed.notes

    def test_sustain_lengthens_notes(self, pipeline, tmp_path):
        source = next(iter((pipeline / "leadsheets").glob("*.json")))
        plain = tmp_path / "plain.mid"
        sustained = tmp_path / "sustained.mid"
        main(["export-midi", "--leadsheet", str(source), "--out", str(plain)])
        main(["export-midi", "--leadsheet", str(source), "--sustain", "--out", str(sustained)])
        total = lambda path: sum(
            n.end_tick - n.start_tick for n in read_midi(path.read_bytes()).notes
        )
        assert total(sustained) >= total(plain)

    def test_missing_file_exits_two(self, tmp_path):
        code = main(["export-midi", "--leadsheet", str(tmp_path / "ghost.json")])
        assert code == EXIT_EMPTY


def snapshot(directory):
    """Every file under ``directory`` by relative path, with its bytes."""
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def temp_paths(directory):
    return list(directory.rglob(".*"))


def mode(path):
    return stat.S_IMODE(path.stat().st_mode)


class TestStagesReplaceOutputsWhole:
    def test_failed_ingest_writes_nothing(self, tmp_path, capsys):
        corpus, work, empty = tmp_path / "corpus", tmp_path / "work", tmp_path / "empty"
        write_corpus(corpus, n_pieces=4)
        empty.mkdir()
        assert ingest(corpus, work) == EXIT_OK
        before = snapshot(work)
        capsys.readouterr()
        assert ingest(empty, work) == EXIT_EMPTY
        assert "scanned   0" in capsys.readouterr().out
        assert snapshot(work) == before
        assert temp_paths(work) == []

    @pytest.mark.parametrize("command, missing", [
        ("profiles", "manifest.json"),
        ("train", "manifest.json"),
        ("eval", "model/3L/manifest.json"),
        ("generate", "model/3L/manifest.json"),
    ])
    def test_read_only_commands_create_nothing(self, tmp_path, capsys, command, missing):
        work = tmp_path / "typo" / "deeper"
        assert main([command, "--work-dir", str(work)]) == EXIT_ERROR
        assert f"missing {work / missing}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_train_leaves_the_old_bundle(self, pipeline, tmp_path, capsys, monkeypatch):
        work = tmp_path / "work"
        shutil.copytree(pipeline, work)
        before = snapshot(work / "model" / "3L")
        real = cli.train_layer

        def fail_at_note(spec, *args, **kwargs):
            if spec.level == "note":
                raise RuntimeError("note training failed")
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(cli, "train_layer", fail_at_note)
        assert main(["train", "--work-dir", str(work), "--seed", "9", *TINY_TRAIN]) == EXIT_ERROR
        assert "note training failed" in capsys.readouterr().err
        assert snapshot(work / "model" / "3L") == before
        assert temp_paths(work) == []

    def test_reingest_keeps_exactly_the_accepted_pieces(self, tmp_path):
        work = tmp_path / "work"
        write_corpus(tmp_path / "large", n_pieces=6)
        write_corpus(tmp_path / "small", n_pieces=6, seed=8)
        for sheet in sorted((tmp_path / "small").glob("*.json"))[3:]:
            sheet.unlink()
        assert ingest(tmp_path / "large", work) == EXIT_OK
        assert ingest(tmp_path / "small", work) == EXIT_OK
        manifest = json.loads((work / "manifest.json").read_text())
        assert manifest["accepted"] == 3
        cached = sorted(p.stem for p in (work / "leadsheets").glob("*.json"))
        assert cached == manifest["accepted_ids"]
        assert temp_paths(work) == []

    def test_reingesting_the_lead_sheets_keeps_their_bytes(self, tmp_path):
        corpus, work = tmp_path / "corpus", tmp_path / "work"
        write_mixed_corpus(corpus)
        assert ingest(corpus, work) == EXIT_OK
        before = snapshot(work / "leadsheets")
        assert ingest(work / "leadsheets", work) == EXIT_OK
        assert snapshot(work / "leadsheets") == before
        assert temp_paths(work) == []

    def test_profiles_without_elbow_removes_the_old_report(self, pipeline, tmp_path):
        work = tmp_path / "work"
        shutil.copytree(pipeline, work)
        assert (work / "elbow.json").exists()
        assert main([
            "profiles", "--work-dir", str(work), "--beat-k", "3", "--bar-k", "2",
        ]) == EXIT_OK
        assert not (work / "elbow.json").exists()

    def test_failed_elbow_writes_no_codebook(self, pipeline, tmp_path, capsys):
        work = tmp_path / "work"
        shutil.copytree(pipeline, work)
        before = snapshot(work)
        assert main([
            "profiles", "--work-dir", str(work), "--beat-k", "2", "--bar-k", "2",
            "--elbow", "1:999",
        ]) == EXIT_ERROR
        assert "cannot form" in capsys.readouterr().err
        assert snapshot(work) == before

    def test_retraining_removes_files_the_bundle_does_not_list(self, tmp_path):
        corpus, work = tmp_path / "corpus", tmp_path / "work"
        write_corpus(corpus, n_pieces=3)
        assert ingest(corpus, work) == EXIT_OK
        (work / "model" / "1L").mkdir(parents=True)
        for name in ("beat_codebook.json", "bar_codebook.json"):
            (work / "model" / "1L" / name).write_text("{}")
        assert main(["train", "--work-dir", str(work), "--variant", "1L", *TINY_TRAIN]) == EXIT_OK
        assert {p.name for p in (work / "model" / "1L").iterdir()} == {
            "manifest.json", "note.ckpt", "curves_note.csv",
        }

    def test_artifact_modes_match_a_plain_write(self, every_variant, tmp_path):
        (tmp_path / "plain.json").write_text("{}")
        (tmp_path / "plain").mkdir()
        file_mode, dir_mode = (mode(tmp_path / name) for name in ("plain.json", "plain"))
        for name in ("manifest.json", "grids.json", "beat_codebook.json"):
            assert mode(every_variant / name) == file_mode, name
        for bundle in (every_variant / "model").iterdir():
            assert mode(bundle) == dir_mode, bundle.name
            for path in bundle.iterdir():
                assert mode(path) == file_mode, path
        assert mode(every_variant / "leadsheets") == dir_mode
        for path in (every_variant / "leadsheets").iterdir():
            assert mode(path) == file_mode, path


def without_key(key):
    """A bundle-file damage that drops ``key`` from a JSON object."""
    def damage(path):
        obj = json.loads(path.read_text())
        del obj[key]
        path.write_text(json.dumps(obj))

    return damage


def without_array(name):
    """A bundle-file damage that drops array ``name`` from a checkpoint."""
    def damage(path):
        arrays, meta = load_arrays(path)
        del arrays[name]
        save_arrays(path, arrays, meta)

    return damage


def with_json(value, *keys):
    """A bundle-file damage that puts ``value`` at the path ``keys`` in a
    JSON file, or in place of the whole document when no keys are given."""
    def damage(path):
        if not keys:
            path.write_text(json.dumps(value))
            return
        obj = json.loads(path.read_text())
        parent = obj
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path.write_text(json.dumps(obj))

    return damage


class TestReadErrorsNameTheFile:
    @pytest.mark.parametrize("name, damage", [
        ("manifest.json", without_key("levels")),
        ("bar_codebook.json", without_key("centroids")),
        ("note.ckpt", lambda path: path.unlink()),
        ("beat.ckpt", without_array("w_out")),
        ("manifest.json", with_json([])),
        ("manifest.json", with_json([], "levels")),
        ("manifest.json", with_json([], "codebooks")),
        ("manifest.json", with_json([], "levels", "beat")),
        ("bar_codebook.json", with_json([])),
    ], ids=["manifest without levels", "codebook without centroids", "missing checkpoint",
            "checkpoint without an array", "manifest is a list", "levels is a list",
            "codebooks is a list", "level entry is a list", "codebook is a list"])
    def test_bundle_file(self, pipeline, tmp_path, capsys, name, damage):
        work = tmp_path / "work"
        shutil.copytree(pipeline, work)
        path = work / "model" / "3L" / name
        damage(path)
        capsys.readouterr()
        assert main(["eval", "--work-dir", str(work)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert str(path) in err and "melodygen train --variant 3L`" in err

    def test_checkpoint_of_no_layers(self, pipeline, tmp_path, capsys):
        work = tmp_path / "work"
        shutil.copytree(pipeline, work)
        path = work / "model" / "3L" / "note.ckpt"
        arrays, meta = load_arrays(path)
        meta[CHECKPOINT_META_KEY]["n_layers"] = 0
        save_arrays(path, arrays, meta)
        capsys.readouterr()
        assert main(["eval", "--work-dir", str(work)]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {path}: at least one LSTM layer is required; "
            "re-run `melodygen train --variant 3L`\n"
        )

    @pytest.mark.parametrize("name, cut", [
        ("b_out", lambda array: array[:1]),
        ("w_out", lambda array: array[:-1]),
        ("lstm1.w_x", lambda array: array[: len(array) // 2]),
    ], ids=["one output bias", "projection one row short", "second layer half its inputs"])
    def test_checkpoint_of_mismatched_shapes(self, two_layer, tmp_path, capsys, name, cut):
        work = tmp_path / "work"
        shutil.copytree(two_layer, work)
        path = work / "model" / "3L" / "note.ckpt"
        arrays, meta = load_arrays(path)
        arrays[name] = cut(arrays[name])
        save_arrays(path, arrays, meta)
        capsys.readouterr()
        for command in ("generate", "eval"):
            assert main([command, "--work-dir", str(work), "--variant", "3L"]) == EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and err.endswith(
                "; re-run `melodygen train --variant 3L`\n"), err

    def test_lead_sheet(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"id": "bad"}')
        assert main(["export-midi", "--leadsheet", str(path)]) == EXIT_ERROR
        assert f"{path}: missing field 'schema'" in capsys.readouterr().err


class TestConfigFile:
    def test_config_fills_defaults_but_explicit_flags_win(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bars": 3, "temperature": 0.5, "seed": 55}))
        out = tmp_path / "c.mid"
        assert main([
            "generate", "--work-dir", str(pipeline), "--config", str(config),
            "--bars", "2", "--out", str(out),
        ]) == EXIT_OK
        trace = json.loads(out.with_suffix(".json").read_text())
        assert trace["plan"]["bars"] == 2  # explicit flag beat the config
        assert trace["plan"]["temperature"] == 0.5  # config beat the default
        assert trace["plan"]["seed"] == 55

    def test_dashed_keys_are_accepted(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"beam-width": 2, "mode": "beam"}))
        out = tmp_path / "d.mid"
        assert main([
            "generate", "--work-dir", str(pipeline), "--config", str(config),
            "--bars", "2", "--out", str(out),
        ]) == EXIT_OK
        trace = json.loads(out.with_suffix(".json").read_text())
        assert trace["plan"]["mode"] == "beam"
        assert trace["plan"]["beam_width"] == 2

    @pytest.mark.parametrize("config,named", [
        ({"bars": "eight"}, "--bars"),
        ({"barz": 3}, "barz"),
        ({"bars": True}, "bars"),
        ({"sustain": 1}, "sustain"),
        ({"out": None}, "out"),
    ])
    def test_bad_config_key_or_value_exits_two(self, pipeline, tmp_path, capsys, config, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main([
            "generate", "--work-dir", str(pipeline), "--config", str(path),
            "--bars", "2", "--out", str(tmp_path / "x.mid"),
        ])
        assert code == EXIT_EMPTY
        assert named in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        code = main(["ingest", "--corpus-dir", str(tmp_path), "--work-dir", str(tmp_path / "w"),
                     "--config", str(path)])
        assert code == EXIT_EMPTY
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file: ") and str(path) in err

    def test_config_without_a_value_exits_two(self, tmp_path, capsys):
        code = main(["ingest", "--corpus-dir", str(tmp_path), "--work-dir", str(tmp_path / "w"),
                     "--config"])
        assert code == EXIT_EMPTY
        assert "argument --config: expected one argument" in capsys.readouterr().err

    def test_config_may_give_a_required_option(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"work_dir": str(pipeline), "sustain": True}))
        out = tmp_path / "w.mid"
        assert main([
            "generate", "--config", str(config), "--bars", "2", "--out", str(out),
        ]) == EXIT_OK
        trace = json.loads(out.with_suffix(".json").read_text())
        assert trace["config"]["sustain"] is True

    def test_invalid_config_json_exits_two(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{broken")
        code = main([
            "generate", "--work-dir", str(pipeline), "--config", str(config),
            "--bars", "2",
        ])
        assert code == EXIT_EMPTY

    def test_config_must_be_an_object(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        code = main([
            "generate", "--work-dir", str(pipeline), "--config", str(config),
            "--bars", "2",
        ])
        assert code == EXIT_EMPTY


# Options that only say where files are read or written.
PATH_OPTIONS = {"--work-dir", "--corpus-dir", "--leadsheet", "--out", "--config"}
# A value other than the one in `stamp_argv` for every other option; None
# marks a flag, which the base run leaves off.
OTHER_VALUES = {
    "--seed": "1",
    "--beat-k": "3", "--bar-k": "3", "--elbow": "1:3",
    "--variant": "2L", "--chords": None, "--max-iterations": "3", "--batch-size": "3",
    "--dropout": "0.25", "--hidden-size": "5", "--lstm-layers": "2", "--eval-every": "1",
    "--patience": "4",
    "--bars": "2", "--mode": "beam", "--temperature": "0.5", "--beam-width": "2",
    "--primer-piece": "synthetic-0000", "--fixed-bar-profiles": "0",
    "--fixed-beat-profiles": "0", "--sustain": None, "--tempo": "90",
    "--adherence-samples": "2",
}


def command_options():
    """(command, option) for every option of every subcommand."""
    parser = build_parser()
    (commands,) = [
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return [
        (command, action.option_strings[0])
        for command, sub in commands.items()
        for action in sub._actions
        if action.option_strings and action.dest != "help"
    ]


def stamp_argv(command, root):
    """A run of ``command`` on the files under ``root`` that writes a stamp."""
    work, out = root / "work", root / "out" / "melody.mid"
    return {
        "ingest": ["--corpus-dir", root / "corpus", "--work-dir", root / "ingested"],
        "profiles": ["--work-dir", work, "--beat-k", "2", "--bar-k", "2", "--elbow", "1:2"],
        "train": ["--work-dir", work, *TINY_TRAIN],
        "eval": ["--work-dir", work, "--adherence-samples", "1"],
        "generate": ["--work-dir", work, "--bars", "1", "--out", out],
        "export-midi": ["--leadsheet", root / "piece.json", "--out", out],
    }[command]


def with_option(argv, option, value):
    """``argv`` with ``option`` set to ``value``, or with the flag when None."""
    if option in argv:
        at = argv.index(option) + 1
        return argv[:at] + [value] + argv[at + 1:]
    return argv + [option] + ([] if value is None else [value])


def moved_path(root, option, argv):
    """The same input or output as ``option``'s in ``argv``, at another path."""
    if option == "--config":
        (root / "empty.json").write_text("{}")
        return root / "empty.json"
    current = argv[argv.index(option) + 1]
    moved = root / "moved" / current.name
    if option in ("--work-dir", "--corpus-dir"):
        shutil.copytree(current, moved)
    elif option == "--leadsheet":
        moved.parent.mkdir()
        shutil.copy(current, moved)
    return moved


def stamped_hash(command, argv):
    """The config hash in the artifact a run of ``command`` with ``argv`` wrote."""
    def value(option, default=None):
        return argv[argv.index(option) + 1] if option in argv else default

    if command == "export-midi":
        (text,) = read_midi(value("--out").read_bytes()).texts
        return text.split()[-1]
    if command == "generate":
        return json.loads(value("--out").with_suffix(".json").read_text())["config_hash"]
    work, variant = value("--work-dir"), value("--variant", "3L")
    if command == "train":
        bundle = json.loads((work / "model" / variant / "manifest.json").read_text())
        return bundle["metadata"]["config_hash"]
    name = {"ingest": "manifest.json", "profiles": "elbow.json", "eval": f"metrics_{variant}.json"}
    return json.loads((work / name[command]).read_text())["config_hash"]


@pytest.fixture(scope="module")
def stamp_root(tmp_path_factory, pipeline):
    """The pipeline's corpus and work directory with a 2L bundle too, and a
    cached lead sheet."""
    root = tmp_path_factory.mktemp("stamp")
    shutil.copytree(pipeline.parent / "corpus", root / "corpus")
    shutil.copytree(pipeline, root / "work")
    shutil.copy(next((pipeline / "leadsheets").glob("*.json")), root / "piece.json")
    assert main(["train", "--work-dir", str(root / "work"), "--variant", "2L", *TINY_TRAIN]) == EXIT_OK
    return root


class TestConfigHashCoversTheOptions:
    @pytest.mark.parametrize("case", command_options(), ids=" ".join)
    def test_option_changes_the_hash_unless_a_path(self, stamp_root, tmp_path, case):
        command, option = case
        root = tmp_path / "root"
        shutil.copytree(stamp_root, root)
        argv = stamp_argv(command, root)
        assert main([command, *map(str, argv)]) == EXIT_OK
        before = stamped_hash(command, argv)
        if option in PATH_OPTIONS:
            changed = with_option(argv, option, moved_path(root, option, argv))
        else:
            assert option in OTHER_VALUES, f"no second value for {command} {option}"
            changed = with_option(argv, option, OTHER_VALUES[option])
        assert main([command, *map(str, changed)]) == EXIT_OK
        assert (stamped_hash(command, changed) == before) == (option in PATH_OPTIONS)


class TestArgumentHandling:
    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK

    def test_version_exits_zero(self):
        assert main(["--version"]) == EXIT_OK

    def test_unknown_command_exits_two(self):
        assert main(["frobnicate"]) == EXIT_EMPTY

    def test_missing_required_option_exits_two(self):
        assert main(["ingest"]) == EXIT_EMPTY

    def test_an_error_without_a_message_is_named_by_its_type(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "scan_corpus", out_of_memory)
        capsys.readouterr()
        assert ingest(tmp_path, tmp_path / "work") == EXIT_ERROR
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_config_hash_is_stable_and_order_free(self):
        a = config_hash({"x": 1, "y": [1, 2]})
        b = config_hash({"y": [1, 2], "x": 1})
        assert a == b and len(a) == 16
        assert config_hash({"x": 2, "y": [1, 2]}) != a


class TestSeedDefault:
    def test_omitted_seed_means_zero(self, pipeline):
        assert main([
            "generate", "--work-dir", str(pipeline), "--bars", "2",
        ]) == EXIT_OK
        assert (pipeline / "generated" / "melody_0.mid").exists()
