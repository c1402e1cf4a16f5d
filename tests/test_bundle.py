"""Model bundle round trips and validation."""

import json

import numpy as np
import pytest

from melodygen.artifacts import ArtifactError
from melodygen.encode import grid_encode
from melodygen.hrnn.bundle import HrnnModel, load_bundle, save_bundle
from melodygen.hrnn.specs import layer_specs
from melodygen.neural import init_params
from melodygen.profiles import binarize, build_codebook, cut_clips
from melodygen.synthetic import synthetic_corpus

BEAT_K = 4
BAR_K = 3


def codebooks():
    grids = [grid_encode(s) for s in synthetic_corpus(6, seed=17, n_bars=4)]
    binaries = [binarize(g) for g in grids]
    beat = build_codebook(np.vstack([cut_clips(b, 4) for b in binaries]), "beat", BEAT_K, seed=1)
    bar = build_codebook(np.vstack([cut_clips(b, 16) for b in binaries]), "bar", BAR_K, seed=1)
    return beat, bar


def make_model(variant="3L", *, chords=False, metadata=None):
    beat, bar = codebooks()
    specs = layer_specs(variant, chords=chords, beat_k=BEAT_K, bar_k=BAR_K)
    params = {
        level: init_params(spec.input_dim, 10, spec.alphabet_size, n_layers=1, seed=3)
        for level, spec in specs.items()
    }
    return HrnnModel(
        variant=variant,
        level_params=params,
        codebooks={level: book for level, book in (("beat", beat), ("bar", bar)) if level in specs},
        chords=chords,
        metadata=metadata or {},
    )


@pytest.mark.parametrize("variant", ["1L", "2L", "3L"])
def test_round_trip(tmp_path, variant):
    model = make_model(variant, metadata={"purpose": "test"})
    save_bundle(model, tmp_path / "bundle")
    loaded = load_bundle(tmp_path / "bundle", variant)
    assert loaded.variant == variant
    assert loaded.chords is False
    assert loaded.specs == model.specs
    assert loaded.metadata == {"purpose": "test"}
    for level, params in model.level_params.items():
        for (name, arr), (_, arr2) in zip(
            params.named_arrays(), loaded.level_params[level].named_arrays()
        ):
            assert np.array_equal(arr, arr2), (level, name)
    assert set(loaded.codebooks) == set(model.codebooks)
    for level, codebook in model.codebooks.items():
        assert np.array_equal(loaded.codebooks[level].centroids, codebook.centroids)


def test_chord_flag_round_trips(tmp_path):
    model = make_model("3L", chords=True)
    save_bundle(model, tmp_path / "bundle")
    loaded = load_bundle(tmp_path / "bundle", "3L")
    assert loaded.chords is True
    assert loaded.specs["note"].chroma is True


def test_bundles_are_byte_identical(tmp_path):
    for name in ("a", "b"):
        save_bundle(make_model("3L"), tmp_path / name)
    for filename in ("manifest.json", "note.ckpt", "beat_codebook.json"):
        assert (tmp_path / "a" / filename).read_bytes() == (
            tmp_path / "b" / filename
        ).read_bytes(), filename


def test_expected_files_exist(tmp_path):
    save_bundle(make_model("3L"), tmp_path / "bundle")
    names = {p.name for p in (tmp_path / "bundle").iterdir()}
    assert names == {
        "manifest.json",
        "bar.ckpt",
        "beat.ckpt",
        "note.ckpt",
        "beat_codebook.json",
        "bar_codebook.json",
    }


def test_missing_bundle_names_the_manifest(tmp_path):
    with pytest.raises(ArtifactError, match="manifest.json"):
        load_bundle(tmp_path / "nowhere", "3L")


def test_wrong_schema_rejected(tmp_path):
    save_bundle(make_model("1L"), tmp_path / "bundle")
    manifest_path = tmp_path / "bundle" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema"] = 999
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="schema"):
        load_bundle(tmp_path / "bundle", "1L")


def test_wrong_feature_layout_rejected(tmp_path):
    save_bundle(make_model("1L"), tmp_path / "bundle")
    manifest_path = tmp_path / "bundle" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["feature_layout_version"] = 999
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="feature layout"):
        load_bundle(tmp_path / "bundle", "1L")


def edit_manifest(directory, edit):
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


class TestModelValidation:
    def test_specs_are_derived_from_the_codebooks(self):
        model = make_model("3L", chords=True)
        assert model.specs == layer_specs("3L", chords=True, beat_k=BEAT_K, bar_k=BAR_K)

    def test_wrong_level_set_rejected(self, tmp_path):
        # A 3L bundle whose manifest lists no bar level.
        save_bundle(make_model("3L"), tmp_path / "bundle")
        edit_manifest(tmp_path / "bundle", lambda m: m["levels"].pop("bar"))
        with pytest.raises(ValueError, match=r"no parameters for the 3L levels \['bar'\]"):
            load_bundle(tmp_path / "bundle", "3L")

    def test_level_without_checkpoint_rejected(self, tmp_path):
        save_bundle(make_model("3L"), tmp_path / "bundle")
        edit_manifest(tmp_path / "bundle", lambda m: m["levels"]["bar"].pop("checkpoint"))
        with pytest.raises(ValueError, match="manifest.json: missing field .levels.bar.checkpoint."):
            load_bundle(tmp_path / "bundle", "3L")

    @pytest.mark.parametrize("variant, extra", [("1L", "bar"), ("1L", "beat"), ("2L", "bar")])
    def test_codebook_of_a_level_the_variant_lacks_rejected(self, tmp_path, variant, extra):
        # As an older 1L or 2L bundle holds them.
        save_bundle(make_model(variant), tmp_path / "bundle")
        book = codebooks()[0 if extra == "beat" else 1]
        book.save(tmp_path / "bundle" / f"{extra}_codebook.json")
        edit_manifest(
            tmp_path / "bundle",
            lambda m: m["codebooks"].update({extra: f"{extra}_codebook.json"}),
        )
        with pytest.raises(
            ValueError,
            match=rf"manifest.json: codebooks for levels outside the variant {variant}: \['{extra}'\]",
        ):
            load_bundle(tmp_path / "bundle", variant)

    def test_missing_params_rejected(self):
        model = make_model("3L")
        partial = {level: model.level_params[level] for level in ("beat", "note")}
        with pytest.raises(ValueError, match=r"no parameters for the 3L levels \['bar'\]"):
            HrnnModel(variant="3L", level_params=partial, codebooks=model.codebooks)

    def test_codebook_under_another_level_rejected(self):
        model = make_model("2L")
        _, bar = codebooks()
        with pytest.raises(ValueError, match="the beat codebook holds bar profiles"):
            HrnnModel(variant="2L", level_params=model.level_params, codebooks={"beat": bar})

    def test_saved_codebook_of_another_level_names_the_file(self, tmp_path):
        save_bundle(make_model("3L"), tmp_path / "bundle")
        beat, _ = codebooks()
        beat.save(tmp_path / "bundle" / "bar_codebook.json")
        with pytest.raises(ArtifactError, match=(
            "bar_codebook.json: the bar codebook holds beat profiles; "
            "re-run `melodygen train --variant 3L`"
        )):
            load_bundle(tmp_path / "bundle", "3L")

    def test_params_for_unknown_level_rejected(self):
        model = make_model("1L")
        extra = dict(model.level_params)
        extra["beat"] = model.level_params["note"]
        with pytest.raises(ValueError, match="outside the variant"):
            HrnnModel(variant="1L", level_params=extra)

    def test_input_dim_mismatch_rejected(self):
        model = make_model("1L")
        bad = {"note": init_params(7, 10, 38, n_layers=1, seed=0)}
        with pytest.raises(ValueError, match="input dim"):
            HrnnModel(variant="1L", level_params=bad)

    def test_output_dim_mismatch_rejected(self):
        model = make_model("1L")
        spec = model.specs["note"]
        bad = {"note": init_params(spec.input_dim, 10, 5, n_layers=1, seed=0)}
        with pytest.raises(ValueError, match="outputs"):
            HrnnModel(variant="1L", level_params=bad)

    def test_missing_codebooks_rejected(self):
        model = make_model("3L")
        with pytest.raises(ValueError, match="beat codebook"):
            HrnnModel(
                variant="3L",
                level_params=model.level_params,
                codebooks={"bar": model.codebooks["bar"]},
            )
        with pytest.raises(ValueError, match="bar codebook"):
            HrnnModel(
                variant="3L",
                level_params=model.level_params,
                codebooks={"beat": model.codebooks["beat"]},
            )


def test_manifest_spec_off_the_variant_layout_rejected(tmp_path):
    # A distance of 0 keeps input_dim but would feed each row its own target.
    save_bundle(make_model("3L"), tmp_path / "bundle")
    manifest_path = tmp_path / "bundle" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["levels"]["note"]["spec"]["lookback_distances"] = [0, 4]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="note layer spec .* differs from the 3L layout"):
        load_bundle(tmp_path / "bundle", "3L")


def test_spec_sized_off_the_codebooks_rejected(tmp_path):
    # The manifest's beat spec has one more profile than the stored codebook.
    save_bundle(make_model("2L"), tmp_path / "bundle")

    def resize(manifest):
        manifest["levels"]["beat"]["spec"]["alphabet_size"] = BEAT_K + 1

    edit_manifest(tmp_path / "bundle", resize)
    with pytest.raises(ValueError, match="beat layer spec .* differs from the 2L layout"):
        load_bundle(tmp_path / "bundle", "2L")
