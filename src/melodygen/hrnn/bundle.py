"""Model bundles: every level of a variant plus the codebooks it reads.

Layout of a bundle directory:

    manifest.json        variant, per-level specs and checkpoint names,
                         feature layout version, config hash, tool version
    <level>.ckpt         deterministic checkpoint of every level
    <level>_codebook.json  the codebook of every profile level: beat for
                         2L, bar and beat for 3L, none for 1L

Serialization is deterministic: identical models produce byte-identical
bundles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..artifacts import expect_schema, parse, read, require, write_json
from ..neural import GeneratorParams, load_checkpoint, save_checkpoint
from ..profiles import ProfileCodebook
from .specs import FEATURE_LAYOUT_VERSION, LayerSpec, profile_levels, variant_specs

BUNDLE_SCHEMA = 1


@dataclass
class HrnnModel:
    """A trained hierarchy: parameters for every level of the variant, and
    the codebook of every profile level, keyed by level.

    ``specs`` holds every level's spec, derived from the variant, the chord
    flag and the codebooks by :func:`variant_specs`.
    """

    variant: str
    level_params: dict[str, GeneratorParams]
    codebooks: dict[str, ProfileCodebook] = field(default_factory=dict)
    chords: bool = False
    metadata: dict = field(default_factory=dict)
    specs: dict[str, LayerSpec] = field(init=False)

    def __post_init__(self) -> None:
        self.specs = variant_specs(self.variant, chords=self.chords, codebooks=self.codebooks)
        for what, given, expected in (
            ("parameters", set(self.level_params), set(self.specs)),
            ("codebooks", set(self.codebooks), set(profile_levels(self.variant))),
        ):
            if given - expected:
                raise ValueError(
                    f"{what} for levels outside the variant {self.variant}: "
                    f"{sorted(given - expected)}"
                )
            if expected - given:
                raise ValueError(
                    f"no {what} for the {self.variant} levels {sorted(expected - given)}"
                )
        for level, codebook in self.codebooks.items():
            codebook.expect_kind(level)
        for level, params in self.level_params.items():
            spec = self.specs[level]
            if params.input_dim != spec.input_dim:
                raise ValueError(
                    f"{level} layer expects input dim {spec.input_dim}, "
                    f"parameters have {params.input_dim}"
                )
            if params.n_outputs != spec.alphabet_size:
                raise ValueError(
                    f"{level} layer expects {spec.alphabet_size} outputs, "
                    f"parameters have {params.n_outputs}"
                )


def save_bundle(model: HrnnModel, directory: str | Path) -> None:
    directory = Path(directory)
    manifest = {
        "schema": BUNDLE_SCHEMA,
        "variant": model.variant,
        "chords": model.chords,
        "feature_layout_version": FEATURE_LAYOUT_VERSION,
        "levels": {},
        "codebooks": {},
        "metadata": model.metadata,
    }
    for level, spec in sorted(model.specs.items()):
        filename = f"{level}.ckpt"
        save_checkpoint(directory / filename, model.level_params[level])
        manifest["levels"][level] = {"checkpoint": filename, "spec": spec.to_dict()}
    for level, codebook in sorted(model.codebooks.items()):
        filename = f"{level}_codebook.json"
        codebook.save(directory / filename)
        manifest["codebooks"][level] = filename
    write_json(directory / "manifest.json", manifest)


def load_bundle(directory: str | Path, variant: str) -> HrnnModel:
    """The ``variant`` model a bundle directory holds. A missing or malformed
    file, or a manifest that does not list exactly the variant's levels and
    codebooks, raises an ArtifactError naming the file."""
    directory = Path(directory)
    producer = f"train --variant {variant}"

    def load(manifest_path: Path) -> HrnnModel:
        manifest = parse(manifest_path.read_bytes())
        expect_schema(manifest, BUNDLE_SCHEMA)
        layout = require(manifest, "feature_layout_version", int)
        if layout != FEATURE_LAYOUT_VERSION:
            raise ValueError(
                f"bundle was built with feature layout {layout}, this build expects "
                f"{FEATURE_LAYOUT_VERSION}"
            )
        chords = require(manifest, "chords", bool)
        levels = require(manifest, "levels", dict)
        codebooks = require(manifest, "codebooks", dict)
        level_params = {}
        for level in levels:
            entry = require(levels, level, dict, "levels.")
            checkpoint = require(entry, "checkpoint", str, f"levels.{level}.")
            level_params[level] = read(directory / checkpoint, producer, load_checkpoint)
        model = HrnnModel(
            variant=variant,
            level_params=level_params,
            codebooks={
                level: read(directory / require(codebooks, level, str, "codebooks."), producer,
                            lambda path: ProfileCodebook.load(path, level))
                for level in codebooks
            },
            chords=chords,
            metadata=require(manifest, "metadata", dict) if "metadata" in manifest else {},
        )
        # The manifest's specs are a record of the layout the weights were
        # trained on; each must equal the one this build derives.
        for level, spec in sorted(model.specs.items()):
            stored = levels[level]["spec"]
            if stored != spec.to_dict():
                raise ValueError(
                    f"{level} layer spec {stored} differs from the "
                    f"{model.variant} layout {spec.to_dict()}"
                )
        return model

    return read(directory / "manifest.json", producer, load)
