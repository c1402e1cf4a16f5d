"""Model bundles: every trained layer plus its codebooks in one directory.

Layout of a bundle directory:

    manifest.json        variant, per-level specs and checkpoint names,
                         feature layout version, config hash, tool version
    <level>.ckpt         deterministic checkpoint per trained level
    beat_codebook.json   present when any level uses beat profiles
    bar_codebook.json    present when any level uses bar profiles

Serialization is deterministic: identical models produce byte-identical
bundles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..neural import GeneratorParams, load_checkpoint, save_checkpoint
from ..profiles import ProfileCodebook
from .specs import FEATURE_LAYOUT_VERSION, LayerSpec, variant_specs

BUNDLE_SCHEMA = 1


@dataclass
class HrnnModel:
    """A trained hierarchy: parameters per level, plus codebooks.

    ``specs`` holds every level's spec, derived from the variant, the chord
    flag and the codebooks by :func:`variant_specs`.
    """

    variant: str
    level_params: dict[str, GeneratorParams]
    beat_codebook: ProfileCodebook | None = None
    bar_codebook: ProfileCodebook | None = None
    chords: bool = False
    metadata: dict = field(default_factory=dict)
    specs: dict[str, LayerSpec] = field(init=False)

    def __post_init__(self) -> None:
        self.specs = variant_specs(
            self.variant,
            chords=self.chords,
            beat_codebook=self.beat_codebook,
            bar_codebook=self.bar_codebook,
        )
        unknown = set(self.level_params) - set(self.specs)
        if unknown:
            raise ValueError(f"parameters for levels outside the variant: {unknown}")
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
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema": BUNDLE_SCHEMA,
        "variant": model.variant,
        "chords": model.chords,
        "feature_layout_version": FEATURE_LAYOUT_VERSION,
        "levels": {},
        "codebooks": {},
        "metadata": model.metadata,
    }
    for level in sorted(model.specs):
        entry = {"spec": model.specs[level].to_dict()}
        if level in model.level_params:
            filename = f"{level}.ckpt"
            save_checkpoint(directory / filename, model.level_params[level])
            entry["checkpoint"] = filename
        manifest["levels"][level] = entry
    if model.beat_codebook is not None:
        model.beat_codebook.save(directory / "beat_codebook.json")
        manifest["codebooks"]["beat"] = "beat_codebook.json"
    if model.bar_codebook is not None:
        model.bar_codebook.save(directory / "bar_codebook.json")
        manifest["codebooks"]["bar"] = "bar_codebook.json"
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


def load_bundle(directory: str | Path) -> HrnnModel:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no model bundle at {directory} (missing manifest.json)")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("schema") != BUNDLE_SCHEMA:
        raise ValueError(f"unsupported bundle schema {manifest.get('schema')}")
    if manifest.get("feature_layout_version") != FEATURE_LAYOUT_VERSION:
        raise ValueError(
            "bundle was built with feature layout "
            f"{manifest.get('feature_layout_version')}, this build expects "
            f"{FEATURE_LAYOUT_VERSION}"
        )
    level_params = {
        level: load_checkpoint(directory / entry["checkpoint"])
        for level, entry in manifest["levels"].items()
        if "checkpoint" in entry
    }
    codebooks = {
        kind: ProfileCodebook.load(directory / name)
        for kind, name in manifest["codebooks"].items()
    }
    model = HrnnModel(
        variant=manifest["variant"],
        level_params=level_params,
        beat_codebook=codebooks.get("beat"),
        bar_codebook=codebooks.get("bar"),
        chords=manifest["chords"],
        metadata=manifest.get("metadata", {}),
    )
    # The manifest's specs are a record of the layout the weights were
    # trained on; each must equal the one this build derives.
    stored = {level: entry["spec"] for level, entry in manifest["levels"].items()}
    if set(stored) != set(model.specs):
        raise ValueError(
            f"variant {model.variant} expects levels {sorted(model.specs)}, "
            f"got {sorted(stored)}"
        )
    for level, spec in sorted(model.specs.items()):
        if stored[level] != spec.to_dict():
            raise ValueError(
                f"{level} layer spec {stored[level]} differs from the "
                f"{model.variant} layout {spec.to_dict()}"
            )
    return model
