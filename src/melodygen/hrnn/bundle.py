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
from .specs import FEATURE_LAYOUT_VERSION, LayerSpec, layer_specs

BUNDLE_SCHEMA = 1


@dataclass
class HrnnModel:
    """A trained hierarchy: parameters and specs per level, plus codebooks."""

    variant: str
    level_params: dict[str, GeneratorParams]
    specs: dict[str, LayerSpec]
    beat_codebook: ProfileCodebook | None = None
    bar_codebook: ProfileCodebook | None = None
    chords: bool = False
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = set(layer_specs(self.variant, chords=self.chords))
        if set(self.specs) != expected:
            raise ValueError(
                f"variant {self.variant} expects levels {sorted(expected)}, "
                f"got {sorted(self.specs)}"
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
        needs_beat = any(s.level == "beat" or s.beat_condition for s in self.specs.values())
        needs_bar = any(s.level == "bar" or s.bar_condition for s in self.specs.values())
        if needs_beat and self.beat_codebook is None:
            raise ValueError("model uses beat profiles but has no beat codebook")
        if needs_bar and self.bar_codebook is None:
            raise ValueError("model uses bar profiles but has no bar codebook")
        sizes = {}
        if self.beat_codebook is not None:
            sizes["beat_k"] = self.beat_codebook.k
        if self.bar_codebook is not None:
            sizes["bar_k"] = self.bar_codebook.k
        layout = layer_specs(self.variant, chords=self.chords, **sizes)
        for level in sorted(self.specs):
            if self.specs[level] != layout[level]:
                raise ValueError(
                    f"{level} layer spec {self.specs[level].to_dict()} differs from the "
                    f"{self.variant} layout {layout[level].to_dict()}"
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
    specs = {}
    level_params = {}
    for level, entry in manifest["levels"].items():
        specs[level] = LayerSpec.from_dict(entry["spec"])
        if "checkpoint" in entry:
            level_params[level] = load_checkpoint(directory / entry["checkpoint"])
    beat_codebook = None
    bar_codebook = None
    if "beat" in manifest["codebooks"]:
        beat_codebook = ProfileCodebook.load(directory / manifest["codebooks"]["beat"])
    if "bar" in manifest["codebooks"]:
        bar_codebook = ProfileCodebook.load(directory / manifest["codebooks"]["bar"])
    return HrnnModel(
        variant=manifest["variant"],
        level_params=level_params,
        specs=specs,
        beat_codebook=beat_codebook,
        bar_codebook=bar_codebook,
        chords=manifest["chords"],
        metadata=manifest.get("metadata", {}),
    )
