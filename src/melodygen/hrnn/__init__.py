"""Hierarchical melody generator: bar, beat, and note layers.

The hierarchy couples three sequence models. The bar layer emits one rhythm
profile per bar, the beat layer one profile per beat conditioned on its bar's
profile, and the note layer one grid event per 16th step conditioned on both
profiles. Variants drop the upper layers: "2L" has beat and note, "1L" is
the note layer alone.
"""

from .bundle import HrnnModel, load_bundle, save_bundle
from .datasets import build_datasets
from .evaluation import evaluate_layer, profile_adherence, rhythm_match_fraction
from .generation import GenerationPlan, generate, tile_profiles
from .specs import layer_specs
from .training import curves_to_csv, layer_config, train_layer

__all__ = [
    "HrnnModel",
    "load_bundle",
    "save_bundle",
    "build_datasets",
    "evaluate_layer",
    "profile_adherence",
    "rhythm_match_fraction",
    "GenerationPlan",
    "generate",
    "tile_profiles",
    "layer_specs",
    "curves_to_csv",
    "layer_config",
    "train_layer",
]
