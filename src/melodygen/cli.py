"""Command-line pipeline driver.

Subcommands mirror the pipeline stages and share a work directory:

    ingest       parse and encode a corpus directory: lead sheets, grids, manifest
    profiles     cluster rhythm clips of the training split into codebooks
    train        build datasets and train the generator hierarchy
    generate     decode a melody, write MIDI plus a trace JSON
    eval         teacher-forcing metrics and generation adherence
    export-midi  render a cached lead-sheet JSON to MIDI

Every command accepts ``--seed`` (default 0) and ``--config`` (a JSON object
of option values, placed before the explicit flags so that those win).
Derived seeds are pure functions of the user seed: corpus split uses the
seed itself, clustering seed+7, the three layers seed+101/202/303,
generation the seed.

Artifacts carry the tool version and ``config_hash``, a short hash of every
option value of the command except the paths ``--work-dir``, ``--corpus-dir``,
``--leadsheet``, ``--out`` and ``--config``; ingest adds the digest of the
accepted pieces. The stamped artifacts are ingest's manifest.json and
grids.json, profiles' elbow.json, train's bundle manifest and curves, eval's
metrics, and the MIDI files of generate (with its trace) and export-midi.
Codebooks, cached lead sheets and checkpoints carry no stamp. The bundle
manifest also records the sha256 of the manifest.json that train read, and
eval and generate refuse a bundle whose hash is not the current file's.

Artifacts are written and read through :mod:`melodygen.artifacts`: a stage
replaces its outputs whole (ingest's ``leadsheets/`` and train's
``model/<variant>/`` as whole directories) or, when it fails or accepts no
piece, leaves them as they were. An elbow.json exists only after ``--elbow``.

Exit codes: 0 success, 1 operational error (missing prerequisites, bad
model), 2 empty or invalid input (nothing ingested, malformed arguments).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import read, replace_dir, write, write_json
from .corpus import CorpusError, dumps_grids, loads_grids, scan_corpus
from .encode import MAX_BARS, grid_decode, grid_encode, normalize_sheet, sustain_extend
from .hrnn import (
    GenerationPlan,
    HrnnModel,
    build_datasets,
    curves_to_csv,
    evaluate_layer,
    generate,
    load_bundle,
    profile_adherence,
    save_bundle,
    tile_profiles,
    train_layer,
)
from .hrnn.specs import HIERARCHY, PROFILE_LEVELS, VARIANTS, profile_levels, variant_specs
from .hrnn.training import layer_config
from .leadsheet import dumps_leadsheet, loads_leadsheet
from .midifile import DEFAULT_TEMPO_BPM, MAX_TEMPO_BPM, MIN_TEMPO_BPM, write_midi
from .neural import TrainConfig
from .profiles import (
    PROFILE_WIDTHS,
    ProfileCodebook,
    binarize,
    build_codebook,
    cut_clips,
    elbow_report,
    profile_sequences,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY = 2

KMEANS_SEED_OFFSET = 7
# Upper bound of `generate --beam-width`: the beam's rows grow with its width.
# `--bars` takes 1..MAX_BARS, the bound of every grid and generation plan.
MAX_BEAM_WIDTH = 64

# Options that only say where files are read or written; the config hash
# leaves them out, so the same settings hash alike from any directory.
PATH_OPTIONS = ("work_dir", "corpus_dir", "leadsheet", "out", "config")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_ERROR):
        super().__init__(message)
        self.code = code


def _load_config_file(path: str) -> dict:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}", EXIT_EMPTY)
    except json.JSONDecodeError as exc:
        raise CliError(f"config file is not valid JSON: {exc}", EXIT_EMPTY)
    if not isinstance(obj, dict):
        raise CliError("config file must hold a JSON object", EXIT_EMPTY)
    return obj


def config_hash(config: dict) -> str:
    """Short stable digest of the effective configuration."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _stamp(args: argparse.Namespace, **derived) -> dict:
    """Tool version and hash of the command's option values but the paths,
    plus ``derived`` settings that no option holds."""
    config = {
        key: value
        for key, value in vars(args).items()
        if key != "func" and key not in PATH_OPTIONS
    }
    config.update(derived)
    return {
        "tool_version": __version__,
        "config_hash": config_hash(config),
        "config": config,
    }


def _manifest(work: Path) -> dict:
    """Ingest's manifest, holding the split's id lists, and under
    ``"sha256"`` the digest of its bytes."""
    def load(path: Path) -> dict:
        data = path.read_bytes()
        manifest = json.loads(data)
        for key in ("accepted_ids", "train_ids", "validation_ids"):
            if not isinstance(manifest, dict) or not isinstance(manifest.get(key), list):
                raise ValueError(f"no {key} list")
        return {**manifest, "sha256": hashlib.sha256(data).hexdigest()}

    return read(work / "manifest.json", "ingest", load)


def _check_split(work: Path, model: HrnnModel, manifest: dict) -> None:
    """Refuse a bundle trained on another manifest.json than the current one."""
    if model.metadata.get("manifest_sha256") != manifest["sha256"]:
        raise CliError(
            f"{work / 'manifest.json'} is not the one the bundle in "
            f"{work / 'model' / model.variant} was trained on; re-run "
            f"`melodygen train --variant {model.variant}`"
        )


def _load_encoded(work: Path, ids: list[str]) -> tuple[list, list]:
    """Grids and chord tracks of the listed pieces, as ingest encoded them."""
    pieces = read(work / "grids.json", "ingest", lambda path: loads_grids(path.read_bytes(), ids))
    return [piece.grid for piece in pieces], [piece.chords for piece in pieces]


def _load_codebooks(work: Path, variant: str) -> dict[str, ProfileCodebook]:
    """Each profile level's codebook for ``variant``, checked to hold that level's profiles."""
    return {
        level: read(work / f"{level}_codebook.json", "profiles",
                    lambda path: ProfileCodebook.load(path, level))
        for level in profile_levels(variant)
    }


def _datasets(work: Path, splits: list[list[str]], variant: str, codebooks: dict, chords: bool):
    """For each list of piece ids, the pieces' grids and their datasets per
    level for ``variant``; grids.json is read once for all the lists."""
    grids, chord_tracks = _load_encoded(work, [piece for ids in splits for piece in ids])
    out, start = [], 0
    for ids in splits:
        part = slice(start, start + len(ids))
        start = part.stop
        out.append((grids[part], build_datasets(
            grids[part],
            variant,
            **{f"{level}_codebook": codebook for level, codebook in codebooks.items()},
            chord_tracks=chord_tracks[part],
            chords=chords,
            piece_ids=ids,
        )))
    return out


def cmd_ingest(args) -> int:
    work = Path(args.work_dir)
    corpus_dir = Path(args.corpus_dir)
    if not corpus_dir.is_dir():
        raise CliError(f"corpus directory {corpus_dir} does not exist", EXIT_EMPTY)
    try:
        scan = scan_corpus(corpus_dir, split_seed=args.seed)
    except CorpusError as exc:
        raise CliError(str(exc), EXIT_EMPTY)
    manifest = scan.manifest
    print(f"scanned   {manifest.scanned}")
    print(f"accepted  {manifest.accepted} (before pickup filter: "
          f"{manifest.accepted_before_weak_beat_filter})")
    print(f"rejected  {manifest.rejected}")
    reasons: dict[str, int] = {}
    for entry in manifest.rejections.values():
        reasons[entry["reason"]] = reasons.get(entry["reason"], 0) + 1
    for reason in sorted(reasons):
        print(f"  {reason}: {reasons[reason]}")
    print(f"pitch-range fraction  {manifest.pitch_in_range_fraction:.4f}")
    print(f"split  {len(manifest.train_ids)} train / "
          f"{len(manifest.validation_ids)} validation")
    if manifest.accepted == 0:
        raise CliError("no pieces were accepted from the corpus", EXIT_EMPTY)
    # The hash names the accepted pieces, not the directory they came from.
    corpus_digest = hashlib.sha256()
    with replace_dir(work / "leadsheets") as leadsheets:
        for piece_id in manifest.accepted_ids:
            cached = (dumps_leadsheet(scan.sheets[piece_id]) + "\n").encode("utf-8")
            corpus_digest.update(cached)
            write(leadsheets / f"{piece_id}.json", cached)
    stamp = _stamp(args, corpus_sha256=corpus_digest.hexdigest())
    write(work / "grids.json", (dumps_grids(scan.encoded, stamp) + "\n").encode("utf-8"))
    write_json(work / "manifest.json", {**manifest.to_dict(), **stamp})
    return EXIT_OK


def cmd_profiles(args) -> int:
    work = Path(args.work_dir)
    manifest = _manifest(work)
    if not manifest["train_ids"]:
        raise CliError("the training split is empty", EXIT_EMPTY)
    grids, _ = _load_encoded(work, manifest["train_ids"])
    binary = [binarize(grid) for grid in grids]
    seed = args.seed + KMEANS_SEED_OFFSET
    # Fine to coarse: the beat codebook is built, saved and printed first.
    clips = {level: np.concatenate([cut_clips(b, PROFILE_WIDTHS[level]) for b in binary])
             for level in PROFILE_LEVELS[::-1]}
    codebooks = {level: build_codebook(c, level, getattr(args, f"{level}_k"), seed=seed)
                 for level, c in clips.items()}
    if args.elbow:
        low, high = args.elbow
        report = {level: elbow_report(c, range(low, high + 1), seed=seed)
                  for level, c in clips.items()}
        report.update(_stamp(args))
    for level, codebook in codebooks.items():
        codebook.save(work / f"{level}_codebook.json")
    for level, codebook in codebooks.items():
        print(f"{level + ' codebook:':15}k={codebook.k} wcss={codebook.wcss:.4f}")
    if args.elbow:
        write_json(work / "elbow.json", report)
        print(f"elbow report for k={low}..{high} written to elbow.json")
    else:
        (work / "elbow.json").unlink(missing_ok=True)
    return EXIT_OK


def cmd_train(args) -> int:
    try:
        conf = TrainConfig(
            max_iterations=args.max_iterations,
            batch_size=args.batch_size,
            dropout=args.dropout,
            hidden_size=args.hidden_size,
            n_lstm_layers=args.lstm_layers,
            eval_every=args.eval_every,
            patience=args.patience,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_EMPTY)
    work = Path(args.work_dir)
    manifest = _manifest(work)
    codebooks = _load_codebooks(work, args.variant)
    if not manifest["train_ids"]:
        raise CliError("the training split is empty", EXIT_EMPTY)
    splits = [manifest["train_ids"], manifest["validation_ids"]]
    (_, datasets), (_, val_datasets) = _datasets(
        work, splits, args.variant, codebooks, args.chords
    )
    stamp = _stamp(args)
    specs = variant_specs(args.variant, chords=args.chords, codebooks=codebooks)

    level_params, curves = {}, {}
    # Finest level first: the note level's step holds the most memory, and it
    # runs before any other level's trained parameters are held. Each level
    # trains from its own seed stream, so the order changes no byte.
    for level, spec in reversed(specs.items()):
        result = train_layer(
            spec,
            datasets[level],
            val_datasets[level],
            layer_config(conf, level),
        )
        level_params[level] = result.params
        curves[level] = (
            f"# tool_version={stamp['tool_version']} config_hash={stamp['config_hash']}\n"
            + curves_to_csv(result.curves)
        )
        last = result.curves[-1]
        print(
            f"{level}: {result.iterations_run} iterations ({result.stop_reason}), "
            f"best at {result.best_iteration}, "
            f"val loss {last['val_loss']:.4f}"
            if "val_loss" in last
            else f"{level}: {result.iterations_run} iterations ({result.stop_reason})"
        )

    model = HrnnModel(
        variant=args.variant,
        level_params=level_params,
        codebooks=codebooks,
        chords=args.chords,
        metadata={"tool_version": stamp["tool_version"], "config_hash": stamp["config_hash"],
                  "manifest_sha256": manifest["sha256"]},
    )
    bundle_dir = work / "model" / args.variant
    with replace_dir(bundle_dir) as staging:
        save_bundle(model, staging)
        for level, text in curves.items():
            write(staging / f"curves_{level}.csv", text.encode("utf-8"))
    print(f"model bundle written to {bundle_dir}")
    return EXIT_OK


def _fixed_profiles(args, model: HrnnModel) -> dict[str, tuple[int, ...]]:
    """Each ``--fixed-<level>-profiles`` given, tiled to the level's positions
    in ``--bars`` bars, keyed by level."""
    fixed = {}
    for level in PROFILE_LEVELS:
        text = getattr(args, f"fixed_{level}_profiles")
        if text is None:
            continue
        option = f"--fixed-{level}-profiles"
        try:
            values = tuple(int(part) for part in text.replace(" ", "").split(",") if part)
        except ValueError:
            raise CliError(f"{option} must be a comma-separated list of integers", EXIT_EMPTY)
        if not values:
            raise CliError(f"{option} is empty", EXIT_EMPTY)
        if level not in model.codebooks:
            raise CliError(f"{option}: the {model.variant} model has no {level} level", EXIT_EMPTY)
        values = tile_profiles(values, HIERARCHY[level].positions(args.bars))
        k = model.codebooks[level].k
        bad = [v for v in values if not 0 <= v < k]
        if bad:
            raise CliError(
                f"{option}: fixed {level} profile index {bad[0]} outside codebook 0..{k - 1}",
                EXIT_EMPTY,
            )
        fixed[level] = values
    return fixed


def _generation_plan(**fields) -> GenerationPlan:
    """A plan from option values; an invalid value is a usage error."""
    try:
        return GenerationPlan(**fields)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_EMPTY)


def cmd_generate(args) -> int:
    work = Path(args.work_dir)
    model = load_bundle(work / "model" / args.variant, args.variant)
    fixed = _fixed_profiles(args, model)
    manifest = _manifest(work)
    _check_split(work, model, manifest)

    piece_id = _primer_piece(manifest, np.random.default_rng(args.seed), args.primer_piece)
    (grid,), (primer_chords,) = _load_encoded(work, [piece_id])

    plan = _generation_plan(
        bars=args.bars,
        mode=args.mode,
        temperature=args.temperature,
        beam_width=args.beam_width,
        seed=args.seed,
        primers=_primer_of(grid, model),
        fixed_profiles=fixed,
        chords=primer_chords if model.chords else (),
    )
    result = generate(model.level_params, model.specs, plan)

    stamp = _stamp(args)
    out_path = Path(args.out) if args.out else work / "generated" / f"melody_{args.seed}.mid"
    n_notes = _write_midi(grid_decode(result.grid), args, stamp, out_path)
    trace = {**result.trace, "primer_piece": piece_id, **stamp}
    trace_path = out_path.with_suffix(".json")
    write_json(trace_path, trace)
    print(f"wrote {out_path} and {trace_path.name} "
          f"({len(result.grid)} steps, {n_notes} notes)")
    return EXIT_OK


def _write_midi(notes, args, stamp: dict, path: Path) -> int:
    """Write notes as MIDI at ``--tempo``, extended under ``--sustain``, with
    the stamp as a text event; returns the number of notes written."""
    if args.sustain:
        notes = sustain_extend(notes)
    midi = write_midi(
        notes,
        tempo_bpm=args.tempo,
        text_events=(f"melodygen {stamp['tool_version']} config {stamp['config_hash']}",),
    )
    write(path, midi)
    return len(notes)


def _primer_piece(manifest, rng, primer_piece: str | None) -> str:
    """The primer's piece id: the one given, else a seeded validation draw."""
    pool = manifest["validation_ids"] or manifest["train_ids"]
    if primer_piece is not None:
        if primer_piece not in manifest["accepted_ids"]:
            raise CliError(f"primer piece {primer_piece!r} is not in the corpus", EXIT_EMPTY)
        return primer_piece
    return pool[int(rng.integers(len(pool)))]


def _primer_of(grid, model) -> dict[str, tuple[int, ...]]:
    """The symbols of a grid's first beat at each level of the model, keyed by
    level: its first profile at each profile level, and its first events."""
    sequences = {**profile_sequences(grid, model.codebooks), "note": grid.to_array()}
    return {level: tuple(int(v) for v in symbols[: HIERARCHY[level].primer_length])
            for level, symbols in sequences.items()}


def cmd_eval(args) -> int:
    # --temperature is checked on every run, adherence generations or none.
    _generation_plan(bars=1, temperature=args.temperature)
    work = Path(args.work_dir)
    model = load_bundle(work / "model" / args.variant, args.variant)
    manifest = _manifest(work)
    _check_split(work, model, manifest)
    ids = manifest["validation_ids"] or manifest["train_ids"]
    ((grids, datasets),) = _datasets(work, [ids], model.variant, model.codebooks, model.chords)
    metrics: dict = {"levels": {}, "pieces": len(ids)}
    for level, sequences in datasets.items():
        metrics["levels"][level] = evaluate_layer(
            model.level_params[level],
            sequences,
            no_event_index=model.specs[level].no_event_index,
        )

    adherence = _generation_adherence(model, grids, args)
    if adherence:
        metrics["generation_adherence"] = adherence
    metrics.update(_stamp(args))
    out_path = work / f"metrics_{args.variant}.json"
    write_json(out_path, metrics)
    for level, view in sorted(metrics["levels"].items()):
        parts = ", ".join(f"{key} {value:.4f}" for key, value in sorted(view.items()))
        print(f"{level}: {parts}")
    if "error" in adherence:
        print(f"generation adherence not measured: {adherence['error']}", file=sys.stderr)
    elif adherence:
        print("generation adherence:", json.dumps(adherence, sort_keys=True))
    print(f"metrics written to {out_path}")
    return EXIT_OK


def _generation_adherence(model, grids, args) -> dict:
    """Profile adherence of a few seeded free generations.

    One score per profile level of the model; a 1L model has none. If a
    generation is rejected, the result is ``{"error": <reason>}``.
    """
    if not model.codebooks or args.adherence_samples < 1:
        return {}
    scores = {level: [] for level in model.codebooks}
    for index in range(args.adherence_samples):
        source = grids[index % len(grids)]
        plan = _generation_plan(
            bars=source.n_bars,
            mode="sample",
            temperature=args.temperature,
            seed=args.seed + index,
            primers=_primer_of(source, model),
        )
        try:
            result = generate(model.level_params, model.specs, plan)
        except ValueError as exc:
            return {"error": f"generation with seed {plan.seed} failed: {exc}"}
        for level, codebook in model.codebooks.items():
            scores[level].append(profile_adherence(result.grid, result.profiles[level], codebook))
    return {level: float(np.mean(values)) for level, values in scores.items()}


def cmd_export_midi(args) -> int:
    path = Path(args.leadsheet)
    if not path.exists():
        raise CliError(f"lead sheet {path} does not exist", EXIT_EMPTY)
    sheet = read(path, "ingest", lambda path: loads_leadsheet(path.read_bytes()))
    notes = grid_decode(grid_encode(normalize_sheet(sheet)))
    out_path = Path(args.out) if args.out else path.with_suffix(".mid")
    n_notes = _write_midi(notes, args, _stamp(args), out_path)
    print(f"wrote {out_path} ({n_notes} notes)")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--config", default=None, help="JSON file of option defaults")


def _add_midi_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sustain", action="store_true",
                        help="extend notes to bar ends or the next onset")
    parser.add_argument("--tempo", type=_int_in(MIN_TEMPO_BPM, MAX_TEMPO_BPM),
                        default=DEFAULT_TEMPO_BPM)
    parser.add_argument("--out", default=None, help="output MIDI path")


def _int_in(low: int, high: int | None = None):
    """An argparse type: an integer of at least ``low`` and at most ``high``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melodygen", description="melody-grid modeling pipeline"
    )
    parser.add_argument("--version", action="version", version=f"melodygen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a corpus directory into the work dir")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--work-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("profiles", help="build rhythm-profile codebooks")
    p.add_argument("--work-dir", required=True)
    for level in PROFILE_LEVELS[::-1]:
        p.add_argument(f"--{level}-k", type=_int_in(1), default=HIERARCHY[level].default_k)
    p.add_argument(
        "--elbow",
        type=_parse_range,
        default=None,
        metavar="LOW:HIGH",
        help="also write a WCSS-vs-k elbow report over this inclusive range",
    )
    _add_common(p)
    p.set_defaults(func=cmd_profiles)

    p = sub.add_parser("train", help="train the generator hierarchy")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--variant", choices=VARIANTS, default="3L")
    p.add_argument("--chords", action="store_true", help="condition on chord chroma")
    p.add_argument("--max-iterations", type=int, default=TrainConfig.max_iterations)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--dropout", type=float, default=TrainConfig.dropout)
    p.add_argument("--hidden-size", type=int, default=TrainConfig.hidden_size)
    p.add_argument("--lstm-layers", type=int, default=TrainConfig.n_lstm_layers)
    p.add_argument("--eval-every", type=int, default=TrainConfig.eval_every)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode a melody from a trained bundle")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--variant", choices=VARIANTS, default="3L")
    p.add_argument("--bars", type=_int_in(1, MAX_BARS), default=16)
    p.add_argument("--mode", choices=("sample", "beam"), default=GenerationPlan.mode)
    p.add_argument("--temperature", type=float, default=GenerationPlan.temperature)
    p.add_argument("--beam-width", type=_int_in(1, MAX_BEAM_WIDTH),
                   default=GenerationPlan.beam_width)
    p.add_argument("--primer-piece", default=None, help="corpus id to take the primer from")
    for level in PROFILE_LEVELS:
        p.add_argument(f"--fixed-{level}-profiles", default=None,
                       help=f"comma-separated profile indices, tiled to the {level} count")
    _add_midi_options(p)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="teacher-forcing metrics on the validation split")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--variant", choices=VARIANTS, default="3L")
    p.add_argument("--temperature", type=float, default=GenerationPlan.temperature)
    p.add_argument("--adherence-samples", type=_int_in(0), default=4,
                   help="seeded generations to score profile adherence on; 0 skips it")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-midi", help="render a cached lead-sheet JSON to MIDI")
    p.add_argument("--leadsheet", required=True, help="path to a lead-sheet JSON file")
    _add_midi_options(p)
    _add_common(p)
    p.set_defaults(func=cmd_export_midi)
    return parser


def _parse_range(text: str) -> tuple[int, int]:
    try:
        low, high = text.split(":")
        low, high = int(low), int(high)
    except ValueError:
        raise argparse.ArgumentTypeError("expected LOW:HIGH, e.g. 2:20")
    if low < 1 or high < low:
        raise argparse.ArgumentTypeError("expected 1 <= LOW <= HIGH")
    return low, high


def _config_path(argv: list[str]) -> str | None:
    """The ``--config`` value in ``argv``, if one is given well-formed."""
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    try:
        return finder.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return None  # the full parse reports it


def _config_argv(config: dict, command: argparse.ArgumentParser) -> list[str]:
    """A ``--config`` object as option tokens of ``command``.

    Each key names one of the command's options (dashes or underscores). A
    flag takes true or false, any other option a string or a number, which
    the option's own type then checks.
    """
    options = {
        action.dest: action
        for action in command._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    argv = []
    for key, value in config.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise CliError(
                f"config key {key!r} is not an option of `{command.prog}`", EXIT_EMPTY
            )
        flag = action.option_strings[0]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise CliError(f"config key {key!r} must be true or false", EXIT_EMPTY)
            argv += [flag] if value else []
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            argv.append(f"{flag}={value}")
        else:
            raise CliError(f"config key {key!r} must be a string or a number", EXIT_EMPTY)
    return argv


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with the ``--config`` options placed right after the subcommand,
    so that explicit flags, which come later, win."""
    parser = build_parser()
    path = _config_path(argv)
    if path is not None:
        commands = next(
            action.choices
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        if argv[0] in commands:
            prefix = _config_argv(_load_config_file(path), commands[argv[0]])
            argv = argv[:1] + prefix + argv[1:]
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except SystemExit as exc:
        return EXIT_EMPTY if exc.code not in (0, None) else EXIT_OK
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # operational failures map to exit code 1
        # Some exceptions, MemoryError among them, carry no message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
