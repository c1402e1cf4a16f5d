"""Command-line pipeline driver.

Subcommands mirror the pipeline stages and share a work directory:

    ingest       parse and encode a corpus directory: lead sheets, grids, manifest
    profiles     cluster rhythm clips of the training split into codebooks
    train        build datasets and train the generator hierarchy
    generate     decode a melody, write MIDI plus a trace JSON
    eval         teacher-forcing metrics and generation adherence
    export-midi  render a cached lead-sheet JSON to MIDI

Every command accepts ``--seed`` and ``--config`` (a JSON object of option
values, placed before the explicit flags so that those win). Derived seeds
are pure functions of the user seed: corpus split uses the seed itself,
clustering seed+7, the three layers seed+101/202/303, generation the seed.
Outputs embed a short hash of the effective configuration and the tool
version so artifacts can be traced to the settings that produced them.

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
from .corpus import dumps_grids, loads_grids, scan_corpus
from .encode import NO_EVENT, grid_decode, grid_encode, normalize_sheet, sustain_extend
from .hrnn import (
    GenerationPlan,
    HrnnModel,
    build_datasets,
    curves_to_csv,
    evaluate_layer,
    generate,
    layer_specs,
    load_bundle,
    profile_adherence,
    save_bundle,
    tile_profiles,
    train_layer,
)
from .hrnn.training import LEVEL_SEED_OFFSETS, layer_config
from .leadsheet import dumps_leadsheet, loads_leadsheet
from .midifile import write_midi
from .neural import TrainConfig
from .profiles import (
    BAR_WIDTH,
    BEAT_WIDTH,
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


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_ERROR):
        super().__init__(message)
        self.code = code


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}", EXIT_EMPTY)
    except json.JSONDecodeError as exc:
        raise CliError(f"config file is not valid JSON: {exc}", EXIT_EMPTY)
    if not isinstance(obj, dict):
        raise CliError("config file must hold a JSON object", EXIT_EMPTY)
    return obj


def config_hash(effective: dict) -> str:
    """Short stable digest of the effective configuration."""
    canonical = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _stamp(effective: dict) -> dict:
    return {
        "tool_version": __version__,
        "config_hash": config_hash(effective),
        "config": effective,
    }


def _workdir(args) -> Path:
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    return work


def _require_file(path: Path, producer: str) -> Path:
    if not path.exists():
        raise CliError(
            f"missing {path.name} in the work directory; run `melodygen {producer}` first"
        )
    return path


def _manifest(work: Path) -> dict:
    path = _require_file(work / "manifest.json", "ingest")
    return json.loads(path.read_text(encoding="utf-8"))


def _load_encoded(work: Path, ids: list[str]) -> tuple[list, list]:
    """Grids and chord tracks of the listed pieces, as ingest encoded them."""
    path = work / "grids.json"
    if not path.exists():
        raise CliError(f"{path} is missing; re-run `melodygen ingest`")
    try:
        pieces = loads_grids(path.read_bytes(), ids)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}; re-run `melodygen ingest`")
    return [piece.grid for piece in pieces], [piece.chords for piece in pieces]


def _load_codebooks(work: Path) -> tuple[ProfileCodebook, ProfileCodebook]:
    beat = ProfileCodebook.load(_require_file(work / "beat_codebook.json", "profiles"))
    bar = ProfileCodebook.load(_require_file(work / "bar_codebook.json", "profiles"))
    return beat, bar


def cmd_ingest(args) -> int:
    work = _workdir(args)
    corpus_dir = Path(args.corpus_dir)
    if not corpus_dir.is_dir():
        raise CliError(f"corpus directory {corpus_dir} does not exist", EXIT_EMPTY)
    scan = scan_corpus(corpus_dir, split_seed=args.seed)
    manifest = scan.manifest
    # The hash names the accepted pieces, not the directory they came from.
    corpus_digest = hashlib.sha256()
    (work / "leadsheets").mkdir(exist_ok=True)
    for piece_id in manifest.accepted_ids:
        cached = dumps_leadsheet(scan.sheets[piece_id]) + "\n"
        corpus_digest.update(cached.encode("utf-8"))
        target = work / "leadsheets" / f"{piece_id}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(cached, encoding="utf-8")
    effective = {
        "command": "ingest",
        "corpus_sha256": corpus_digest.hexdigest(),
        "seed": args.seed,
    }
    stamp = _stamp(effective)
    payload = manifest.to_dict()
    payload.update(stamp)
    (work / "grids.json").write_text(
        dumps_grids(scan.encoded, stamp) + "\n", encoding="utf-8"
    )
    (work / "manifest.json").write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
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
    return EXIT_OK


def cmd_profiles(args) -> int:
    for option, k in (("--beat-k", args.beat_k), ("--bar-k", args.bar_k)):
        if k < 1:
            raise CliError(f"{option} must be >= 1, got {k}", EXIT_EMPTY)
    work = _workdir(args)
    manifest = _manifest(work)
    if not manifest["train_ids"]:
        raise CliError("the training split is empty", EXIT_EMPTY)
    grids, _ = _load_encoded(work, manifest["train_ids"])
    binary = [binarize(grid) for grid in grids]
    beat_clips = np.concatenate([cut_clips(b, BEAT_WIDTH) for b in binary])
    bar_clips = np.concatenate([cut_clips(b, BAR_WIDTH) for b in binary])
    seed = args.seed + KMEANS_SEED_OFFSET
    effective = {
        "command": "profiles",
        "beat_k": args.beat_k,
        "bar_k": args.bar_k,
        "seed": args.seed,
    }
    stamp = _stamp(effective)
    try:
        beat_cb = build_codebook(beat_clips, "beat", args.beat_k, seed=seed)
        bar_cb = build_codebook(bar_clips, "bar", args.bar_k, seed=seed)
    except ValueError as exc:
        raise CliError(str(exc))
    beat_cb.save(work / "beat_codebook.json")
    bar_cb.save(work / "bar_codebook.json")
    print(f"beat codebook: k={beat_cb.k} wcss={beat_cb.wcss:.4f}")
    print(f"bar codebook:  k={bar_cb.k} wcss={bar_cb.wcss:.4f}")
    if args.elbow:
        low, high = args.elbow
        report = {
            "beat": elbow_report(beat_clips, range(low, high + 1), seed=seed),
            "bar": elbow_report(bar_clips, range(low, high + 1), seed=seed),
            **stamp,
        }
        (work / "elbow.json").write_text(
            json.dumps(report, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )
        print(f"elbow report for k={low}..{high} written to elbow.json")
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
    work = _workdir(args)
    manifest = _manifest(work)
    beat_cb, bar_cb = _load_codebooks(work)
    if not manifest["train_ids"]:
        raise CliError("the training split is empty", EXIT_EMPTY)
    train_grids, train_chords = _load_encoded(work, manifest["train_ids"])
    val_grids, val_chords = _load_encoded(work, manifest["validation_ids"])

    effective = {
        "command": "train",
        "variant": args.variant,
        "chords": args.chords,
        "train_config": conf.to_dict(),
    }
    stamp = _stamp(effective)

    specs = layer_specs(
        args.variant, chords=args.chords, beat_k=beat_cb.k, bar_k=bar_cb.k
    )
    datasets = build_datasets(
        train_grids,
        args.variant,
        beat_codebook=beat_cb,
        bar_codebook=bar_cb,
        chord_tracks=train_chords,
        chords=args.chords,
        piece_ids=manifest["train_ids"],
    )
    val_datasets = (
        build_datasets(
            val_grids,
            args.variant,
            beat_codebook=beat_cb,
            bar_codebook=bar_cb,
            chord_tracks=val_chords,
            chords=args.chords,
            piece_ids=manifest["validation_ids"],
        )
        if val_grids
        else None
    )

    bundle_dir = work / "model" / args.variant
    bundle_dir.mkdir(parents=True, exist_ok=True)
    level_params = {}
    for level in ("bar", "beat", "note"):
        if level not in specs:
            continue
        result = train_layer(
            specs[level],
            datasets[level],
            val_datasets[level] if val_datasets else None,
            layer_config(conf, level),
        )
        level_params[level] = result.params
        csv_path = bundle_dir / f"curves_{level}.csv"
        csv_path.write_text(
            f"# tool_version={stamp['tool_version']} config_hash={stamp['config_hash']}\n"
            + curves_to_csv(result.curves),
            encoding="utf-8",
        )
        last = result.curves[-1] if result.curves else {}
        print(
            f"{level}: {result.iterations_run} iterations ({result.stop_reason}), "
            f"best at {result.best_iteration}, "
            f"val loss {last.get('val_loss', float('nan')):.4f}"
            if "val_loss" in last
            else f"{level}: {result.iterations_run} iterations ({result.stop_reason})"
        )

    model = HrnnModel(
        variant=args.variant,
        level_params=level_params,
        specs=specs,
        beat_codebook=beat_cb,
        bar_codebook=bar_cb,
        chords=args.chords,
        metadata={"tool_version": stamp["tool_version"], "config_hash": stamp["config_hash"]},
    )
    save_bundle(model, bundle_dir)
    print(f"model bundle written to {bundle_dir}")
    return EXIT_OK


def _parse_profile_list(text: str | None, name: str) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        values = tuple(int(part) for part in text.replace(" ", "").split(",") if part)
    except ValueError:
        raise CliError(f"--{name} must be a comma-separated list of integers", EXIT_EMPTY)
    if not values:
        raise CliError(f"--{name} is empty", EXIT_EMPTY)
    return values


def _load_model(work: Path, variant: str) -> HrnnModel:
    bundle_dir = work / "model" / variant
    try:
        return load_bundle(bundle_dir)
    except FileNotFoundError:
        raise CliError(
            f"no trained {variant} bundle in {bundle_dir}; run `melodygen train` first"
        )


def _generation_plan(**fields) -> GenerationPlan:
    """A plan from option values; an invalid value is a usage error."""
    try:
        return GenerationPlan(**fields)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_EMPTY)


def cmd_generate(args) -> int:
    work = _workdir(args)
    model = _load_model(work, args.variant)
    manifest = _manifest(work)

    rng = np.random.default_rng(args.seed)
    primer_events, primer_bar, primer_beat, primer_chords = _choose_primer(
        work, manifest, model, rng, args.primer_piece
    )

    fixed_bar = _parse_profile_list(args.fixed_bar_profiles, "fixed-bar-profiles")
    fixed_beat = _parse_profile_list(args.fixed_beat_profiles, "fixed-beat-profiles")
    if fixed_bar is not None:
        fixed_bar = tile_profiles(fixed_bar, args.bars)
        _check_profile_range(fixed_bar, model.bar_codebook, "bar")
    if fixed_beat is not None:
        fixed_beat = tile_profiles(fixed_beat, args.bars * 4)
        _check_profile_range(fixed_beat, model.beat_codebook, "beat")

    plan = _generation_plan(
        bars=args.bars,
        mode=args.mode,
        temperature=args.temperature,
        beam_width=args.beam_width,
        seed=args.seed,
        primer_events=primer_events,
        primer_bar_profile=primer_bar,
        primer_beat_profile=primer_beat,
        fixed_bar_profiles=fixed_bar,
        fixed_beat_profiles=fixed_beat,
        chords=primer_chords if model.chords else (),
    )
    effective = {
        "command": "generate",
        "variant": args.variant,
        "bars": args.bars,
        "mode": args.mode,
        "temperature": args.temperature,
        "beam_width": args.beam_width,
        "seed": args.seed,
        "sustain": args.sustain,
        "tempo": args.tempo,
    }
    stamp = _stamp(effective)
    try:
        result = generate(model.level_params, model.specs, plan)
    except ValueError as exc:
        raise CliError(str(exc))

    notes = grid_decode(result.grid)
    if args.sustain:
        notes = sustain_extend(notes)
    midi = write_midi(
        notes,
        tempo_bpm=args.tempo,
        text_events=(f"melodygen {stamp['tool_version']} config {stamp['config_hash']}",),
    )
    out_path = Path(args.out) if args.out else work / "generated" / f"melody_{args.seed}.mid"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_bytes(midi)
    trace = dict(result.trace)
    trace.update(stamp)
    trace_path = out_path.with_suffix(".json")
    trace_path.write_text(
        json.dumps(trace, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {out_path} and {trace_path.name} "
          f"({len(result.grid)} steps, {len(notes)} notes)")
    return EXIT_OK


def _check_profile_range(values, codebook, kind) -> None:
    if codebook is None:
        raise CliError(f"model has no {kind} codebook to interpret fixed profiles")
    bad = [v for v in values if not 0 <= v < codebook.k]
    if bad:
        raise CliError(
            f"fixed {kind} profile index {bad[0]} outside codebook 0..{codebook.k - 1}",
            EXIT_EMPTY,
        )


def _choose_primer(work, manifest, model, rng, primer_piece: str | None):
    """Primer from an explicit piece id, else a seeded validation draw."""
    pool = manifest["validation_ids"] or manifest["train_ids"]
    if primer_piece is not None:
        if primer_piece not in manifest["accepted_ids"]:
            raise CliError(f"primer piece {primer_piece!r} is not in the corpus", EXIT_EMPTY)
        piece_id = primer_piece
    elif pool:
        piece_id = pool[int(rng.integers(len(pool)))]
    else:
        raise CliError("no pieces available to draw a primer from", EXIT_EMPTY)
    (grid,), (chords,) = _load_encoded(work, [piece_id])
    return (*_primer_of(grid, model), chords)


def _primer_of(grid, model) -> tuple[tuple[int, ...], int | None, int | None]:
    """A grid's first beat of events and its first bar and beat profiles."""
    bar_idx, beat_idx = profile_sequences(grid, model.beat_codebook, model.bar_codebook)
    return (
        tuple(int(e) for e in grid.events[:4]),
        int(bar_idx[0]) if bar_idx is not None else None,
        int(beat_idx[0]) if beat_idx is not None else None,
    )


def cmd_eval(args) -> int:
    work = _workdir(args)
    model = _load_model(work, args.variant)
    manifest = _manifest(work)
    ids = manifest["validation_ids"] or manifest["train_ids"]
    if not ids:
        raise CliError("no pieces to evaluate on", EXIT_EMPTY)
    grids, chord_tracks = _load_encoded(work, ids)
    datasets = build_datasets(
        grids,
        model.variant,
        beat_codebook=model.beat_codebook,
        bar_codebook=model.bar_codebook,
        chord_tracks=chord_tracks,
        chords=model.chords,
        piece_ids=ids,
    )
    effective = {"command": "eval", "variant": args.variant, "seed": args.seed}
    metrics: dict = {"levels": {}, "pieces": len(ids)}
    for level, sequences in datasets.items():
        if level not in model.level_params:
            continue
        metrics["levels"][level] = evaluate_layer(
            model.level_params[level],
            sequences,
            no_event_index=NO_EVENT if level == "note" else None,
        )

    adherence = _generation_adherence(model, grids, args)
    if adherence:
        metrics["generation_adherence"] = adherence
    metrics.update(_stamp(effective))
    out_path = work / f"metrics_{args.variant}.json"
    out_path.write_text(
        json.dumps(metrics, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
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

    If a generation is rejected, the result is ``{"error": <reason>}``.
    """
    if "note" not in model.level_params or args.adherence_samples < 1:
        return {}
    bar_scores, beat_scores = [], []
    for index in range(args.adherence_samples):
        source = grids[index % len(grids)]
        primer_events, primer_bar, primer_beat = _primer_of(source, model)
        plan = _generation_plan(
            bars=source.n_bars,
            mode="sample",
            temperature=args.temperature,
            seed=args.seed + index,
            primer_events=primer_events,
            primer_bar_profile=primer_bar,
            primer_beat_profile=primer_beat,
        )
        try:
            result = generate(model.level_params, model.specs, plan)
        except ValueError as exc:
            return {"error": f"generation with seed {plan.seed} failed: {exc}"}
        if result.bar_profiles is not None and model.bar_codebook is not None:
            bar_scores.append(
                profile_adherence(result.grid, result.bar_profiles, model.bar_codebook)
            )
        if result.beat_profiles is not None and model.beat_codebook is not None:
            beat_scores.append(
                profile_adherence(result.grid, result.beat_profiles, model.beat_codebook)
            )
    out = {}
    if bar_scores:
        out["bar"] = float(np.mean(bar_scores))
    if beat_scores:
        out["beat"] = float(np.mean(beat_scores))
    return out


def cmd_export_midi(args) -> int:
    path = Path(args.leadsheet)
    if not path.exists():
        raise CliError(f"lead sheet {path} does not exist", EXIT_EMPTY)
    sheet = loads_leadsheet(path.read_text(encoding="utf-8"))
    grid = grid_encode(normalize_sheet(sheet))
    notes = grid_decode(grid)
    if args.sustain:
        notes = sustain_extend(notes)
    effective = {
        "command": "export-midi",
        "sustain": args.sustain,
        "tempo": args.tempo,
        "seed": args.seed,
    }
    stamp = _stamp(effective)
    midi = write_midi(
        notes,
        tempo_bpm=args.tempo,
        text_events=(f"melodygen {stamp['tool_version']} config {stamp['config_hash']}",),
    )
    out_path = Path(args.out) if args.out else path.with_suffix(".mid")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_bytes(midi)
    print(f"wrote {out_path} ({len(notes)} notes)")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master random seed")
    parser.add_argument("--config", default=None, help="JSON file of option defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melodygen", description="melody-grid modeling pipeline"
    )
    parser.add_argument("--version", action="version", version=f"melodygen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text)

    p = add_command("ingest", "parse a corpus directory into the work dir")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--work-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = add_command("profiles", "build rhythm-profile codebooks")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--beat-k", type=int, default=8)
    p.add_argument("--bar-k", type=int, default=16)
    p.add_argument(
        "--elbow",
        type=_parse_range,
        default=None,
        metavar="LOW:HIGH",
        help="also write a WCSS-vs-k elbow report over this inclusive range",
    )
    _add_common(p)
    p.set_defaults(func=cmd_profiles)

    p = add_command("train", "train the generator hierarchy")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--variant", choices=("1L", "2L", "3L"), default="3L")
    p.add_argument("--chords", action="store_true", help="condition on chord chroma")
    p.add_argument("--max-iterations", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--hidden-size", type=int, default=256)
    p.add_argument("--lstm-layers", type=int, default=2)
    p.add_argument("--eval-every", type=int, default=20)
    p.add_argument("--patience", type=int, default=5)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = add_command("generate", "decode a melody from a trained bundle")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--variant", choices=("1L", "2L", "3L"), default="3L")
    p.add_argument("--bars", type=int, default=16)
    p.add_argument("--mode", choices=("sample", "beam"), default="sample")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--beam-width", type=int, default=3)
    p.add_argument("--primer-piece", default=None, help="corpus id to take the primer from")
    p.add_argument("--fixed-bar-profiles", default=None,
                   help="comma-separated profile indices, tiled to the bar count")
    p.add_argument("--fixed-beat-profiles", default=None,
                   help="comma-separated profile indices, tiled to the beat count")
    p.add_argument("--sustain", action="store_true",
                   help="extend notes to bar ends or the next onset")
    p.add_argument("--tempo", type=int, default=120)
    p.add_argument("--out", default=None, help="output MIDI path")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = add_command("eval", "teacher-forcing metrics on the validation split")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--variant", choices=("1L", "2L", "3L"), default="3L")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--adherence-samples", type=int, default=4)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = add_command("export-midi", "render a cached lead-sheet JSON to MIDI")
    p.add_argument("--leadsheet", required=True, help="path to a lead-sheet JSON file")
    p.add_argument("--sustain", action="store_true")
    p.add_argument("--tempo", type=int, default=120)
    p.add_argument("--out", default=None)
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
        if args.seed is None:
            args.seed = 0
        return args.func(args)
    except SystemExit as exc:
        return EXIT_EMPTY if exc.code not in (0, None) else EXIT_OK
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # operational failures map to exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
