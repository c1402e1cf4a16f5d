"""sha256 of every file that the documented CLI chain writes, per seed.

    PYTHONPATH=src python tests/support/chain_digest.py 4101 4102 4103 4104

For each seed it writes the pipeline benchmark's corpus, with the code of
``perfbench.workloads.PipelineWorkload.setup`` (240 pieces of 8 bars, every
other one MusicXML), and runs this chain through ``melodygen``'s CLI, in
process and all with the seed:

    ingest
    profiles --elbow 2:8
    train 3L --chords (H=32, L=1); train 2L (H=32, L=2);
        train 1L (H=32, L=3, --batch-size 7); 20 iterations each
    eval, generate --mode sample and generate --mode beam, for each variant
    generate 3L --fixed-bar-profiles 0,1 --fixed-beat-profiles 1,0;
        generate 2L --fixed-beat-profiles 0;
        generate 3L --primer-piece <the first accepted id>
    export-midi of the first cached lead sheet

It prints ``sha256  <seed>/<path>`` for every file under the seed's
directory, corpus included, sorted by path. ``melodygen`` is imported from
the import path, so pointing ``PYTHONPATH`` at another tree's ``src`` digests
that tree: two trees write the same bytes when ``diff`` of their outputs is
empty. ``--small`` runs a reduced chain (10 pieces), which the tier-1
determinism gate uses; ``--root DIR`` keeps the files in DIR.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

# perfbench lives at the repository root and imports support from tests/.
for _path in Path(__file__).resolve().parents[2:0:-1]:
    if str(_path) not in sys.path:
        sys.path.append(str(_path))

from perfbench.workloads import FULL, PipelineWorkload, cli_step

# Each variant's own train options.
TRAIN_OPTIONS = {
    "3L": ("--chords", "--lstm-layers", 1),
    "2L": ("--lstm-layers", 2),
    "1L": ("--lstm-layers", 3, "--batch-size", 7),
}


@dataclasses.dataclass(frozen=True)
class Chain:
    """Corpus size and the options that the chain passes to every variant."""

    pieces: int
    elbow: str
    hidden: int
    iterations: int
    eval_every: int
    bars: int  # generated bars


FULL_CHAIN = Chain(pieces=FULL.pipeline_pieces, elbow=FULL.pipeline_elbow, hidden=32,
                   iterations=20, eval_every=20, bars=16)
SMALL_CHAIN = Chain(pieces=10, elbow="2:4", hidden=4, iterations=2, eval_every=1, bars=2)


def run_chain(root: Path, seed: int, chain: Chain) -> None:
    """Write the corpus under ``root/corpus`` and run the chain in ``root/work``."""
    sizes = dataclasses.replace(FULL, pipeline_pieces=chain.pieces)
    corpus_dir = PipelineWorkload().setup(root, seed, sizes).corpus_dir
    work = root / "work"
    common = ("--work-dir", work, "--seed", seed)
    cli_step("ingest", "--corpus-dir", corpus_dir, *common)
    cli_step("profiles", *common, "--elbow", chain.elbow)
    first_id = json.loads((work / "manifest.json").read_bytes())["accepted_ids"][0]
    # Each variant's generate runs, by output name.
    generate_runs = {
        "3L": {"fixed": ("--fixed-bar-profiles", "0,1", "--fixed-beat-profiles", "1,0"),
               "primer": ("--primer-piece", first_id)},
        "2L": {"fixed": ("--fixed-beat-profiles", "0")},
        "1L": {},
    }
    for variant, options in TRAIN_OPTIONS.items():
        cli_step("train", *common, "--variant", variant, *options, "--hidden-size", chain.hidden,
                 "--max-iterations", chain.iterations, "--eval-every", chain.eval_every)
        cli_step("eval", *common, "--variant", variant)
        runs = {mode: ("--mode", mode) for mode in ("sample", "beam")} | generate_runs[variant]
        for name, run in runs.items():
            cli_step("generate", *common, "--variant", variant, *run,
                     "--bars", chain.bars, "--out", work / "generated" / f"{variant}-{name}.mid")
    first = sorted((work / "leadsheets").iterdir())[0]
    cli_step("export-midi", "--leadsheet", first, "--out", work / "exported.mid", "--seed", seed)


def digests(root: Path) -> list[str]:
    """``sha256  <relative path>`` of every file under ``root``, sorted by path."""
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}"
            for p in files]


def chain_digests(root: Path, seeds: list[int], chain: Chain) -> list[str]:
    """Run the chain for each seed under ``root/<seed>``; the digests of all files."""
    for seed in seeds:
        run_chain(root / str(seed), seed, chain)
    return digests(root)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--small", action="store_true", help="the reduced chain of the tier-1 gate")
    parser.add_argument("--root", type=Path, default=None, help="keep the files here")
    args = parser.parse_args(argv)
    chain = SMALL_CHAIN if args.small else FULL_CHAIN
    with tempfile.TemporaryDirectory() as scratch:
        for line in chain_digests(args.root or Path(scratch), args.seeds, chain):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
