"""The whole CLI chain writes the same bytes in two processes.

The chain of ``support.chain_digest`` on a small mixed MusicXML/JSON corpus
(dropout 0.5, ``--chords``, ``--elbow``, 3L/2L/1L, eval, sample and beam,
fixed profiles, a named primer piece, export-midi) runs once in this process
and once in a child process with another ``PYTHONHASHSEED`` and another
directory. No digest is pinned: the files that BLAS computes may differ
between machines, not between runs.
"""

import os
import subprocess
import sys
from pathlib import Path

from support import chain_digest

SEED = 11


def test_chain_files_are_equal_in_two_processes(tmp_path):
    here = chain_digest.chain_digests(tmp_path / "here", [SEED], chain_digest.SMALL_CHAIN)
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = Path(chain_digest.__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, chain_digest.__file__, "--small", "--root", tmp_path / "there", str(SEED)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert child == here
    paths = [line.split("  ", 1)[1] for line in here]
    for name in ("work/elbow.json", "work/model/3L/note.ckpt", "work/model/2L/beat.ckpt",
                 "work/model/1L/note.ckpt", "work/metrics_1L.json", "work/generated/3L-beam.mid",
                 "work/generated/1L-sample.mid", "work/generated/3L-fixed.mid",
                 "work/generated/2L-fixed.mid", "work/generated/3L-primer.mid",
                 "work/exported.mid"):
        assert f"{SEED}/{name}" in paths
    assert sum(path.endswith(".musicxml") for path in paths) == 5
