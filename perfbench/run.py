"""melodygen benchmark entry point.

    python3 perfbench/run.py --workload {train,generate,pipeline,all} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the repository root. It measures the program under ``src/`` of the
same tree, prints each metric by name with its unit and sample count, writes
a results file (and, traced, the spans) under ``perfbench/out/``, and ends
with one JSON line: correct, attempted, failed and the metrics. ``all`` runs
each workload in a child process of its own and merges their JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("train", "generate", "pipeline")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, one operation, traced")
    return parser.parse_args(argv)


def run_each(args) -> int:
    """Run every workload in a process of its own, so each reports its own peak memory."""
    results = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
            + (["--smoke"] if args.smoke else []),
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines))
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        results.append(json.loads(lines[-1]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{name}.{k}": v for name, r in zip(WORKLOAD_NAMES, results)
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "melodygen" / "__init__.py").is_file():
        print(f"error: no melodygen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_each(args)
    # tests/support holds the MIDI reader and MusicXML builder the checks reuse.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]
    from perfbench import envinfo

    envinfo.pin_blas_threads()  # before numpy loads: BLAS reads it once
    from perfbench import bench, workloads

    workdir = OUT / f"work-{os.getpid()}"
    trace, seconds = (True, 0.0) if args.smoke else (bool(args.trace), args.seconds)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    try:
        m = bench.measure(args.workload, args.seed, seconds, trace, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(bench.report(m)))
    print(f"results in {bench.save(m, ROOT, OUT, sizes).relative_to(ROOT)}")
    print(json.dumps(bench.result_line(m)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
