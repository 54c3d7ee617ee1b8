"""Benchmark command for saps: one workload, one seed, one run.

    python3 bench/run.py --workload sim-wide --seed 1 --seconds 27 --trace 0

Run it from the root of a source checkout; it imports the package from the
checkout's `src/`, never from an installed copy.  With `--trace 0` the
last line of standard output is a JSON object with the end-to-end metrics;
with `--trace 1` it holds the per-layer metrics of a traced run instead.
The metrics table on standard error and the raw per-run record written
under `bench/out/` are for people; the last line is the result.  Exit
status 2 means the checkout has no package to measure.
"""

import os

# One BLAS/OpenMP thread: the load stays in this one process and numpy adds
# no threads to the fabric's own.  Must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim-wide", "sim-many", "tcp-dense", "verify-contraction"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "saps" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'saps'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import saps

    if Path(saps.__file__).resolve().parent != (SRC / "saps").resolve():
        print(f"error: imported saps from {saps.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # One CPU for the whole process.  The TCP fabric's threads then hand the
    # GIL to each other on one core instead of waking each other across
    # cores; on a shared 2-vCPU VM those cross-core wake-ups doubled the
    # tcp-dense round tail in some runs and not in others.  Threads inherit
    # the mask, so this precedes every thread the package starts.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import reference
    import workloads

    reference.self_check()
    out_dir = HERE / "out"
    result, raw = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"result": result, **raw}, indent=1))
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    if "failure" in raw:
        print(f"check failed: {raw['failure']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
