"""vecmerge benchmark: closed-loop CLI operations on seeded synthetic inputs.

    python3 perfbench/run.py --workload ties_sweep --seed 1 --seconds 25 --trace 0

Works in the checkout that contains it, from any directory, and builds
nothing. One client runs one operation at a time and waits for it (a
closed loop); children are started by the helper in `launcher.py`.
The measurement itself is in `measure.py`. The last stdout line is the
result object; the line before it holds the details (inputs, samples,
error rate, environment). Exits 2, printing no result, when the
checkout has no vecmerge sources.
"""

import argparse
import os
import sys
from pathlib import Path

from launcher import Launcher


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="ties_sweep, tv_merge_large, toy_bench or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # Paths handed to the program are relative to the checkout root.
    os.chdir(Path(__file__).resolve().parents[1])
    # The toy bench's matrices are tiny, so BLAS threads only add spin-waits
    # that make its timings depend on what else the other core runs. Every
    # operation, child or in-process, uses single-threaded BLAS.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    launcher = Launcher()  # forked before numpy loads, so it stays small
    try:
        import measure
        return measure.main(args.workload, args.seed, args.seconds, bool(args.trace), launcher)
    finally:
        launcher.close()


if __name__ == "__main__":
    sys.exit(main())
