#!/usr/bin/env python3
"""sbprop benchmark: run one workload through `sbprop.cli.main` and report.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload deep_strong_p400 --seed 1 --seconds 15 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics and the tracing overhead; `--smoke` shrinks every workload to a
tiny size.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  The exit code is 0
when every operation passed its output check, 1 when one failed and 2
when the checkout is unusable (no `src/sbprop` or `configs`).  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A fixed BLAS thread count, at most 2 and at most the CPU count.  These
# variables must be in the environment before numpy is imported, so
# nothing above this line may import it.
BLAS_THREADS = min(2, os.cpu_count() or 1)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for checking the benchmark itself")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)

    src = ROOT / "src"
    if not (src / "sbprop" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no sbprop sources (src/sbprop) and configs",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))

    import harness
    return harness.run(ROOT, args)


if __name__ == "__main__":
    sys.exit(main())
