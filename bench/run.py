"""Benchmark of the freepacket package: three workloads driven from outside.

    python3 bench/run.py --workload {figures,sweep,oracle} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src, nothing is
installed.  One process, a closed loop with one client: each op is sent only
after the previous one has finished and its output has been checked.  BLAS
threads are pinned before NumPy loads.  Inputs are generated from --seed
(see workloads.py); the same seed gives the same inputs.

Set-up (median of several repeats): a fresh interpreter importing the
package, then the workload's seeded warm-up ops, which make the first calls
at every grid size the timed ops use.

--trace 0 measures for --seconds, in whole blocks (every input class once),
and reports the end-to-end metrics.  --trace 1 runs a fixed op list sized
from --seconds twice, untraced and then with the span tracer installed, and
reports the per-layer metrics; trace.overhead_ratio is traced over untraced
throughput on the same ops.

Output: a report (environment, every metric with its unit, sample counts),
then as the last line one JSON object with the keys correct, attempted,
failed and metrics.  Exit status 2, without a result, when ./src/freepacket
is missing.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread (nproc is 2 on the reference machine): the O(N^2)
# matrix-vector products in `oracle` stay steady when the host is shared.
BLAS_THREADS = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figures", "sweep", "oracle"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "freepacket" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'freepacket'}", file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import harness

    return harness.run(args, ROOT, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
