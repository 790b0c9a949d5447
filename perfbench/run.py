"""sphererec benchmark: one-epoch training and full-catalog ranking, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload mf-rau-catalog --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Each run generates its workload's interaction file from the seed, then does
what `sphererec train` and `sphererec eval` do, through the library API:
load and split the file, fit one epoch, write the checkpoint, read it back,
encode it and rank the whole catalog for every test user. With `--trace 0`
the last line of standard output is a JSON object holding the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a traced repeat
of the same sequence. README.md explains the workloads and the metrics.

This launcher pins BLAS to one thread, which only takes effect before numpy
is first imported, and imports sphererec from this checkout's `src/` only.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if "numpy" in sys.modules:
        print("error: numpy was imported before the BLAS thread caps were set", file=sys.stderr)
        return 2
    for name in THREAD_VARS:
        os.environ[name] = "1"
    thread_env = {name: os.environ[name] for name in THREAD_VARS}
    if any(value != "1" for value in thread_env.values()):
        print(f"error: BLAS thread caps are not 1: {thread_env}", file=sys.stderr)
        return 2
    if not (SRC / "sphererec" / "__init__.py").is_file():
        print(f"error: no sphererec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import bench

    package_dir = Path(bench.trainer.__file__).resolve().parent
    if package_dir != SRC / "sphererec":
        print(f"error: imported sphererec from {package_dir}, not {SRC}", file=sys.stderr)
        return 2
    return bench.main(sys.argv[1:], thread_env)


if __name__ == "__main__":
    sys.exit(main())
