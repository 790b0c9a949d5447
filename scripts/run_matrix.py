"""Hash every artifact of a fixed matrix of CLI runs, so two checkouts can be compared byte for byte.

    python3 scripts/run_matrix.py --out digests.json [--reduced]
    python3 scripts/run_matrix.py --compare a.json b.json

The matrix runs on a seeded synthetic TSV with BLAS on one thread:

- `train` for `mf` and `lightgcn` under `rau`, `directau` and `bpr`, each
  with early stopping, with `--fixed-epochs` and with `--max-epochs 0`, plus
  `bpr` with full-history rejection; every `rau` train runs both of RAU's
  regularizers with an asymmetric gamma (RAU_WEIGHTS);
- `eval` of every trained checkpoint on both parts in both score modes;
- `sweep`, `geometry` and `inspect`;
- a wide section, at shapes where the blocked and threaded paths run:
  `train` of `mf`/`rau`, `lightgcn`/`rau` and `lightgcn`/`bpr` and their
  test `eval` on 1,200 users x 800 items at dim 128 and batch 600 (several
  Adam blocks, ranking chunks, kernel blocks on two lanes and propagation
  blocks), once under `RAU_NUM_THREADS=1` (in `wide/width-1/`) and once
  without it (in `wide/width-default/`).

Every file the runs write, and each command's standard output, gets a
SHA-256; `report.json`'s wall times are zeroed before hashing. `--reduced`
keeps the early-stopping run of each encoder and objective and its test
`eval`, and skips the wide section. `--compare` prints "N of N
byte-identical", and, for each file holding the wide section, how many of
its width pairs are equal; it exits 1 on any difference between the files
or within a width pair.

BLAS kernels differ by CPU, so compare two checkouts on one machine: put
this script in each checkout's `scripts/` and run it there. It imports the
package from the checkout's `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
DATASET = "data.tsv"
COMMON = ["--dataset", DATASET, "--dim", "8", "--lr", "0.05", "--batch-size", "64", "--seed", "3"]
STOPPING = {
    "early": ["--max-epochs", "30", "--patience", "2"],
    "fixed": ["--max-epochs", "3", "--fixed-epochs"],
    "zero": ["--max-epochs", "0"],
}
# every rau train's weights: both regularizers on, and each side's own gamma
RAU_WEIGHTS = ["--alpha", "0.5", "--beta", "5", "--gamma-user", "0.7", "--gamma-item", "0.3"]
# the wide section's data (users, items, items per user) and fit flags
WIDE_SHAPE = (1200, 800, 10)
WIDE_DIM, WIDE_BATCH = 128, 600
WIDE_COMMON = ["--dataset", f"../{DATASET}", "--dim", str(WIDE_DIM), "--lr", "0.05",
               "--batch-size", str(WIDE_BATCH), "--seed", "3", "--max-epochs", "3",
               "--patience", "3"]
WIDE_RUNS = (("mf", "rau"), ("lightgcn", "rau"), ("lightgcn", "bpr"))
# each width's directory, and the RAU_NUM_THREADS it runs under (None: unset)
WIDTHS = {"width-1": "1", "width-default": None}
# the sweep's grid: alpha, beta and the coupled gamma ratio
SWEEP_GRID = ["--grid", "alpha=0,0.5", "--grid", "beta=0,1",
              "--grid", "gamma_user/gamma_item=0.5/0.5,0.7/0.3"]


def write_dataset(path: Path, shape=(80, 40, 8)) -> None:
    from sphererec import data

    ds = data.two_cluster_dataset(*shape, seed=5)
    path.write_text("".join(f"u{u}\ti{i}\n" for u, i in ds.interactions), encoding="utf-8")


def run(label: str, argv: list[str]) -> None:
    """Run one CLI command, keeping its standard output as the artifact `stdout/<label>.txt`."""
    from sphererec import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--single-thread", *argv])
    if code != 0:
        raise SystemExit(f"{label}: exit code {code}\n{err.getvalue()}")
    Path("stdout").mkdir(exist_ok=True)
    Path("stdout", f"{label}.txt").write_text(out.getvalue(), encoding="utf-8")


def model_flags(encoder: str, objective: str) -> list[str]:
    """A train's encoder and objective flags, with RAU_WEIGHTS for `rau`."""
    return ["--encoder", encoder, "--objective", objective,
            *(RAU_WEIGHTS if objective == "rau" else [])]


def main_trains(reduced: bool) -> list[tuple[str, list[str]]]:
    """(label, flags after COMMON) of the main section's trains."""
    trains = [(f"{encoder}-{objective}-{stopping}", [*model_flags(encoder, objective), *flags])
              for encoder in ("mf", "lightgcn") for objective in ("rau", "directau", "bpr")
              for stopping, flags in STOPPING.items() if stopping == "early" or not reduced]
    if not reduced:
        trains += [(f"{encoder}-bpr-full-history", [*model_flags(encoder, "bpr"),
                                                    "--config", "bpr-full-history.json",
                                                    *STOPPING["early"]])
                   for encoder in ("mf", "lightgcn")]
    return trains


def run_matrix(reduced: bool) -> None:
    """Run the matrix in the current directory."""
    write_dataset(Path(DATASET))
    Path("bpr-full-history.json").write_text('{"bpr_full_history_rejection": true}\n',
                                             encoding="utf-8")
    trains = main_trains(reduced)
    evals = [("test", "cosine")] if reduced else [
        (part, mode) for part in ("validation", "test") for mode in ("cosine", "dot")]
    Path("eval").mkdir()
    for label, flags in trains:
        out_dir = Path("train", label)
        run(f"train-{label}", ["train", *COMMON, *flags, "--out-dir", str(out_dir)])
        (checkpoint,) = out_dir.iterdir()
        for part, mode in evals:
            name = f"{label}-{part}-{mode}"
            run(f"eval-{name}", ["eval", "--checkpoint", str(checkpoint), "--part", part,
                                 "--score-mode", mode, "--k", "5", "20",
                                 "--out", f"eval/{name}.json", "--out-csv", f"eval/{name}.csv"])
    if reduced:
        return
    run("sweep", ["sweep", *COMMON, *STOPPING["early"], *SWEEP_GRID,
                  "--k", "5", "20", "--out", "sweep/sweep.csv"])
    run("geometry", ["geometry", "--step", "5", "--case", "0", "90", "200",
                     "--out-dir", "geometry"])
    run("inspect", ["inspect", "--dataset", DATASET, "--split-seed", "3",
                    "--manifest", "inspect-manifest.json"])
    run_wide()


def run_wide() -> None:
    """Run the wide section under `wide/`, once per entry of WIDTHS, in its own directory."""
    Path("wide").mkdir()
    write_dataset(Path("wide", DATASET), WIDE_SHAPE)
    caller_cap = os.environ.pop("RAU_NUM_THREADS", None)
    try:
        for width, cap in WIDTHS.items():
            if cap is not None:
                os.environ["RAU_NUM_THREADS"] = cap
            Path("wide", width).mkdir()
            os.chdir(Path("wide", width))  # so both widths write the same relative paths
            try:
                for encoder, objective in WIDE_RUNS:
                    label = f"{encoder}-{objective}"
                    run(f"train-{label}", ["train", *WIDE_COMMON, *model_flags(encoder, objective),
                                           "--out-dir", label])
                    (checkpoint,) = Path(label).iterdir()
                    run(f"eval-{label}", ["eval", "--checkpoint", str(checkpoint),
                                          "--part", "test", "--k", "5", "20",
                                          "--out", f"eval-{label}.json"])
            finally:
                os.chdir(Path("..", ".."))
                os.environ.pop("RAU_NUM_THREADS", None)
    finally:
        if caller_cap is not None:
            os.environ["RAU_NUM_THREADS"] = caller_cap


def artifact_bytes(path: Path) -> bytes:
    """The file's bytes; for report.json, as written but with every wall time set to 0."""
    if path.name != "report.json":
        return path.read_bytes()
    report = json.loads(path.read_text(encoding="utf-8"))
    report["total_time_s"] = 0.0
    for entry in report["diagnostics"]:
        entry["wall_time_s"] = 0.0
    return (json.dumps(report, indent=2) + "\n").encode("utf-8")


def digests(work_dir: Path, reduced: bool) -> dict[str, str]:
    """Run the matrix in the empty `work_dir`; return {relative path: SHA-256} of every file."""
    previous = Path.cwd()
    os.chdir(work_dir)  # relative paths keep the checkpoint sidecars and stdout comparable
    try:
        run_matrix(reduced)
        return {path.as_posix(): hashlib.sha256(artifact_bytes(path)).hexdigest()
                for path in sorted(Path(".").rglob("*")) if path.is_file()}
    finally:
        os.chdir(previous)


def width_pairs(files: dict[str, str]) -> tuple[list[str], list[str]]:
    """The wide section's artifact names (relative to a width's directory), and those whose
    digests differ between the widths or that only one width wrote."""
    one, default = ({name.split("/", 2)[2]: digest for name, digest in files.items()
                     if name.startswith(f"wide/{width}/")} for width in WIDTHS)
    names = sorted(one.keys() | default.keys())
    return names, [name for name in names if one.get(name) != default.get(name)]


def compare(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(p.read_text(encoding="utf-8"))["files"] for p in (path_a, path_b))
    names = sorted(a.keys() | b.keys())
    differing = [name for name in names if a.get(name) != b.get(name)]
    for name in differing:
        where = "differs" if name in a and name in b else f"only in {path_a if name in a else path_b}"
        print(f"{where}: {name}")
    print(f"{len(names) - len(differing)} of {len(names)} byte-identical")
    unequal_pairs = 0
    for path, files in ((path_a, a), (path_b, b)):
        pairs, unequal = width_pairs(files)
        for name in unequal:
            print(f"width pair differs in {path}: {name}")
        if pairs:
            print(f"{path}: {len(pairs) - len(unequal)} of {len(pairs)} width pairs equal")
        unequal_pairs += len(unequal)
    return 1 if differing or unequal_pairs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the digests here as JSON")
    parser.add_argument("--reduced", action="store_true",
                        help="one early-stopping run per encoder and objective")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two digest files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("--out is required unless --compare is given")
    for name in THREAD_VARS:
        os.environ[name] = "1"  # only takes effect before numpy is first imported
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as work_dir:
        files = digests(Path(work_dir), args.reduced)
    args.out.write_text(json.dumps({"files": files}, indent=2) + "\n", encoding="utf-8")
    print(f"{len(files)} artifacts hashed into {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
