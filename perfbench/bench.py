"""The benchmark proper; run.py pins BLAS to one thread before importing this.

Every call into the package goes through a module attribute
(`trainer.fit`, `evaluation.evaluate`, ...), so the wrappers that
`tracing.Tracer.installed()` puts in place see the traced run's calls.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from sphererec import data, encoders, evaluation, hypersphere, trainer

import checks
from tracing import OVERHEAD_SPAN, Tracer
from workloads import WORKLOADS, write_ring_block_tsv

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
KS = (20, 50)
MAX_UNATTRIBUTED_FRAC = 0.10


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sphererec benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the window the untraced run samples in")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- the sequence every run times ------------------------------------------


def load_and_split(tsv: Path, seed: int):
    return data.split_per_user(data.load_interactions(tsv), seed=seed)


def encode(split, user_table, item_table, cfg):
    """What `sphererec eval` does to a checkpoint before ranking."""
    if cfg.encoder == "mf":
        return user_table.values, item_table.values
    adjacency = encoders.build_norm_adjacency(split.train)
    return encoders.lightgcn_propagate(user_table, item_table, adjacency,
                                       encoders.GraphEncoderConfig(num_layers=cfg.num_layers))


def fit_and_save(split, cfg, checkpoint: Path):
    """Fit one epoch and write the checkpoint, as `sphererec train` does; time the fit."""
    started = time.perf_counter()
    _, user_table, item_table = trainer.fit(split, cfg)
    fit_s = time.perf_counter() - started
    hypersphere.save_checkpoint(checkpoint, user_table, item_table, cfg.seed, cfg.to_dict())
    return fit_s, (user_table.values, item_table.values)


def load_and_rank(split, cfg, score_mode, checkpoint: Path):
    """Read the checkpoint, encode it and rank the test part, as `sphererec eval` does."""
    started = time.perf_counter()
    user_table, item_table, _ = hypersphere.load_checkpoint(checkpoint)
    encoded = encode(split, user_table, item_table, cfg)
    report = evaluation.evaluate(split, *encoded, ks=KS, part="test", score_mode=score_mode)
    eval_s = time.perf_counter() - started
    return eval_s, (user_table.values, item_table.values), encoded, report


# -- untraced run: end-to-end metrics --------------------------------------

# Share of the measurement window each kind of sample gets. The kinds take
# turns, so each one's samples spread over the whole window and a slow
# spell of the machine lands on all of them instead of on one.
SHARES = {"setup": 0.2, "fit": 0.5, "eval": 0.3}
# Set-up is short, so it always gets several samples: half before the first
# fit and the rest, if the window left no room for them, at the end.
MIN_SETUPS = 6


def timed_run(tally, workload, seed, seconds, tsv, work_dir):
    cfg = workload.train_config(seed)
    checkpoint = work_dir / "checkpoint"
    samples = {kind: [] for kind in SHARES}
    first = {}

    def setup():
        started = time.perf_counter()
        split = load_and_split(tsv, seed)
        samples["setup"].append(time.perf_counter() - started)
        if "split" in first:
            tally.expect(split_sizes(split) == split_sizes(first["split"]),
                         "a repeated load and split gave other part sizes")
        else:
            first["split"] = split

    def fit():
        fit_s, tables = fit_and_save(first["split"], cfg, checkpoint)
        samples["fit"].append(fit_s)
        if "tables" in first:
            tally.expect(checks.same_bits(tables, first["tables"]),
                         "a repeated fit gave other tables")
        else:
            first["tables"] = tables

    def rank():
        eval_s, loaded, encoded, report = load_and_rank(first["split"], cfg, workload.score_mode,
                                                        checkpoint)
        samples["eval"].append(eval_s)
        if "report" in first:
            tally.expect(report == first["report"], "a repeated evaluation gave another report")
        else:
            first["report"] = report
            checks.check_ranking(tally, first["split"], first["tables"], loaded, encoded, report,
                                 KS, workload.score_mode, seed)

    run = {"setup": setup, "fit": fit, "eval": rank}
    started = time.perf_counter()
    for kind in ["setup"] * (MIN_SETUPS // 2) + ["fit", "eval"]:
        run[kind]()
    while True:
        remaining = seconds - (time.perf_counter() - started)
        fitting = [k for k in SHARES if statistics.median(samples[k]) <= remaining]
        if not fitting:
            break
        run[min(fitting, key=lambda k: sum(samples[k]) / SHARES[k])]()
    while len(samples["setup"]) < MIN_SETUPS:
        setup()

    split, report = first["split"], first["report"]
    metrics = {
        "setup_s": (statistics.median(samples["setup"]), "s"),
        "train_pairs_per_s": (split.train.num_interactions / statistics.median(samples["fit"]),
                              "pairs/s"),
        "eval_users_per_s": (report.num_users_evaluated / statistics.median(samples["eval"]),
                             "users/s"),
        "test_ndcg_at_20": (report.ndcg[20], "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"split": split_sizes(split), "samples_s": samples, "test_metrics": report.to_dict()}
    return metrics, detail


# -- traced run: per-layer metrics -----------------------------------------

# Per-layer self times: metric -> the span names whose self times it sums.
SELF_TIME_METRICS = {
    "data.load_s": ("data.load_interactions",),
    "data.split_s": ("data.split_per_user",),
    "data.batch_s": ("data.epoch_batches",),
    "encoders.encode_s": ("encoders.mf_encode", "encoders.lightgcn_encode"),
    "encoders.scatter_s": ("encoders.scatter_rows",),
    "encoders.propagate_s": ("encoders.lightgcn_propagate",),
    "encoders.backward_s": ("encoders.lightgcn_backward",),
    "encoders.adjacency_s": ("encoders.build_norm_adjacency",),
    "losses.loss_grad_s": ("losses.rau_loss_and_gradient", "losses.bpr_loss_and_gradient"),
    "trainer.adam_s": ("trainer.adam_step",),
    "trainer.negatives_s": ("trainer._sample_negatives",),
    "trainer.probe_s": ("trainer._probe_diagnostics",),
    "trainer.init_s": ("trainer.init_xavier",),
    "trainer.loop_self_s": ("trainer.train_epoch",),
    "evaluation.evaluate_s": ("evaluation.evaluate",),
    "hypersphere.save_s": ("hypersphere.save_checkpoint",),
    "hypersphere.load_s": ("hypersphere.load_checkpoint",),
}

# Self-time metrics of the layers inside `fit`, compared to name the largest.
FIT_LAYERS = ("data.batch_s", "encoders.encode_s", "encoders.scatter_s",
              "encoders.adjacency_s", "losses.loss_grad_s", "trainer.adam_s",
              "trainer.negatives_s", "trainer.probe_s", "trainer.init_s", "trainer.loop_self_s")

# Work counts that repeat exactly for a given workload, whatever the machine.
COMPUTED = ("encoders.spmm_rounds", "losses.kernel_entries", "encoders.scatter_fill_bytes",
            "trainer.adam_rows_updated", "trainer.adam_useful_row_frac",
            "evaluation.scored_pairs")

# Candidate percentiles for the step-time tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def step_metrics(steps_s: np.ndarray) -> dict:
    """Median step and the highest percentile with at least ten steps beyond it."""
    n = len(steps_s)
    tail = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10), None)
    return {
        "trainer.steps": (n, "count"),
        "trainer.step_ms_p50": (1e3 * float(np.percentile(steps_s, 50)) if n else 0.0, "ms"),
        "trainer.step_ms_tail": (1e3 * float(np.percentile(steps_s, tail)) if tail else 0.0, "ms"),
        "trainer.step_tail_pct": (tail or 0.0, "%"),
    }


def traced_run(tally, workload, seed, tsv, work_dir):
    cfg = workload.train_config(seed)
    split = load_and_split(tsv, seed)
    started = time.perf_counter()
    _, user_table, item_table = trainer.fit(split, cfg)
    untraced_fit_s = time.perf_counter() - started

    tracer = Tracer(run_id=f"{workload.name}:seed{seed}:pid{os.getpid()}")
    checkpoint = work_dir / "checkpoint"
    with tracer.installed():
        split = load_and_split(tsv, seed)
        _, tables = fit_and_save(split, cfg, checkpoint)
        _, loaded, encoded, report = load_and_rank(split, cfg, workload.score_mode, checkpoint)
    tracer.to_json(work_dir / "trace.json")

    checks.check_ranking(tally, split, tables, loaded, encoded, report, KS, workload.score_mode,
                         seed)
    tally.expect(checks.same_bits(tables, (user_table.values, item_table.values)),
                 "the traced fit gave different tables from the untraced one")
    unseen = sorted(set(workload.spans) - tracer.span_names())
    tally.expect(not unseen, f"declared layers recorded no span: {unseen}")
    self_s = tracer.self_times()
    fit_s = tracer.total_time("trainer.fit")
    unattributed = self_s.get("trainer.fit", 0.0) / fit_s if fit_s else 1.0
    tally.expect(unattributed <= MAX_UNATTRIBUTED_FRAC,
                 f"{unattributed:.1%} of fit is outside every span")

    counts = tracer.counts
    metrics = {name: (sum(self_s.get(s, 0.0) for s in spans), "s")
               for name, spans in SELF_TIME_METRICS.items()}
    metrics.update(step_metrics(tracer.step_seconds()))
    metrics.update({
        "trainer.fit_s": (fit_s, "s"),
        "trainer.adam_rows_updated": (counts["adam_rows_updated"], "count"),
        "trainer.adam_useful_row_frac": (
            counts["adam_rows_with_gradient"] / max(counts["adam_rows_updated"], 1), "ratio"),
        "losses.kernel_entries": (counts["kernel_entries"], "count"),
        "encoders.spmm_rounds": (counts["spmm_rounds"], "count"),
        "encoders.scatter_fill_bytes": (counts["scatter_fill_bytes"], "bytes"),
        "evaluation.users": (counts["evaluated_users"], "count"),
        "evaluation.scored_pairs": (counts["scored_pairs"], "count"),
        "hypersphere.bytes_written": (counts["checkpoint_bytes"], "bytes"),
        "trace.overhead_s": (fit_s - untraced_fit_s, "s"),
        "trace.bookkeeping_s": (self_s.get(OVERHEAD_SPAN, 0.0), "s"),
        "trace.unattributed_frac": (unattributed, "ratio"),
    })
    fit_layers = {name: metrics[name][0] for name in FIT_LAYERS}
    fit_layers["encoders.propagate_s+backward_s"] = (
        metrics["encoders.propagate_s"][0] + metrics["encoders.backward_s"][0])
    detail = {
        "split": split_sizes(split),
        "untraced_fit_s": untraced_fit_s,
        "largest_fit_layer": max(fit_layers, key=fit_layers.get),
        "unwrapped": tracer.missing,
        "span_count": len(tracer.spans),
        "trace_file": str((work_dir / "trace.json").relative_to(ROOT)),
    }
    return metrics, detail


# -- environment and output ------------------------------------------------


def split_sizes(split) -> dict:
    return {"users": split.num_users, "items": split.num_items,
            "train": split.train.num_interactions,
            "validation": split.validation.num_interactions,
            "test": split.test.num_interactions}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(thread_env: dict, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_caps": thread_env,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_one(args, thread_env: dict) -> int:
    workload = WORKLOADS[args.workload]
    work_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    tsv = work_dir / "interactions.tsv"
    input_sha256 = write_ring_block_tsv(workload, args.seed, tsv)

    tally = checks.Checks()
    if args.trace:
        metrics, detail = traced_run(tally, workload, args.seed, tsv, work_dir)
    else:
        metrics, detail = timed_run(tally, workload, args.seed, args.seconds, tsv, work_dir)
    tsv.unlink()
    shutil.rmtree(work_dir / "checkpoint", ignore_errors=True)

    record = {
        "workload": workload.name,
        "trace": args.trace,
        "input_sha256": input_sha256,
        **detail,
        "computed": [name for name in COMPUTED if name in metrics],
        "check_failures": tally.failures,
        "environment": environment(thread_env, args.seed),
    }
    (work_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in a process of its own, one after another, and tabulate."""
    status = 0
    rows = []
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exit code {child.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        passed = result["attempted"] - result["failed"]
        rows.append((name, "checks_passed", f"{passed}/{result['attempted']}", ""))
        rows += [(name, metric, str(m["value"]) if isinstance(m["value"], int)
                  else f"{m['value']:.6g}", m["unit"])
                 for metric, m in result["metrics"].items()]
    width = max((len(row[1]) for row in rows), default=0)
    for workload, metric, value, unit in rows:
        print(f"{workload:22s} {metric:{width}s} {value:>14s} {unit}")
    return status


def main(argv, thread_env: dict) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, thread_env)
