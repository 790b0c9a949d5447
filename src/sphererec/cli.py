"""Command-line entry points: train, eval, sweep, geometry, inspect.

Thread caps (RAU_NUM_THREADS or --single-thread) override the BLAS
environment variables before any numerical module is imported, so the heavy
imports happen inside the command handlers.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from pathlib import Path

from . import thread_cap

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_cap(single_thread: bool) -> None:
    env_cap = thread_cap()  # checked even when --single-thread wins
    cap = 1 if single_thread else env_cap
    if cap is None:
        return
    for name in _THREAD_ENV_VARS:
        os.environ[name] = str(cap)


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    """The fit flags of `train` and `sweep`; sweep's grid sets the objective and weights."""
    parser.add_argument("--config", type=Path, help="JSON config file; flags override its values")
    parser.add_argument("--dataset", type=Path, help="interaction file (TSV/CSV)")
    parser.add_argument("--format", choices=["tsv", "csv"], help="dataset format (default: by suffix)")
    parser.add_argument("--encoder", choices=["mf", "lightgcn"])
    parser.add_argument("--dim", type=int)
    parser.add_argument("--lr", type=float)
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--max-epochs", type=int)
    parser.add_argument("--patience", type=int)
    parser.add_argument("--weight-decay", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--num-layers", type=int, help="propagation rounds for the graph encoder")
    parser.add_argument("--fixed-epochs", action="store_true", default=None,
                        help="skip validation-based early stopping")


def _resolve_train_config(args):
    """Config from the --config payload, overridden by any flag named like a config key."""
    from .trainer import TrainConfig

    payload = json.loads(args.config.read_text(encoding="utf-8")) if args.config else {}
    if not isinstance(payload, dict):
        raise ValueError(f"{args.config}: expected a JSON object, got {type(payload).__name__}")
    for name in TrainConfig().to_dict():
        value = getattr(args, name, None)
        if value is not None:
            payload[name] = value
    return TrainConfig.from_dict(payload), payload


def _load_split(args, cfg, payload):
    from .data import load_interactions, split_per_user

    dataset_path = args.dataset or payload.get("dataset")
    if dataset_path is None:
        raise ValueError("no dataset given: pass --dataset or a config/checkpoint that names one")
    dataset_path = Path(dataset_path)
    if not dataset_path.exists():
        raise ValueError(f"dataset path does not exist: {dataset_path}")
    ds = load_interactions(dataset_path, format=args.format)
    return split_per_user(ds, seed=cfg.seed), dataset_path


def _run_dir(base: Path, cfg) -> Path:
    from .hypersphere import config_hash

    return base / f"{config_hash(cfg.to_dict())}-seed{cfg.seed}"


def _evaluate_tables(split, user_table, item_table, cfg, score_mode=None, **evaluate_kwargs):
    """Encode the tables with the run's encoder and rank them (default: cfg.score_mode)."""
    from .encoders import Encoder, stack_nodes
    from .evaluation import evaluate

    node_table = stack_nodes(user_table, item_table, split.num_users, split.num_items)
    encoded = Encoder(cfg.encoder, cfg.num_layers, split.train).encode_all(node_table)
    return evaluate(split, *encoded, score_mode=score_mode or cfg.score_mode, **evaluate_kwargs)


def cmd_train(args) -> int:
    from .data import write_split_manifest
    from .hypersphere import save_checkpoint, write_json
    from .trainer import fit, write_diagnostics_csv

    cfg, payload = _resolve_train_config(args)
    split, dataset_path = _load_split(args, cfg, payload)
    # an existing file or an uncreatable path fails here, not after the whole fit
    args.out_dir.mkdir(parents=True, exist_ok=True)
    report, user_table, item_table = fit(split, cfg)

    out = _run_dir(args.out_dir, cfg)
    sidecar_config = dict(cfg.to_dict(), dataset=str(dataset_path))
    save_checkpoint(out, user_table, item_table, cfg.seed, sidecar_config)
    write_json(out / "report.json", report.to_dict())
    write_diagnostics_csv(report, out / "diagnostics.csv", cfg.eval_k_for_stopping)
    write_split_manifest(split, out / "split_manifest.json")

    print(f"run directory: {out}")
    print(f"epochs run: {report.epochs_run}, best epoch: {report.best_epoch}")
    if report.best_val is not None:
        print(f"best validation: {report.best_val}")
    test_report = _evaluate_tables(split, user_table, item_table, cfg)
    write_json(out / "test_metrics.json", test_report.to_dict())
    print(test_report.format_table())
    return 0


def cmd_eval(args) -> int:
    from .hypersphere import load_checkpoint, write_json
    from .trainer import TrainConfig

    user_table, item_table, sidecar = load_checkpoint(args.checkpoint)
    cfg = TrainConfig.from_dict(sidecar["config"])
    split, _ = _load_split(args, cfg, sidecar["config"])
    report = _evaluate_tables(split, user_table, item_table, cfg, score_mode=args.score_mode,
                              ks=tuple(args.k), part=args.part)
    print(report.format_table())
    if args.out:
        write_json(args.out, report.to_dict())
    if args.out_csv:
        report.to_csv(args.out_csv)
    return 0


def _sweep_point(task):
    """Fit one grid point and report its validation/test metrics."""
    from .trainer import fit

    split, cfg, ks = task
    report, user_table, item_table = fit(split, cfg)
    test_report = _evaluate_tables(split, user_table, item_table, cfg, ks=ks)
    stopping_k = cfg.eval_k_for_stopping
    best_ndcg = report.best_val[f"ndcg@{stopping_k}"] if report.best_val else float("nan")
    return {
        **dataclasses.asdict(cfg.weights),
        f"best_val_ndcg@{stopping_k}": best_ndcg,
        **{f"test_recall@{k}": test_report.recall[k] for k in ks},
        **{f"test_ndcg@{k}": test_report.ndcg[k] for k in ks},
    }


def cmd_sweep(args) -> int:
    from .evaluation import check_ks
    from .hypersphere import write_csv
    from .trainer import TrainConfig

    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    base_cfg, base_payload = _resolve_train_config(args)
    if base_cfg.objective != "rau":
        raise ValueError(f"sweep searches the rau weights, but --config sets objective "
                         f"{base_cfg.objective!r}")
    split, _ = _load_split(args, base_cfg, base_payload)
    ks = tuple(args.k)
    check_ks(ks)
    # a grid flag not given keeps the config's value
    weights = base_cfg.weights
    gamma_pairs = ([(weights.gamma_user, weights.gamma_item)] if args.gamma_ratios is None
                   else [_parse_gamma_ratio(token) for token in args.gamma_ratios])
    # every grid point's config is built, and so checked, before the first fit
    tasks = [(split, TrainConfig.from_dict(dict(base_payload, alpha=alpha, beta=beta,
                                                gamma_user=gamma_user, gamma_item=gamma_item)),
              ks)
             for alpha, beta, (gamma_user, gamma_item)
             in itertools.product(args.alpha_values or [weights.alpha],
                                  args.beta_values or [weights.beta], gamma_pairs)]
    metric = f"best_val_ndcg@{base_cfg.eval_k_for_stopping}"
    # an unusable --out fails here, not after the whole grid
    args.out.parent.mkdir(parents=True, exist_ok=True)
    if args.out.is_dir():
        raise ValueError(f"--out {args.out} is a directory, not a file")

    workers = min(args.workers, thread_cap() or args.workers)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(task) for task in tasks]

    # a fit that scored no validation epoch (--fixed-epochs, --max-epochs 0) cannot be best
    scored = [i for i, row in enumerate(rows) if math.isfinite(row[metric])]
    best_index = max(scored, key=lambda i: rows[i][metric], default=None)
    csv_text = write_csv(args.out, [*rows[0], "best"],
                         [[*row.values(), "*" if index == best_index else None]
                          for index, row in enumerate(rows)])
    print(csv_text, end="")
    if best_index is None:
        print("best grid point: none (no fit scored a validation epoch)")
    else:
        print(f"best grid point: {rows[best_index]}")
    return 0


def _parse_gamma_ratio(token: str) -> tuple[float, float]:
    try:
        user_part, item_part = token.split("/")
        return float(user_part), float(item_part)
    except ValueError as exc:
        raise ValueError(f"bad gamma ratio {token!r}: expected e.g. 0.7/0.3") from exc


def cmd_geometry(args) -> int:
    from .geometry import (CircleConfig, config_metrics, sweep_moving_point, sweep_to_csv,
                           verify_low_variance_claim)
    from .hypersphere import write_json

    rows = sweep_moving_point(tuple(args.fixed), args.step)
    verification = verify_low_variance_claim(rows)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    sweep_to_csv(rows, args.out_dir / "sweep.csv")
    write_json(args.out_dir / "verification.json", dataclasses.asdict(verification))
    print(f"rows: {len(rows)}")
    print(f"uniform-loss minimum at {verification.min_loss_angle_deg} deg, "
          f"variance there {verification.variance_at_min:.3e}, "
          f"rank correlation {verification.rank_correlation:.4f}")
    if args.case:
        loss, variance = config_metrics(CircleConfig(tuple(args.case)))
        print(f"case {args.case}: uniform_loss={loss:.6f} kernel_variance={variance:.6f}")
    return 0


def cmd_inspect(args) -> int:
    import numpy as np

    from .data import load_interactions, split_per_user, write_split_manifest

    if args.manifest and args.split_seed is None:
        raise ValueError("--manifest writes a split, so it needs --split-seed")
    ds = load_interactions(args.dataset, format=args.format)
    degrees = np.diff(ds.user_indptr)
    density = ds.num_interactions / (ds.num_users * ds.num_items)
    print(f"users: {ds.num_users}")
    print(f"items: {ds.num_items}")
    print(f"interactions: {ds.num_interactions}")
    print(f"density: {density:.6f}")
    print(f"interactions per user: min={degrees.min()} "
          f"mean={ds.num_interactions / ds.num_users:.2f} max={degrees.max()}")
    if args.split_seed is not None:
        split = split_per_user(ds, seed=args.split_seed)
        print(f"split (seed {args.split_seed}): train={split.train.num_interactions} "
              f"validation={split.validation.num_interactions} test={split.test.num_interactions}")
        if args.manifest:
            write_split_manifest(split, args.manifest)
            print(f"manifest written to {args.manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sphererec",
                                     description="Hypersphere embedding trainer for implicit feedback")
    parser.add_argument("--single-thread", action="store_true",
                        help="cap BLAS threads at 1 for bit-reproducible runs")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit embeddings and write a checkpoint")
    _add_fit_flags(train)
    train.add_argument("--objective", choices=["rau", "directau", "bpr"])
    for weight in ("--alpha", "--beta", "--gamma-user", "--gamma-item"):
        train.add_argument(weight, type=float)
    train.add_argument("--out-dir", type=Path, default=Path("runs"))
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("eval", help="score a checkpoint with full ranking")
    evaluate.add_argument("--checkpoint", type=Path, required=True)
    evaluate.add_argument("--dataset", type=Path)
    evaluate.add_argument("--format", choices=["tsv", "csv"])
    evaluate.add_argument("--part", choices=["validation", "test"], default="test")
    evaluate.add_argument("--k", type=int, nargs="+", default=[20, 50])
    evaluate.add_argument("--score-mode", choices=["cosine", "dot"])
    evaluate.add_argument("--out", type=Path, help="also write the report as JSON")
    evaluate.add_argument("--out-csv", type=Path, help="also write the report as CSV")
    evaluate.set_defaults(func=cmd_eval)

    # no abbreviations, which would read `--alpha` and `--beta` as `--alpha-values` and
    # `--beta-values`
    sweep = sub.add_parser("sweep", help="grid-search the loss weights", allow_abbrev=False)
    _add_fit_flags(sweep)
    sweep.add_argument("--alpha-values", type=float, nargs="+")
    sweep.add_argument("--beta-values", type=float, nargs="+")
    sweep.add_argument("--gamma-ratios", type=str, nargs="+")
    sweep.add_argument("--k", type=int, nargs="+", default=[20, 50])
    sweep.add_argument("--out", type=Path, default=Path("sweep.csv"))
    sweep.add_argument("--workers", type=int, default=1,
                       help="parallel fits (RAM-bound; RAU_NUM_THREADS caps this too)")
    sweep.set_defaults(func=cmd_sweep)

    geometry = sub.add_parser("geometry", help="unit-circle uniformity/variance sweep")
    geometry.add_argument("--fixed", type=float, nargs=2, default=[0.0, 120.0])
    geometry.add_argument("--step", type=float, default=1.0)
    geometry.add_argument("--case", type=float, nargs="+",
                          help="extra point configuration to report metrics for")
    geometry.add_argument("--out-dir", type=Path, default=Path("geometry_out"))
    geometry.set_defaults(func=cmd_geometry)

    inspect = sub.add_parser("inspect", help="summarize an interaction file")
    inspect.add_argument("--dataset", type=Path, required=True)
    inspect.add_argument("--format", choices=["tsv", "csv"])
    inspect.add_argument("--split-seed", type=int)
    inspect.add_argument("--manifest", type=Path)
    inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_thread_cap(args.single_thread)
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
