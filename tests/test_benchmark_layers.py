"""Every layer a benchmark workload declares is still called, on a tiny copy of the workload.

The benchmark's traced run checks the same thing, but only on the full
workloads; here `perfbench/bench.py`'s own load, fit and rank steps run
under its tracer on 40 users, so a refactor that stops calling a declared
function (say `encoders.scatter_rows`) fails the tier-1 suite at once.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def import_bench():
    """perfbench/bench.py, imported as run.py imports it: with its directory on the path."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("bench")
    finally:
        sys.path.remove(str(PERFBENCH))


bench = import_bench()


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_tiny_workload_records_every_declared_span(tmp_path, name):
    workload = dataclasses.replace(bench.WORKLOADS[name], num_users=40, num_items=20,
                                   items_per_user=6, batch_size=16)
    tsv, checkpoint = tmp_path / "interactions.tsv", tmp_path / "checkpoint"
    bench.write_ring_block_tsv(workload, SEED, tsv)
    cfg = workload.train_config(SEED)
    tracer = bench.Tracer(run_id=f"{name}:tiny")
    with tracer.installed():
        split = bench.load_and_split(tsv, SEED)
        bench.fit_and_save(split, cfg, checkpoint)
        bench.load_and_rank(split, cfg, workload.score_mode, checkpoint)
    assert set(workload.spans) <= tracer.span_names()
    assert tracer.missing == []
