"""Spans around the calls into sphererec's layers, installed from outside.

`Tracer.installed()` replaces module attributes of the `sphererec` package
with timing wrappers and puts the originals back on exit, so no source file
changes. A wrapped function is replaced in every `sphererec.*` module that
binds it, which also catches names brought in with `from .x import y`
(trainer's `epoch_batches`, `init_xavier` and `evaluate`).

Each span records its name, start, end, parent span and the run id. Spans
stay in memory until `to_json` writes them. A span's self time is its
duration minus the durations of its direct children; children never
overlap, because the package is single-threaded. Work counts are taken in
`trace` spans after the wrapped call returns, so their cost shows as
tracing overhead instead of being charged to the layer that called them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

FLOAT64_BYTES = 8

# (module, function) -> span name. The span name's prefix is the layer the
# time is charged to, which is not always the module that defines the
# function: init_xavier is model set-up, so it counts as trainer time.
WRAPPED = {
    ("sphererec.data", "load_interactions"): "data.load_interactions",
    ("sphererec.data", "split_per_user"): "data.split_per_user",
    ("sphererec.data", "epoch_batches"): "data.epoch_batches",
    ("sphererec.encoders", "mf_encode"): "encoders.mf_encode",
    ("sphererec.encoders", "scatter_rows"): "encoders.scatter_rows",
    ("sphererec.encoders", "lightgcn_encode"): "encoders.lightgcn_encode",
    ("sphererec.encoders", "lightgcn_propagate"): "encoders.lightgcn_propagate",
    ("sphererec.encoders", "lightgcn_backward"): "encoders.lightgcn_backward",
    ("sphererec.encoders", "build_norm_adjacency"): "encoders.build_norm_adjacency",
    ("sphererec.losses", "rau_loss_and_gradient"): "losses.rau_loss_and_gradient",
    ("sphererec.losses", "bpr_loss_and_gradient"): "losses.bpr_loss_and_gradient",
    ("sphererec.trainer", "adam_step"): "trainer.adam_step",
    ("sphererec.trainer", "_sample_negatives"): "trainer._sample_negatives",
    ("sphererec.trainer", "_probe_diagnostics"): "trainer._probe_diagnostics",
    ("sphererec.trainer", "init_xavier"): "trainer.init_xavier",
    ("sphererec.trainer", "train_epoch"): "trainer.train_epoch",
    ("sphererec.trainer", "fit"): "trainer.fit",
    ("sphererec.evaluation", "evaluate"): "evaluation.evaluate",
    ("sphererec.hypersphere", "save_checkpoint"): "hypersphere.save_checkpoint",
    ("sphererec.hypersphere", "load_checkpoint"): "hypersphere.load_checkpoint",
}

OVERHEAD_SPAN = "trace"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """In-memory span recorder plus the work counts taken at the same calls."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.step_marks: list[float] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    # -- work counts, each run after the wrapped call inside a trace span ----

    def _count(self, name, args, kwargs, result) -> None:
        counts = self.counts
        if name == "trainer.adam_step":
            grads = _arg(args, kwargs, 1, "grads")
            counts["adam_rows_updated"] += grads.shape[0]
            counts["adam_rows_with_gradient"] += int(np.count_nonzero(grads.any(axis=1)))
        elif name == "losses.rau_loss_and_gradient":
            batch = np.shape(_arg(args, kwargs, 0, "users_raw"))[0]
            counts["kernel_entries"] += 2 * batch * batch
        elif name == "encoders.scatter_rows":
            dim = np.shape(_arg(args, kwargs, 0, "grad_rows"))[1]
            counts["scatter_fill_bytes"] += _arg(args, kwargs, 2, "num_rows") * dim * FLOAT64_BYTES
        elif name == "encoders.lightgcn_backward":
            adj = _arg(args, kwargs, 0, "adj")
            dim = np.shape(_arg(args, kwargs, 4, "grad_users"))[1]
            counts["scatter_fill_bytes"] += adj.size * dim * FLOAT64_BYTES
            counts["spmm_rounds"] += _arg(args, kwargs, 1, "cfg").num_layers
        elif name == "encoders.lightgcn_propagate":
            counts["spmm_rounds"] += _arg(args, kwargs, 3, "cfg").num_layers
        elif name == "evaluation.evaluate":
            items = np.shape(_arg(args, kwargs, 2, "item_vectors"))[0]
            counts["evaluated_users"] += result.num_users_evaluated
            counts["scored_pairs"] += result.num_users_evaluated * items
        elif name == "hypersphere.save_checkpoint":
            directory = Path(_arg(args, kwargs, 0, "directory"))
            counts["checkpoint_bytes"] += sum(p.stat().st_size for p in directory.iterdir())

    def _wrap(self, name, fn):
        tracer = self

        def timed(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            with tracer.span(OVERHEAD_SPAN):
                tracer._count(name, args, kwargs, result)
            return result

        def timed_batches(*args, **kwargs):
            # One span per batch drawn; a step mark at each yield and at the
            # end, so consecutive marks bracket one training step.
            batches = fn(*args, **kwargs)
            while True:
                with tracer.span(name):
                    batch = next(batches, None)
                tracer.step_marks.append(time.perf_counter())
                if batch is None:
                    return
                yield batch

        wrapper = timed_batches if name == "data.epoch_batches" else timed
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Replace every wrapped function in the loaded sphererec modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sphererec" or key.startswith("sphererec."))]
        replaced = []
        for (module_name, attr), span_name in WRAPPED.items():
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.missing.append(span_name)
                continue
            wrapper = self._wrap(span_name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)

    # -- reading the trace -------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def total_time(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def span_names(self) -> set[str]:
        return {span[0] for span in self.spans}

    def step_seconds(self) -> np.ndarray:
        return np.diff(np.asarray(self.step_marks))

    def to_json(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "run_id"],
            "spans": [[name, start - origin, end - origin, parent, self.run_id]
                      for name, start, end, parent in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
