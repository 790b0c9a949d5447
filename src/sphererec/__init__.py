"""Hypersphere embedding learning for implicit-feedback recommendation.

Learns user/item embeddings by directly optimizing how positive pairs align
and how each entity set spreads over the unit hypersphere, with optional
center-alignment and kernel-variance regularizers, a plain-lookup or linear
graph-propagation encoder, and full-ranking evaluation.

Exports resolve lazily: the CLI must set BLAS thread environment variables
before numpy is first imported, so importing this package stays cheap and
numerical modules load on first attribute access.
"""

import importlib
import os

__version__ = "0.1.0"

_EXPORTS = {
    "InteractionDataset": "data",
    "PositivePairBatch": "data",
    "SplitDataset": "data",
    "epoch_batches": "data",
    "load_interactions": "data",
    "split_per_user": "data",
    "two_cluster_dataset": "data",
    "MetricsReport": "evaluation",
    "evaluate": "evaluation",
    "EmbeddingTable": "hypersphere",
    "init_xavier": "hypersphere",
    "l2_normalize": "hypersphere",
    "LossBreakdown": "losses",
    "LossWeights": "losses",
    "rau_loss_and_gradient": "losses",
    "TrainConfig": "trainer",
    "TrainReport": "trainer",
    "fit": "trainer",
}

__all__ = sorted(_EXPORTS)


def thread_cap() -> int | None:
    """RAU_NUM_THREADS as a positive int, or None where it is unset.

    It caps BLAS threads (set by the CLI before numpy loads), `sweep`'s
    worker processes and `trainer.adam_step`'s threads. Any other value
    raises ValueError.
    """
    cap = os.environ.get("RAU_NUM_THREADS")
    if cap is not None and not (cap.isascii() and cap.isdigit() and int(cap) > 0):
        raise ValueError(f"RAU_NUM_THREADS must be a positive integer, got {cap!r}")
    return None if cap is None else int(cap)


def __getattr__(name):
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
