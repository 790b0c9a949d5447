"""Hypersphere embedding learning for implicit-feedback recommendation.

Learns user/item embeddings by directly optimizing how positive pairs align
and how each entity set spreads over the unit hypersphere, with optional
center-alignment and kernel-variance regularizers, a plain-lookup or linear
graph-propagation encoder, and full-ranking evaluation.

The package root holds the thread helpers and the objective and encoder
names, and imports nothing numerical: the CLI loads it, and sets the BLAS
thread variables from it, before numpy first loads. Everything else is
imported from its module (`from sphererec import trainer`).
"""

import os
import threading

__version__ = "0.1.0"

OBJECTIVES = ("rau", "directau", "bpr")
ENCODERS = ("mf", "lightgcn")


def thread_cap() -> int | None:
    """RAU_NUM_THREADS as a positive int, or None where it is unset.

    It caps BLAS threads (set by the CLI before numpy loads), `sweep`'s
    worker processes, and the threads of `trainer.adam_step`, of
    `losses.rau_loss_and_gradient` and the probe's kernel statistics (one
    per kernel side, `losses.on_lanes`) and of `evaluation.evaluate`
    (`thread_width`). `sweep` sets it in each worker, and the BLAS cap
    before numpy loads, to a worker's share of the CPUs, CPUs // workers
    and at least 1, within the cap already set. Any other value raises
    ValueError.
    """
    cap = os.environ.get("RAU_NUM_THREADS")
    if cap is not None and not (cap.isascii() and cap.isdigit() and int(cap) > 0):
        raise ValueError(f"RAU_NUM_THREADS must be a positive integer, got {cap!r}")
    return None if cap is None else int(cap)


def cpu_count() -> int:
    """CPUs this process may run on (its affinity, where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_width(tasks: int) -> int:
    """Threads for `tasks` independent tasks: one per CPU this process may run on, at most
    one per task and at most RAU_NUM_THREADS where that is set, but at least one."""
    return max(1, min(cpu_count(), tasks, thread_cap() or tasks))


def claim_and_join(work, tasks, buffers) -> None:
    """Call `work(task, buffer)` once for each of `tasks` (none of them None), on one thread
    per buffer.

    The calling thread runs with `buffers[0]` and starts one thread for each
    other buffer. Each thread claims the next unclaimed task until none is
    left, so a thread whose CPU is busy holds up only the task it runs. The
    threads are joined before the call returns, and the first exception
    raised in any of them is raised here; once one is raised, no thread
    claims another task.
    """
    unclaimed = iter(tasks)
    claim = threading.Lock()
    errors = []

    def claim_until_done(buffer) -> None:
        try:
            while not errors:
                with claim:
                    task = next(unclaimed, None)
                if task is None:
                    return
                work(task, buffer)
        except Exception as exc:  # kept for the caller, which raises it after the join
            errors.append(exc)

    helpers = [threading.Thread(target=claim_until_done, args=(buffer,))
               for buffer in buffers[1:]]
    try:
        for helper in helpers:
            helper.start()
        claim_until_done(buffers[0])
    finally:  # no thread outlives the call, even where one could not be started
        for helper in helpers:
            if helper.ident is not None:
                helper.join()
    if errors:
        raise errors[0]
