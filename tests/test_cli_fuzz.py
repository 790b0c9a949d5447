"""Tiny random datasets through `train` then `eval`: every run ends cleanly.

A run either succeeds (exit 0) with finite test metrics, or is refused with
exit 2 and a one-line `error:` message; any other exception fails the test
with its traceback.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sphererec import cli


@st.composite
def tiny_runs(draw):
    num_users, num_items = draw(st.integers(1, 11)), draw(st.integers(1, 11))
    pairs = draw(st.lists(st.tuples(st.integers(0, num_users - 1),
                                    st.integers(0, num_items - 1)), min_size=1, max_size=59))
    config = {
        "objective": draw(st.sampled_from(["rau", "directau", "bpr"])),
        "encoder": draw(st.sampled_from(["mf", "lightgcn"])),
        "dim": draw(st.integers(2, 6)),
        "lr": 0.05,
        "batch_size": draw(st.integers(2, 64)),
        "max_epochs": draw(st.integers(0, 3)),
        "patience": 2,
        "fixed_epochs": draw(st.booleans()),
        "bpr_full_history_rejection": draw(st.booleans()),
        "eval_k_for_stopping": draw(st.integers(1, 15)),  # can exceed the catalog
    }
    ks = draw(st.lists(st.integers(1, 15), min_size=1, max_size=3))  # repeats are refused
    return pairs, config, ks


def run_cli(argv) -> tuple[int, str]:
    """cli.main's exit code and stderr; exit 2 must come with exactly one `error:` line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    message = err.getvalue()
    assert code in (0, 2), message
    if code == 2:
        assert message.startswith("error: ") and message.count("\n") == 1, message
    return code, message


def assert_finite_metrics(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    for values in (report["recall"], report["ndcg"]):
        assert all(math.isfinite(value) for value in values.values()), report


@given(tiny_runs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_train_then_eval_exits_cleanly(run):
    pairs, config, ks = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dataset = tmp / "pairs.tsv"
        dataset.write_text("".join(f"u{user}\ti{item}\n" for user, item in pairs),
                           encoding="utf-8")
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp / "runs"
        code, _ = run_cli(["train", "--config", str(config_path), "--dataset", str(dataset),
                           "--out-dir", str(out_dir)])
        if code == 2:
            return
        (run_dir,) = out_dir.iterdir()
        assert_finite_metrics(run_dir / "test_metrics.json")
        report = tmp / "eval.json"
        code, _ = run_cli(["eval", "--checkpoint", str(run_dir), "--dataset", str(dataset),
                           "--k", *map(str, ks), "--out", str(report)])
        if code == 0:
            assert_finite_metrics(report)
