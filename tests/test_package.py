import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import sphererec

SRC = Path(__file__).resolve().parents[1] / "src"


def test_the_root_and_the_cli_parser_load_no_numpy():
    # the CLI sets the BLAS thread variables after it parses its flags, so numpy must not
    # have loaded by then: BLAS reads them once, when numpy first loads
    code = ("import sys, sphererec, sphererec.cli; sphererec.cli.build_parser(); "
            "print('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


class TestClaimAndJoin:
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_results_come_back_in_task_order_when_early_tasks_finish_last(self, width):
        finished, lock = [], threading.Lock()

        def work(task, buffer):
            time.sleep(0.02 * (6 - task))  # the earlier a task, the longer it runs
            with lock:
                finished.append(task)
            return task, buffer

        results = sphererec.claim_and_join(work, iter(range(6)), range(width))
        assert [task for task, _ in results] == list(range(6))
        assert {buffer for _, buffer in results} <= set(range(width))
        assert sorted(finished) == list(range(6))
        if width > 1:
            assert finished != sorted(finished)

    @pytest.mark.parametrize("width", [1, 2])
    def test_a_none_task_is_run_like_any_other(self, width):
        tasks = [1, None, 2, None]
        assert sphererec.claim_and_join(lambda task, _: (task,), tasks, range(width)) == [
            (task,) for task in tasks]

    def test_a_task_error_is_raised_after_the_join(self):
        threads_before = threading.active_count()

        def work(task, buffer):
            if task == 3:
                raise RuntimeError("task 3 failed")
            time.sleep(0.005)
            return task

        with pytest.raises(RuntimeError, match="task 3 failed"):
            sphererec.claim_and_join(work, range(8), range(3))
        assert threading.active_count() == threads_before
        assert sphererec.claim_and_join(work, [], range(3)) == []
