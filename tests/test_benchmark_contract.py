"""The package API that perfbench/tracing.py wraps and reads, pinned from the tracer's own source.

A renamed or moved function is skipped by the tracer without an error, and
its span then reads 0 in every benchmark report, so these checks stand in
for the benchmark's missing failure.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from sphererec import data, encoders

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_reads():
    """(span name, index, parameter name) of every `_arg` call in Tracer._count."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    count = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_count")
    reads = set()
    for branch in ast.walk(count):
        if not isinstance(branch, ast.If):
            continue
        span = branch.test.comparators[0].value  # `if name == "<span>":`
        for call in (c for stmt in branch.body for c in ast.walk(stmt)):  # not the elif chain
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                reads.add((span, call.args[2].value, call.args[3].value))
    return reads


def test_every_wrapped_name_is_a_package_function():
    for module_name, attr in load_tracing().WRAPPED:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert inspect.isfunction(fn), f"{module_name}.{attr}"
        assert fn.__module__.startswith("sphererec."), f"{module_name}.{attr}"


def test_every_argument_the_tracer_reads_is_at_its_index_and_name():
    functions = {span: getattr(importlib.import_module(module_name), attr)
                 for (module_name, attr), span in load_tracing().WRAPPED.items()}
    reads = count_reads()
    assert {("trainer.adam_step", 1, "grads"), ("encoders.lightgcn_backward", 0, "adj"),
            ("encoders.lightgcn_backward", 1, "cfg"),
            ("encoders.lightgcn_backward", 4, "grad_users")} <= reads
    for span, index, name in reads:
        parameters = list(inspect.signature(functions[span]).parameters)
        assert parameters[index] == name, f"{span} argument {index}"


def test_adjacency_size_is_the_node_count():
    train = data.two_cluster_dataset(num_users=12, num_items=8, items_per_user=3, seed=0)
    adjacency = encoders.Encoder("lightgcn", 2, train).adjacency
    assert adjacency.size == train.num_users + train.num_items
