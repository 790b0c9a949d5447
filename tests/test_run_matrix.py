"""The run-matrix script: a reduced matrix run twice gives byte-identical artifacts."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_matrix.py"


def run_script(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_reduced_matrix_is_byte_identical_across_runs(tmp_path):
    digests = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in digests:
        assert run_script("--reduced", "--out", path).returncode == 0
    files = json.loads(digests[0].read_text())["files"]
    for encoder in ("mf", "lightgcn"):
        for objective in ("rau", "directau", "bpr"):
            assert any(name.startswith(f"train/{encoder}-{objective}-early/")
                       and name.endswith("/report.json") for name in files)
    same = run_script("--compare", *digests)
    assert same.returncode == 0
    assert same.stdout.strip() == f"{len(files)} of {len(files)} byte-identical"

    name = sorted(files)[0]
    files[name] = "0" * 64
    digests[1].write_text(json.dumps({"files": files}))
    changed = run_script("--compare", *digests)
    assert changed.returncode == 1
    assert changed.stdout.splitlines() == [f"differs: {name}",
                                           f"{len(files) - 1} of {len(files)} byte-identical"]
