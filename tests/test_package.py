import os
import subprocess
import sys
from pathlib import Path

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
