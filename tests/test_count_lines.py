"""The line counter: every line falls in exactly one class."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "count_lines.py"
spec = importlib.util.spec_from_file_location("count_lines", SCRIPT)
count_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_lines)

FIXTURE = '''"""Module docstring.

Second paragraph.
"""

# a comment
import os


def f():
    """One line."""
    x = "# not a comment"  # trailing
    return x


class C:
    """Class docstring,

    with a blank line inside.
    """

    value = os.sep
'''


def test_hand_written_fixture_has_its_known_counts():
    assert count_lines.count_source(FIXTURE) == {
        "code": 6, "docstring": 9, "comment": 1, "blank": 6}
    assert sum(count_lines.count_source(FIXTURE).values()) == FIXTURE.count("\n") == 22


def test_classes_sum_to_every_package_file_line_count(capsys):
    files = count_lines.python_files([count_lines.PACKAGE])
    assert files
    for path in files:
        source = path.read_text(encoding="utf-8")
        assert sum(count_lines.count_source(source).values()) == source.count("\n"), path
    assert count_lines.main([]) == 0
    total = capsys.readouterr().out.splitlines()[-1].replace(",", "").split()
    assert total[0] == "total"
    lines, *classes = map(int, total[1:])
    assert lines == sum(classes) == sum(p.read_text(encoding="utf-8").count("\n") for p in files)
