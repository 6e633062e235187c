"""The line counter that CHANGES.md and ROADMAP.md quote (``tests/loc.py``)."""

import subprocess
import sys
from pathlib import Path

from loc import count_source

HERE = Path(__file__).resolve().parent

# Five lines of code: the import, the two lines of the continued ``def`` and
# the two of the continued ``return``; not the module and function
# docstrings, the comments or the blank lines.
FIXTURE = '''"""A module docstring,
over two lines."""

import math  # a trailing comment

# a comment line
def hypot(x,
          y):
    """A function docstring."""
    return math.sqrt(x * x +
                     y * y)
'''


def test_counts_code_lines_only():
    assert count_source(FIXTURE) == 5


def test_cli_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "one.py").write_text(FIXTURE)
    (tmp_path / "two.py").write_text("x = 1\n")
    out = subprocess.run([sys.executable, str(HERE / "loc.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert [line.split()[0] for line in out] == ["5", "1", "6"]
    assert out[-1].endswith("total")
