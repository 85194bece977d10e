"""``tools/loc.py``, the code-line counter, on a small source text."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("_loc", TOOL)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# 11 code lines: the 9 marked "# code" (a comment after code leaves the line
# code; the mark on the first line of the string is inside it), the second
# line of that string and the last string, which is no docstring.
SOURCE = '''"""Module docstring,
over two lines."""

import os  # code

# a comment line


class A:  # code
    """Class docstring."""

    x = (  # code
        1,  # code
        2,  # code
    )  # code

    def f(self):  # code
        """Function
        docstring."""
        text = """not a  # code
docstring"""
        return text  # code


"""A string statement that is not first: code."""
'''


def test_code_lines_of_a_small_source():
    assert loc.code_lines(SOURCE) == 11
    assert loc.code_lines("") == 0
    assert loc.code_lines("# only a comment\n\n") == 0
    assert loc.code_lines('"""Only a docstring."""\n') == 0


def test_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text(SOURCE)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    single = tmp_path / "c.py"
    single.write_text("y = 2\nz = 3\n")
    done = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "pkg"), str(single)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines() == [
        f"     1  {tmp_path / 'pkg' / 'a.py'}",
        f"    11  {tmp_path / 'pkg' / 'b.py'}",
        f"     2  {single}",
        "    14  total",
    ]
