"""The code-line counter that CHANGES.md and ROADMAP.md cite."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "code_lines.py"

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


def join(x):
    """Function docstring."""
    return os.path.join(
        x,
        "y",
    )


class Holder:
    """Class docstring."""

    text = """a string that is not a docstring
spans two lines"""
'''


def test_counts_code_and_not_docstrings_comments_or_blanks(tmp_path):
    # import, def, the four lines of the call, class and the two lines
    # of the plain string
    (tmp_path / "snippet.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["empty.py", "0"], ["snippet.py", "9"], ["total", "9"]]
