"""tools/code_lines.py counts the lines that hold code."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
two lines."""

import os  # a comment on a code line

# a comment line


class A:
    """Class docstring."""

    x = """not a docstring,
    so both lines count"""

    def f(self):
        """Function docstring."""
        return (1 +
                2)
'''


def test_counts_code_lines_only():
    # import, class, x (two lines), def, return (two lines).
    assert code_lines.code_lines(FIXTURE) == 7


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["7", "1", "8"]
    assert out[-1].endswith("total")


def test_closed_stdout_ends_quietly():
    # The reader closes its end before the tool prints, as `| head -1`
    # does once it has its line.  That raised BrokenPipeError with a
    # traceback.
    proc = subprocess.Popen(
        [sys.executable, str(TOOL), str(TOOL.parent.parent / "src")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() in (0, 1)
    assert err == b""
