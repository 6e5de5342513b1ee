"""tools/code_lines.py counts code lines: no docstrings, comments or blank lines."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment counts as its code line

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring,
        over two lines.
        """
        text = """a multi-line string
        that is not a docstring"""
        return (x +
                1)
'''


def test_counts_code_lines_only():
    # import, class, def, the two string lines, the two return lines
    assert code_lines.code_lines(SOURCE) == 7


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text("x = 1\n\ny = 2  # two lines\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == [
        "2", str(tmp_path / "a.py"), "2", str(tmp_path / "b.py"), "4", "total",
    ]
