"""The size measure of `tools/src_lines.py`: the lines that hold code."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("src_lines", os.path.join(ROOT, "tools", "src_lines.py"))
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SNIPPET = '''"""A module docstring,
over two lines."""

# a comment-only line
import os  # a trailing comment counts with its line


class Shape:
    """A class docstring."""

    def area(self, a, b, c):
        """A function docstring,

        with a blank line inside."""

        # another comment
        return (a  # one statement over three lines
                + b
                * c)
    # a comment after the body
'''


def test_code_lines_counts_only_lines_that_hold_code():
    # import, class, def and the three lines of the return statement
    assert src_lines.code_lines(SNIPPET) == 6
    assert src_lines.code_lines("") == 0
    assert src_lines.code_lines('x = """a string\nthat is a value"""\n') == 2
