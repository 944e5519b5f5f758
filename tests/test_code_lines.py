"""The code-line counter that measures the package's size."""

from code_lines import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment alone
def area(r):
    """Function docstring."""

    text = """a string that is
not a docstring"""
    return math.pi * r ** 2, text


class Shape:
    """Class docstring."""
'''


def test_counts_lines_with_a_token_other_than_a_comment():
    # import, def, text (two lines), return and class
    assert code_lines(SOURCE) == 6
