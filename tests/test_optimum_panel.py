"""The optimum panel (``tests/data/optimum_panel.txt``, written by ``tests/golden.py``).

Every tenth solve, every named row and the largest default grid with memory
are solved again and must print the committed line byte for byte. CI
rewrites the whole file and compares it.
"""

import pytest

import golden

FILE = "optimum_panel.txt"


def test_file_lists_every_row_in_order():
    golden.check_order(FILE)


@pytest.mark.parametrize("index", golden.GOLDEN[FILE].tier1, ids=golden.GOLDEN[FILE].ids)
def test_row_is_reproduced(index):
    golden.check_entry(FILE, index)
