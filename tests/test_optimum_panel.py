"""A fixed slice of the optimum panel (``tests/optimum_panel.py``), re-solved.

Every tenth panel row and every named row is solved again and must print the
committed line byte for byte. CI regenerates the whole panel and compares it.
"""

from pathlib import Path

import pytest

from optimum_panel import FOUND_ROWS, panel_rows, solve_line

PANEL = Path(__file__).parent / "data" / "optimum_panel.txt"
LINES = PANEL.read_text().splitlines()
ROWS = panel_rows()
SLICE = list(range(0, len(ROWS) - len(FOUND_ROWS), 10)) + list(
    range(len(ROWS) - len(FOUND_ROWS), len(ROWS))
)


def _id(index):
    name, case = ROWS[index]
    memory = "memory" if case.memory else "no-memory"
    return f"{name}-{case.scenario}-{case.op.value}-k{case.k_sel}-{memory}-{case.loss_db}dB"


def test_file_lists_every_row_in_order():
    assert len(LINES) == len(ROWS)
    for line, (name, case) in zip(LINES, ROWS):
        assert line.startswith(f"{name} scenario={case.scenario} op={case.op.value} "), line


@pytest.mark.parametrize("index", SLICE, ids=[_id(i) for i in SLICE])
def test_row_is_reproduced(index):
    assert solve_line(*ROWS[index]) == LINES[index]
