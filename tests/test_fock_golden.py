"""The Fock oracle's golden file (``tests/fock_golden.py``), regenerated.

Every case is heralded again and must print the committed line byte for
byte. CI also regenerates the whole file and compares it.
"""

from pathlib import Path

import pytest

from fock_golden import golden_cases, herald_line

GOLDEN = Path(__file__).parent / "data" / "fock_oracle.txt"
LINES = GOLDEN.read_text().splitlines()
CASES = golden_cases()


def test_file_lists_every_case_in_order():
    assert len(LINES) == len(CASES)
    for line, case in zip(LINES, CASES):
        assert line.startswith(f"op={case.op.value} r={case.r!r} t={case.t!r} "), line


@pytest.mark.parametrize(
    "index", range(len(CASES)), ids=[f"{c.op.value}-r{c.r}-t{c.t}" for c in CASES]
)
def test_case_is_reproduced(index):
    assert herald_line(CASES[index]) == LINES[index]
