"""The Fock oracle's golden file (``tests/data/fock_oracle.txt``, written by
``tests/golden.py``).

Every case is heralded again and must print the committed line byte for byte.
The last two tests cover the messages of ``tests/golden.py`` itself. The
other golden files are checked in ``tests/test_golden.py``.
"""

import platform

import numpy as np
import pytest

import golden

FILE = "fock_oracle.txt"


def test_file_lists_every_case_in_order():
    golden.check_order(FILE)


@pytest.mark.parametrize("index", golden.GOLDEN[FILE].tier1.values(), ids=golden.GOLDEN[FILE].tier1)
def test_case_is_reproduced(index):
    golden.check_entry(FILE, index)


@pytest.mark.parametrize("name, index, row, line", [
    ("fock_oracle.txt", 3, 0, 4),  # one line per entry
    ("cli_sweep.csv", 0, 2, 3),  # one entry per file
])
def test_mismatch_names_file_line_and_environment(monkeypatch, name, index, row, line):
    rows = golden.committed(name)[index].splitlines(keepends=True)
    rows[row] = rows[row][:-2] + "#\n"
    monkeypatch.setitem(golden.GOLDEN, name, golden.GOLDEN[name]._replace(text=lambda _: "".join(rows)))
    with pytest.raises(AssertionError) as failure:
        golden.check_entry(name, index)
    message = str(failure.value)
    assert f"tests/data/{name} line {line} differs" in message
    assert f"this run:  {rows[row].rstrip()}" in message
    assert golden.environment() in message


def test_environment_without_cpu_features(monkeypatch):
    umath = np._core._multiarray_umath
    monkeypatch.delattr(umath, "__cpu_features__")
    assert golden.environment() == f"numpy {np.__version__}, dispatch unknown, Python {platform.python_version()}"
