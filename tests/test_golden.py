"""Every golden file in ``tests/data/`` but the Fock oracle's, whose entries
and writer are in ``tests/golden.py``.

The optimum panel lists every row in order, and each tier-1 entry is
computed again and must print its committed text byte for byte. CI rewrites
every file and compares it. ``tests/test_fock_golden.py`` checks
``fock_oracle.txt`` and the mismatch messages of ``tests/golden.py``.
"""

import pytest

import golden

FILES = {name: entry for name, entry in golden.GOLDEN.items() if name != "fock_oracle.txt"}


@pytest.mark.parametrize("name", [name for name, entry in FILES.items() if entry.head])
def test_file_lists_every_entry_in_order(name):
    golden.check_order(name)


@pytest.mark.parametrize("name, index", [
    pytest.param(name, index, id=test_id)
    for name, entry in FILES.items() for test_id, index in entry.tier1.items()
])
def test_entry_is_reproduced(name, index):
    golden.check_entry(name, index)


@pytest.mark.parametrize("order", [[0, 1, 3], [0, 2, 1, 3]], ids=["dropped", "swapped"])
def test_misordered_file_is_named(monkeypatch, order):
    lines = golden.committed("optimum_panel.txt")
    monkeypatch.setattr(golden, "committed", lambda name: [lines[i] for i in order] + lines[4:])
    with pytest.raises(AssertionError, match="tests/data/optimum_panel.txt: "):
        golden.check_order("optimum_panel.txt")
