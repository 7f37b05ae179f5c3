"""Every golden file in ``tests/data/`` but the Fock oracle's, whose entries
and writer are in ``tests/golden.py``.

The optimum panel lists every row in order, and every entry is computed
again and must print its committed text byte for byte. CI also rewrites
every file and compares it. ``tests/test_fock_golden.py`` checks
``fock_oracle.txt`` and the mismatch messages of ``tests/golden.py``.

Two relations between the panel's optima hold by construction and are read
from the committed text with no solve: memory never loses to no memory, and
the clamped optimum never rises with loss.
"""

from collections import Counter

import pytest

from mmcvqkd.operations import OpKind
from mmcvqkd.optimize import RATE_REL_TOL

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


LOSSES = sorted({case.loss_db for name, case in golden.PANEL_ROWS if name == "panel"})


def best_rate(line):
    return float.fromhex(line.split(" best_rate=")[1].split(" ")[0])


def panel_pairs(lines):
    """(relation, case, higher, lower): each pair of the panel's grid-row optima in
    which ``higher`` may not fall below ``lower``, read from the text with no solve."""
    rates = {case: best_rate(line) for (name, case), line in zip(golden.PANEL_ROWS, lines) if name == "panel"}
    pairs = []
    for case, rate in rates.items():
        if case.memory:
            pairs.append(("memory never loses to no memory", case, rate, rates[case._replace(memory=False)]))
        if case.loss_db != LOSSES[-1]:
            later = case._replace(loss_db=LOSSES[LOSSES.index(case.loss_db) + 1])
            pairs.append(("the optimum never rises with loss", later, rate, rates[later]))
    return pairs


def broken(pairs):
    return [(relation, case) for relation, case, higher, lower in pairs
            if not higher >= lower - RATE_REL_TOL * abs(lower)]


def test_panel_optima_keep_their_relations():
    pairs = panel_pairs(golden.committed("optimum_panel.txt"))
    assert Counter(relation for relation, *_ in pairs) == {
        "memory never loses to no memory": 155, "the optimum never rises with loss": 248,
    }
    assert broken(pairs) == []


@pytest.mark.parametrize("case, move, relation", [
    # Without an operation memory changes nothing, so the two optima are equal.
    (golden.PanelCase("exp", OpKind.NONE, 0, True, 30.0), lambda rate: rate * (1 - 1e-3),
     "memory never loses to no memory"),
    # This optimum and the one at 22.5 dB are clamped to exactly 0.
    (golden.PanelCase("exp", OpKind.PA1, 3, True, 30.0), lambda rate: rate + 5e-324,
     "the optimum never rises with loss"),
], ids=["memory", "loss"])
def test_moved_optimum_breaks_a_relation(case, move, relation):
    lines = golden.committed("optimum_panel.txt")
    index = golden.PANEL_ROWS.index(("panel", case))
    rate = best_rate(lines[index])
    moved = move(rate)
    lines[index] = lines[index].replace(f"best_rate={rate.hex()}", f"best_rate={moved.hex()}")
    assert broken(panel_pairs(lines)) == [(relation, case)]
