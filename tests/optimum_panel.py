"""The optimum panel: one line per optimizer solve, compared byte for byte.

Each line names its row, gives the configuration, then the optimum with
``best_rate``, ``best_g`` and ``best_t`` as ``float.hex``, the evaluation
count, both flags and the trace length. A change that moves an optimum, in
any bit or by one evaluation, changes the file.

The panel covers the exp, uniform and single spectra (``k_max = 5``, decay
2), every op, ``k_sel`` 1-3 (1 on the single spectrum), memory on and off,
and 0-30 dB in 7.5 dB steps: 310 solves. Three named rows follow, one per
known weakness of the search (CHANGES.md ``FOUND`` lines).

Regenerate it with

    PYTHONPATH=src python3 tests/optimum_panel.py > tests/data/optimum_panel.txt
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from mmcvqkd.channel import ChannelParams
from mmcvqkd.keyrate import RateParams
from mmcvqkd.operations import OpKind
from mmcvqkd.optimize import OptimizationProblem, optimize
from mmcvqkd.source import make_spectrum

SCENARIOS = ("exp", "uniform", "single")
LOSSES_DB = (0.0, 7.5, 15.0, 22.5, 30.0)


class Case(NamedTuple):
    scenario: str
    op: OpKind
    k_sel: int
    memory: bool
    loss_db: float


FOUND_ROWS = (
    # Each start's T window is one grid cell, about 1e-3 wide near T_MAX.
    ("found-t-max-crawl", Case("uniform", OpKind.PS1, 2, True, 27.0)),
    # Coordinate sweeps leave a diagonal (G, T) ridge early.
    ("found-diagonal-ridge", Case("uniform", OpKind.PS1, 2, False, 3.0)),
    # The rate along G has two maxima inside one grid bracket.
    ("found-two-g-maxima", Case("exp", OpKind.PS1, 1, True, 33.49)),
)


def panel_rows() -> list[tuple[str, Case]]:
    """(name, case) of every row, in file order."""
    rows = []
    for scenario in SCENARIOS:
        for op in OpKind:
            if op is OpKind.NONE:
                k_sels = (0,)
            else:
                k_sels = (1,) if scenario == "single" else (1, 2, 3)
            for k_sel in k_sels:
                for memory in (True, False):
                    for loss_db in LOSSES_DB:
                        rows.append(("panel", Case(scenario, op, k_sel, memory, loss_db)))
    return rows + list(FOUND_ROWS)


def solve_line(name: str, case: Case) -> str:
    """The panel line of one solve."""
    result = optimize(OptimizationProblem(
        spectrum=make_spectrum(case.scenario),
        op_kind=case.op,
        k_sel=case.k_sel,
        channel=ChannelParams.from_loss_db(case.loss_db),
        rate=RateParams(memory=case.memory),
    ))
    fields = {
        "scenario": case.scenario,
        "op": case.op.value,
        "k_sel": case.k_sel,
        "memory": int(case.memory),
        "loss_db": repr(case.loss_db),
        "best_rate": result.best_rate.hex(),
        "best_g": result.best_g.hex(),
        "best_t": ",".join(t.hex() for t in result.best_t),
        "evaluations": result.evaluations,
        "no_positive_key": int(result.no_positive_key),
        "g_at_bound": int(result.g_at_bound),
        "trace": len(result.trace),
    }
    return " ".join([name] + [f"{key}={value}" for key, value in fields.items()])


def main() -> None:
    for name, case in panel_rows():
        sys.stdout.write(solve_line(name, case) + "\n")


if __name__ == "__main__":
    main()
