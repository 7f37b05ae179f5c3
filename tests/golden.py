"""Every golden file in ``tests/data/`` and the code that writes it.

``GOLDEN`` maps each file to its entries and to the text of one entry:
- ``optimum_panel.txt``: one line per optimizer solve, the optimum as
  ``float.hex`` with its evaluation count, both flags and the trace length.
  The exp, uniform and single spectra (``k_max = 5``, decay 2), every op,
  ``k_sel`` 1-3 (1 on the single spectrum), memory on and off, 0-30 dB in
  7.5 dB steps: 310 solves, then the named rows.
- ``fock_oracle.txt``: one line per heralded Fock case, the cutoff and the
  heralded ``a``, ``b``, ``c`` and probability as ``float.hex``. The four
  active operations x 5 squeezings x 4 transmissivities, cutoffs 4 to 855.
- ``cli_*``: the whole output of one CLI run each.

A change that moves an optimum, a herald or an output byte changes its file.
``tests/test_golden.py`` and, for the Fock oracle, ``tests/test_fock_golden.py``
reproduce every entry of every file byte for byte. Rewrite every file with

    PYTHONPATH=src python3 tests/golden.py && git diff --stat tests/data

The pins come from numpy 2.4.6 dispatching to AVX512_SPR, on Python 3.11.7.
Other SIMD dispatch levels round some ufuncs differently in the last bit, so
a mismatch names this run's ``environment()``.
"""

from __future__ import annotations

import contextlib
import io
import platform
import sys
from itertools import zip_longest
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from mmcvqkd import cli
from mmcvqkd.channel import ChannelParams
from mmcvqkd.fock import build_tmsv, herald, tmsv_cutoff
from mmcvqkd.keyrate import RateParams
from mmcvqkd.operations import OpKind
from mmcvqkd.optimize import OptimizationProblem, optimize
from mmcvqkd.source import make_spectrum
from mmcvqkd.verification import ACTIVE_KINDS

DATA = Path(__file__).parent / "data"


class PanelCase(NamedTuple):
    scenario: str
    op: OpKind
    k_sel: int
    memory: bool
    loss_db: float


NAMED_ROWS = (
    # Each start's T window is one grid cell, about 1e-3 wide near T_MAX.
    ("found-t-max-crawl", PanelCase("uniform", OpKind.PS1, 2, True, 27.0)),
    # Coordinate sweeps leave a diagonal (G, T) ridge early.
    ("found-diagonal-ridge", PanelCase("uniform", OpKind.PS1, 2, False, 3.0)),
    # The rate along G has two maxima inside one grid bracket.
    ("found-two-g-maxima", PanelCase("exp", OpKind.PS1, 1, True, 33.49)),
    # The largest default grid, 25^4 points, without memory.
    ("k3-no-memory", PanelCase("exp", OpKind.PC1, 3, False, 22.0)),
    # test_second_g_maximum_in_one_bracket_is_kept: the better of two G
    # maxima in one grid bracket.
    ("second-g-maximum", PanelCase("exp", OpKind.PC0, 1, True, 33.75)),
)


def panel_rows() -> list[tuple[str, PanelCase]]:
    """(name, case) of every row, in file order."""
    rows = []
    for scenario in ("exp", "uniform", "single"):
        for op in OpKind:
            if op is OpKind.NONE:
                k_sels = (0,)
            else:
                k_sels = (1,) if scenario == "single" else (1, 2, 3)
            for k_sel in k_sels:
                for memory in (True, False):
                    for loss_db in (0.0, 7.5, 15.0, 22.5, 30.0):
                        rows.append(("panel", PanelCase(scenario, op, k_sel, memory, loss_db)))
    return rows + list(NAMED_ROWS)


def panel_head(name: str, case: PanelCase) -> str:
    return (f"{name} scenario={case.scenario} op={case.op.value} k_sel={case.k_sel} "
            f"memory={int(case.memory)} loss_db={case.loss_db!r}")


def solve_line(name: str, case: PanelCase) -> str:
    """The panel line of one solve."""
    result = optimize(OptimizationProblem(
        spectrum=make_spectrum(case.scenario),
        op_kind=case.op,
        k_sel=case.k_sel,
        channel=ChannelParams.from_loss_db(case.loss_db),
        rate=RateParams(memory=case.memory),
    ))
    fields = {
        "best_rate": result.best_rate.hex(),
        "best_g": result.best_g.hex(),
        "best_t": ",".join(t.hex() for t in result.best_t),
        "evaluations": result.evaluations,
        "no_positive_key": int(result.no_positive_key),
        "g_at_bound": int(result.g_at_bound),
        "trace": len(result.trace),
    }
    return " ".join([panel_head(name, case)] + [f"{key}={value}" for key, value in fields.items()])


def panel_id(name: str, case: PanelCase) -> str:
    memory = "memory" if case.memory else "no-memory"
    return f"{name}-{case.scenario}-{case.op.value}-k{case.k_sel}-{memory}-{case.loss_db}dB"


class FockCase(NamedTuple):
    op: OpKind
    r: float
    t: float


FOCK_CASES = [
    FockCase(op, r, t)
    for op in ACTIVE_KINDS for r in (0.05, 0.6, 1.2, 2.0, 2.5) for t in (0.1, 0.5, 0.9, 0.999)
]


def fock_head(case: FockCase) -> str:
    return f"op={case.op.value} r={case.r!r} t={case.t!r}"


def herald_line(case: FockCase) -> str:
    """The golden line of one heralded case."""
    result = herald(build_tmsv(case.r), case.op.ancilla_photons, case.op.detected_photons, case.t)
    fields = {
        "cutoff": tmsv_cutoff(case.r),
        "a": result.cm.a.hex(),
        "b": result.cm.b.hex(),
        "c": result.cm.c.hex(),
        "probability": result.probability.hex(),
    }
    return " ".join([fock_head(case)] + [f"{key}={value}" for key, value in fields.items()])


GOLDEN_RUNS = {
    "cli_point.csv": ["point", "--scenario", "exp", "--op", "0pc", "--ksel", "2",
                      "--gain", "1.5", "--t", "0.9,0.8", "--loss-db", "10"],
    "cli_point.json": ["point", "--scenario", "exp", "--op", "0pc", "--ksel", "2",
                       "--gain", "1.5", "--t", "0.9,0.8", "--loss-db", "10", "--format", "json"],
    "cli_optimize_memory.csv": ["optimize", "--scenario", "exp", "--op", "1pc", "--ksel", "2",
                                "--loss-db", "22", "--grid-points", "5", "--memory"],
    "cli_optimize_no_memory.json": ["optimize", "--scenario", "exp", "--op", "1pc",
                                    "--ksel", "2", "--loss-db", "22", "--grid-points", "5",
                                    "--no-memory", "--format", "json"],
    "cli_sweep.csv": ["sweep", "--scenario", "uniform", "--op", "1ps", "--ksel", "1",
                      "--no-memory", "--no-clamp", "--loss-db", "0:30:10", "--grid-points", "6"],
}


def cli_text(args: list[str]) -> str:
    """The output of one CLI run."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        if cli.main(args) != 0:
            raise RuntimeError(f"mmcvqkd {' '.join(args)}: the run failed")
    return out.getvalue()


class Golden(NamedTuple):
    """One file: its entries in order and the text of one entry."""

    entries: list
    text: Callable[..., str]
    tier1: dict[str, int]  # the test id and index of every entry, all reproduced by tier-1
    head: Callable[..., str] | None = None  # the start of each line; None: one entry per file


PANEL_ROWS = panel_rows()

GOLDEN = {
    "optimum_panel.txt": Golden(
        PANEL_ROWS, lambda row: solve_line(*row) + "\n",
        {panel_id(*row): i for i, row in enumerate(PANEL_ROWS)}, lambda row: panel_head(*row),
    ),
    "fock_oracle.txt": Golden(
        FOCK_CASES, lambda case: herald_line(case) + "\n",
        {f"{c.op.value}-r{c.r}-t{c.t}": i for i, c in enumerate(FOCK_CASES)}, fock_head,
    ),
    **{name: Golden([args], cli_text, {name: 0}) for name, args in GOLDEN_RUNS.items()},
}


def environment() -> str:
    """This run's numpy version, enabled SIMD dispatch targets and Python version."""
    umath = getattr(getattr(np, "_core", None) or getattr(np, "core", None), "_multiarray_umath", None)
    features = getattr(umath, "__cpu_features__", None) or {}
    targets = [t for t in getattr(umath, "__cpu_dispatch__", features) if features.get(t)]
    return (f"numpy {np.__version__}, dispatch {' '.join(targets) or 'unknown'}, "
            f"Python {platform.python_version()}")


def committed(name: str) -> list[str]:
    """The committed text of each entry of one file."""
    text = (DATA / name).read_bytes().decode()
    return text.splitlines(keepends=True) if GOLDEN[name].head else [text]


def check_order(name: str) -> None:
    """The file lists every entry, in order."""
    golden, chunks = GOLDEN[name], committed(name)
    assert len(chunks) == len(golden.entries), f"tests/data/{name}: {len(chunks)} entries"
    for chunk, entry in zip(chunks, golden.entries):
        assert chunk.startswith(golden.head(entry) + " "), f"tests/data/{name}: {chunk!r}"


def check_entry(name: str, index: int) -> None:
    """Entry ``index`` is reproduced byte for byte; a mismatch names its first differing line."""
    golden = GOLDEN[name]
    expected, observed = committed(name)[index], golden.text(golden.entries[index])
    if observed == expected:
        return
    pairs = zip_longest(expected.splitlines(), observed.splitlines(), fillvalue="<end of text>")
    offset, (was, now) = next(
        ((i, pair) for i, pair in enumerate(pairs) if pair[0] != pair[1]), (0, (expected, observed))
    )
    line = (index if golden.head else 0) + offset + 1
    raise AssertionError(
        f"tests/data/{name} line {line} differs\n  committed: {was}\n  this run:  {now}\n"
        f"  this run's environment: {environment()}"
    )


def main() -> None:
    print(f"golden: {environment()}", file=sys.stderr)
    for name, golden in GOLDEN.items():
        (DATA / name).write_bytes("".join(map(golden.text, golden.entries)).encode())


if __name__ == "__main__":
    main()
