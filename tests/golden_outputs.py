"""The CLI fixtures: each ``tests/data/cli_*`` file is the output of one run.

``tests/test_cli.py`` repeats every run and compares the bytes. A difference
is an output change, to be re-pinned only on purpose.

Regenerate them with

    PYTHONPATH=src python3 tests/golden_outputs.py
"""

from __future__ import annotations

from pathlib import Path

from mmcvqkd import cli

DATA = Path(__file__).parent / "data"

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


def main() -> None:
    for name, args in GOLDEN_RUNS.items():
        if cli.main(args + ["--out", str(DATA / name)]) != 0:
            raise SystemExit(f"{name}: the run failed")


if __name__ == "__main__":
    main()
