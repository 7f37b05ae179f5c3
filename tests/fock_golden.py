"""The Fock oracle's golden file: one line per heralded case, compared byte for byte.

Each line gives the operation, ``r`` and ``T``, the cutoff ``tmsv_cutoff(r)``,
then the heralded CM entries ``a``, ``b``, ``c`` and the success probability
as ``float.hex``. A change that moves any of them, in any bit, changes the
file.

The cases are the four active operations × r ∈ {0.05, 0.6, 1.2, 2.0, 2.5}
× T ∈ {0.1, 0.5, 0.9, 0.999}: 80 lines, with cutoffs from 4 to 855.

Regenerate it with

    PYTHONPATH=src python3 tests/fock_golden.py > tests/data/fock_oracle.txt
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from mmcvqkd.fock import build_tmsv, herald, tmsv_cutoff
from mmcvqkd.operations import OpKind
from mmcvqkd.verification import ACTIVE_KINDS

SQUEEZINGS = (0.05, 0.6, 1.2, 2.0, 2.5)
TRANSMISSIVITIES = (0.1, 0.5, 0.9, 0.999)


class Case(NamedTuple):
    op: OpKind
    r: float
    t: float


def golden_cases() -> list[Case]:
    """Every case, in file order."""
    return [Case(op, r, t) for op in ACTIVE_KINDS for r in SQUEEZINGS for t in TRANSMISSIVITIES]


def herald_line(case: Case) -> str:
    """The golden line of one heralded case."""
    result = herald(build_tmsv(case.r), case.op.ancilla_photons, case.op.detected_photons, case.t)
    fields = {
        "op": case.op.value,
        "r": repr(case.r),
        "t": repr(case.t),
        "cutoff": tmsv_cutoff(case.r),
        "a": result.cm.a.hex(),
        "b": result.cm.b.hex(),
        "c": result.cm.c.hex(),
        "probability": result.probability.hex(),
    }
    return " ".join(f"{key}={value}" for key, value in fields.items())


def main() -> None:
    for case in golden_cases():
        sys.stdout.write(herald_line(case) + "\n")


if __name__ == "__main__":
    main()
