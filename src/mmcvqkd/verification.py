"""Cross-checks of every closed form against independent computations.

Each check compares an implementation path against an oracle that shares no
code with it: heralded CMs/probabilities against the truncated-Fock engine,
the batch kernel's closed-form mutual information against the
assembled-pipeline value, and the two-mode symplectic closed form against
the generic eigenproblem. The ``verify`` CLI subcommand runs all of them and
reports one line per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .channel import ChannelParams, DetectorParams, build_pipeline
from .gaussian import TwoModeCM, symplectic_eigenvalues
from .keyrate import RateParams, mutual_information, subchannel_rates_batch
from .operations import OpKind, heralded_entries
from .source import epr_cm

DEFAULT_CM_TOL = 1e-6
DEFAULT_PROB_TOL = 1e-8
DEFAULT_MI_TOL = 1e-12
DEFAULT_SYMPLECTIC_TOL = 1e-10
# Deviations beyond this are wrong formulas, not floating-point slack.
STRUCTURAL_THRESHOLD = 1e-3

ORACLE_SQUEEZINGS = (0.3, 0.8, 1.2)
ORACLE_TRANSMISSIVITIES = (0.5, 0.9)
ACTIVE_KINDS = (OpKind.PS1, OpKind.PA1, OpKind.PC1, OpKind.PC0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    @property
    def failure_kind(self) -> str | None:
        if self.passed:
            return None
        # NaN fails both comparisons: it is a structural mismatch.
        return "tolerance-miss" if self.max_deviation <= STRUCTURAL_THRESHOLD else "structural-mismatch"

    def report_line(self) -> str:
        status = "PASS" if self.passed else f"FAIL[{self.failure_kind}]"
        return f"{status:26s} {self.name:32s} max_dev={self.max_deviation:.3e} tol={self.tolerance:.1e}"


def _worst(*deviations: float) -> float:
    """The largest deviation, or NaN if any is NaN (``max`` can drop a NaN)."""
    return float(np.max(deviations))


def check_heralded_ops(cm_tol: float = DEFAULT_CM_TOL, prob_tol: float = DEFAULT_PROB_TOL) -> list[CheckResult]:
    """Closed-form (a, b, c) and probability of each operation vs the Fock engine."""
    results = []
    for kind in ACTIVE_KINDS:
        dev_cm = 0.0
        dev_prob = 0.0
        for r in ORACLE_SQUEEZINGS:
            state = fock.build_tmsv(r)
            xi_sq = math.tanh(r) ** 2
            for t in ORACLE_TRANSMISSIVITIES:
                heralded = fock.herald(state, kind.ancilla_photons, kind.detected_photons, t)
                a, b, c, p = heralded_entries(kind, xi_sq, t)
                dev_cm = _worst(
                    dev_cm,
                    abs(heralded.cm.a - float(a)),
                    abs(heralded.cm.b - float(b)),
                    abs(heralded.cm.c - float(c)),
                )
                dev_prob = _worst(dev_prob, abs(heralded.probability - float(p)))
        results.append(CheckResult(f"heralded-cm-{kind.value}", dev_cm, cm_tol))
        results.append(CheckResult(f"heralded-prob-{kind.value}", dev_prob, prob_tol))
    return results


def check_tmsv_cm(cm_tol: float = DEFAULT_CM_TOL) -> CheckResult:
    """EPR covariance matrix vs moments extracted from the Fock representation."""
    dev = 0.0
    for r in ORACLE_SQUEEZINGS:
        oracle = fock.extract_cm(fock.build_tmsv(r))
        closed = epr_cm(r)
        dev = _worst(dev, abs(oracle.a - closed.a), abs(oracle.b - closed.b), abs(oracle.c - closed.c))
    return CheckResult("tmsv-cm", dev, cm_tol)


def check_mutual_information(mi_tol: float = DEFAULT_MI_TOL, draws: int = 200) -> CheckResult:
    """Assembled-pipeline mutual information vs the batch kernel's closed form
    (``subchannel_rates_batch`` at n = 1), random draws."""
    rng = np.random.default_rng(20240817)
    dev = 0.0
    for _ in range(draws):
        r = rng.uniform(0.05, 2.0)
        kind = OpKind(rng.choice([k.value for k in (OpKind.NONE,) + ACTIVE_KINDS]))
        t = rng.uniform(0.05, 0.95)
        a, b, c, _ = heralded_entries(kind, math.tanh(r) ** 2, t)
        cm = TwoModeCM(float(a), float(b), float(c))
        ch = ChannelParams(eta_e=rng.uniform(0.001, 1.0), epsilon=rng.uniform(0.0, 0.5))
        det = DetectorParams(eta_d=rng.uniform(0.3, 1.0), nu=rng.uniform(1.0, 1.5))
        pipeline = build_pipeline(cm, ch, det)
        info = subchannel_rates_batch([a], [b], [c], ch, det, RateParams())[1][0]
        dev = _worst(dev, abs(mutual_information(pipeline) - info))
    return CheckResult("mutual-information-closed-form", dev, mi_tol)


def check_two_mode_symplectic(tol: float = DEFAULT_SYMPLECTIC_TOL, draws: int = 200) -> CheckResult:
    """Two-mode closed-form symplectic eigenvalues vs the generic eigenproblem."""
    rng = np.random.default_rng(20240818)
    dev = 0.0
    for _ in range(draws):
        r = rng.uniform(0.0, 2.0)
        kind = OpKind(rng.choice([k.value for k in (OpKind.NONE,) + ACTIVE_KINDS]))
        t = rng.uniform(0.05, 0.95)
        a, b, c, _ = heralded_entries(kind, math.tanh(r) ** 2, t)
        cm = TwoModeCM(float(a), float(b), float(c))
        closed = np.array(cm.symplectic_eigenvalues())
        generic = symplectic_eigenvalues(cm)
        dev = _worst(dev, *np.abs(np.sort(closed) - np.sort(generic)))
    return CheckResult("two-mode-symplectic-closed-form", dev, tol)


def run_all_checks() -> list[CheckResult]:
    results = check_heralded_ops(DEFAULT_CM_TOL, DEFAULT_PROB_TOL)
    results.append(check_tmsv_cm(DEFAULT_CM_TOL))
    results.append(check_mutual_information(DEFAULT_MI_TOL))
    results.append(check_two_mode_symplectic())
    return results
